/// \file perfbench_test.cpp
/// The benchmark's own tests: layer timing must not change outcomes, the
/// open-loop accounting must count shed and failed requests as misses,
/// and the correctness checks must catch a tampered result.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/tvof.hpp"
#include "ip/bnb.hpp"
#include "layers.hpp"
#include "open_loop.hpp"
#include "sim/scenario.hpp"

namespace {

using perfbench::Sample;
using perfbench::TimedSolver;
using svo::core::FormationRequest;
using svo::core::MechanismResult;
using svo::svc::TicketState;

std::vector<svo::sim::Scenario> make_pool(std::size_t gsps, std::size_t tasks,
                                          std::size_t count) {
  svo::sim::ExperimentConfig cfg;
  cfg.seed = 7;
  cfg.gen.params.num_gsps = gsps;
  cfg.trace.num_jobs = 4000;
  cfg.trace.canonical_sizes = {static_cast<std::int64_t>(tasks)};
  const svo::sim::ScenarioFactory factory(cfg);
  std::vector<svo::sim::Scenario> pool;
  for (std::size_t i = 0; i < count; ++i) pool.push_back(factory.make(tasks, i));
  return pool;
}

struct Shape {
  std::size_t gsps, tasks, max_nodes, warm_max_nodes;
};

class DecoratorTest : public ::testing::TestWithParam<Shape> {};

TEST_P(DecoratorTest, OutcomesAreIdenticalWithAndWithoutTheDecorator) {
  const Shape shape = GetParam();
  svo::ip::BnbOptions opts;
  opts.max_nodes = shape.max_nodes;
  opts.warm_max_nodes = shape.warm_max_nodes;
  const svo::ip::BnbAssignmentSolver plain(opts);
  const TimedSolver timed(plain);
  const svo::core::TvofMechanism direct(plain);
  const svo::core::TvofMechanism traced(timed);
  for (const svo::sim::Scenario& scn : make_pool(shape.gsps, shape.tasks, 6)) {
    svo::util::Xoshiro256 rng_a(scn.tvof_seed);
    svo::util::Xoshiro256 rng_b(scn.tvof_seed);
    const MechanismResult a =
        direct.run(FormationRequest{scn.instance.assignment, scn.trust, rng_a});
    const TimedSolver::Totals before = timed.totals();
    const MechanismResult b =
        traced.run(FormationRequest{scn.instance.assignment, scn.trust, rng_b});
    const TimedSolver::Totals d = timed.totals() - before;
    EXPECT_EQ(perfbench::compare_runs(a, rng_a(), b, rng_b()), "");
    EXPECT_EQ(perfbench::check_result(scn.instance.assignment, b), "");
    // One solve per journal record, and the node tally is the run's.
    EXPECT_EQ(d.calls, b.journal.size());
    EXPECT_EQ(d.nodes, b.stats.nodes);
    EXPECT_GT(d.solve_ns, 0U);
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, DecoratorTest,
                         ::testing::Values(Shape{8, 24, 2000, 0},
                                           Shape{64, 64, 500, 0},
                                           Shape{16, 256, 20'000, 5'000}));

TEST(DecoratorThroughServiceTest, OutcomesMatchDirectRuns) {
  const std::vector<svo::sim::Scenario> pool = make_pool(8, 24, 8);
  svo::ip::BnbOptions opts;
  opts.max_nodes = 2000;
  const svo::ip::BnbAssignmentSolver plain(opts);
  const TimedSolver timed(plain);
  const svo::core::TvofMechanism direct(plain);
  const svo::core::TvofMechanism traced(timed);
  svo::svc::ServiceOptions sopt;
  sopt.shards = 3;
  sopt.threads = 2;
  svo::svc::FormationService service(traced, sopt);
  const perfbench::RungRun run =
      perfbench::drive_rung(service, pool, 2000.0, 0.02, 11, 0);
  ASSERT_FALSE(run.outcomes.empty());
  for (std::size_t k = 0; k < run.outcomes.size(); ++k) {
    const svo::svc::RequestOutcome& o = run.outcomes[k];
    ASSERT_EQ(o.state, TicketState::Done);
    const svo::sim::Scenario& scn = pool[k % pool.size()];
    svo::util::Xoshiro256 rng(perfbench::request_seed(11, k));
    const MechanismResult d =
        direct.run(FormationRequest{scn.instance.assignment, scn.trust, rng});
    EXPECT_EQ(perfbench::compare_runs(o.result, o.rng_probe, d, rng()), "");
  }
}

std::vector<Sample> samples(std::size_t done, std::size_t shed,
                            std::size_t failed, double latency_s) {
  std::vector<Sample> out;
  for (std::size_t i = 0; i < done + shed + failed; ++i) {
    const TicketState state = i < done          ? TicketState::Done
                              : i < done + shed ? TicketState::Shed
                                                : TicketState::Failed;
    out.push_back({0.001 * static_cast<double>(i), state, latency_s});
  }
  return out;
}

TEST(OpenLoopAccounting, ShedAndFailedRequestsAreLatencyMisses) {
  // 97 fast requests, 2 shed, 1 failed: 3 % never finished, so the p99
  // lands on a miss even though every Done request was fast.
  const perfbench::RungSummary s =
      perfbench::summarize_rung(samples(97, 2, 1, 0.001), 0.1, 1000.0, 10.0,
                                0.1, 0);
  EXPECT_EQ(s.requests, 100U);
  EXPECT_EQ(s.done, 97U);
  EXPECT_EQ(s.misses, 3U);
  EXPECT_TRUE(std::isinf(s.p99_ms));
  EXPECT_FALSE(s.ok);
  EXPECT_NEAR(s.p50_ms, 1.0, 1e-9);

  // The same misses in a rung 100 times larger stay under 1 %.
  const perfbench::RungSummary big =
      perfbench::summarize_rung(samples(9997, 2, 1, 0.001), 10.0, 1000.0, 10.0,
                                10.0, 0);
  EXPECT_EQ(big.misses, 3U);
  EXPECT_TRUE(big.ok);
}

TEST(OpenLoopAccounting, SlowRequestsMissAndGrowingBacklogFails) {
  std::vector<Sample> slow = samples(100, 0, 0, 0.001);
  for (std::size_t i = 90; i < 100; ++i) slow[i].latency_s = 0.050;
  const perfbench::RungSummary s =
      perfbench::summarize_rung(slow, 0.1, 1000.0, 10.0, 0.1, 0);
  EXPECT_EQ(s.misses, 10U);
  EXPECT_FALSE(s.ok);

  // At 1000/s and a 10 ms limit, at most 10 requests may be in flight.
  const std::vector<Sample> fast = samples(100, 0, 0, 0.001);
  EXPECT_TRUE(perfbench::summarize_rung(fast, 0.1, 1000.0, 10.0, 0.1, 10).ok);
  EXPECT_FALSE(perfbench::summarize_rung(fast, 0.1, 1000.0, 10.0, 0.1, 11).ok);
}

TEST(OpenLoopAccounting, ServiceShedAndFailuresReachTheSummary) {
  const std::vector<svo::sim::Scenario> pool = make_pool(8, 24, 4);
  svo::ip::BnbOptions opts;
  opts.max_nodes = 2000;
  const svo::ip::BnbAssignmentSolver plain(opts);
  const svo::core::TvofMechanism mechanism(plain);
  svo::svc::ServiceOptions sopt;
  sopt.shards = 1;
  sopt.threads = 1;
  sopt.queue_capacity = 2;
  sopt.batch_size = 1;
  sopt.overload = svo::svc::OverloadPolicy::Shed;
  // Every solve of ticket 0 throws and it has no retries: Failed.
  sopt.faults.solver_faults.push_back(
      {0, svo::svc::SolverFault::kPoison});
  svo::svc::FormationService service(mechanism, sopt);
  // 200 requests in 10 ms into a queue of 2: most are shed.
  const perfbench::RungRun run =
      perfbench::drive_rung(service, pool, 20'000.0, 0.01, 3, 0);
  std::size_t shed = 0;
  std::size_t failed = 0;
  for (const svo::svc::RequestOutcome& o : run.outcomes) {
    shed += o.state == TicketState::Shed ? 1 : 0;
    failed += o.state == TicketState::Failed ? 1 : 0;
  }
  EXPECT_GT(shed, 0U);
  EXPECT_EQ(failed, 1U);
  const perfbench::RungSummary s = perfbench::summarize_rung(
      run.samples, 0.01, 20'000.0, 1000.0, 0.01, run.outstanding_at_end);
  // Non-Done requests are the run's failures (failed_ratio's numerator)
  // and each one misses the latency limit, however generous.
  EXPECT_EQ(s.requests - s.done, shed + failed);
  EXPECT_GE(s.misses, shed + failed);
  EXPECT_FALSE(s.ok);
}

TEST(Checks, TamperedResultsAreCaught) {
  const std::vector<svo::sim::Scenario> pool = make_pool(8, 24, 1);
  const svo::sim::Scenario& scn = pool.front();
  svo::ip::BnbOptions opts;
  opts.max_nodes = 2000;
  const svo::ip::BnbAssignmentSolver plain(opts);
  const svo::core::TvofMechanism mechanism(plain);
  svo::util::Xoshiro256 rng(scn.tvof_seed);
  const MechanismResult good =
      mechanism.run(FormationRequest{scn.instance.assignment, scn.trust, rng});
  ASSERT_TRUE(good.success);
  ASSERT_EQ(perfbench::check_result(scn.instance.assignment, good), "");

  MechanismResult cost = good;
  cost.cost = std::nextafter(cost.cost, 0.0);
  EXPECT_NE(perfbench::check_result(scn.instance.assignment, cost), "");

  // Move one member's only tasks away: constraint (13) breaks.
  MechanismResult mapping = good;
  const std::size_t victim = mapping.mapping.front();
  std::size_t other = victim;
  for (const std::size_t g : mapping.selected.members()) {
    if (g != victim) other = g;
  }
  for (std::size_t& g : mapping.mapping) {
    if (g == victim) g = other;
  }
  if (other != victim) {
    EXPECT_NE(perfbench::check_result(scn.instance.assignment, mapping), "");
  }

  EXPECT_NE(perfbench::compare_runs(good, 1, good, 2), "");
  MechanismResult journal = good;
  journal.journal.back().removed_gsp ^= 1;
  EXPECT_NE(perfbench::compare_runs(good, 1, journal, 1), "");
}

}  // namespace
