/// Seeding coalitions ahead changes no output (DESIGN.md §4c): the value
/// function's prepared evaluations equal sequential ones field for field
/// at every lookahead depth, dropped preparations are cancelled and never
/// reach a solve, and mechanism runs on pool workers, where the seed is
/// computed inline, complete and match the pipelined and sequential runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <future>
#include <latch>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/tvof.hpp"
#include "game/value_function.hpp"
#include "ip/bnb.hpp"
#include "tests/ip/test_instances.hpp"
#include "trust/reputation.hpp"
#include "trust/trust_graph.hpp"
#include "util/thread_pool.hpp"

namespace svo::core {
namespace {

using Rule =
    std::function<std::size_t(const std::vector<double>&, util::Xoshiro256&)>;

/// TVOF's removal rule: lowest score, ties within 1e-12 drawn uniformly.
std::size_t lowest_score(const std::vector<double>& scores,
                         util::Xoshiro256& rng) {
  double lowest = std::numeric_limits<double>::infinity();
  for (const double s : scores) lowest = std::min(lowest, s);
  std::vector<std::size_t> ties;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    if (scores[i] <= lowest + 1e-12) ties.push_back(i);
  }
  return ties[ties.size() == 1 ? 0 : rng.index(ties.size())];
}

/// RVOF's removal rule: uniformly random.
std::size_t uniform_pick(const std::vector<double>& scores,
                         util::Xoshiro256& rng) {
  return rng.index(scores.size());
}

struct Chain {
  std::vector<game::Coalition> coalitions;
  std::vector<game::CoalitionEvaluation> evaluations;
  std::uint64_t rng_probe = 0;
  std::size_t seeded_ahead = 0;
};

/// The `depth` coalitions the loop evaluates after `c` (fewer when it
/// reaches one GSP), predicted as the mechanism does: on one copy of the
/// RNG, advanced through the predicted picks.
std::vector<game::Coalition> predict_chain(
    game::Coalition c, std::size_t depth, const util::Xoshiro256& rng,
    const trust::TrustGraph& trust, const trust::ReputationEngine& engine,
    const Rule& rule) {
  util::Xoshiro256 copy = rng;
  std::vector<game::Coalition> chain;
  while (chain.size() < depth && c.size() > 1) {
    const std::vector<std::size_t> members = c.members();
    c = c.without(members[rule(engine.compute(trust, members).scores, copy)]);
    chain.push_back(c);
  }
  return chain;
}

/// Algorithm 1's warm chain driven through the value function. With
/// `depth` > 0, each evaluation names the next `depth` coalitions.
Chain run_chain(const ip::AssignmentInstance& inst,
                const trust::TrustGraph& trust,
                const ip::AssignmentSolver& solver, const Rule& rule,
                std::uint64_t seed, std::size_t depth) {
  const game::VoValueFunction v(inst, solver);
  const trust::ReputationEngine engine(trust::ReputationOptions{});
  util::Xoshiro256 rng(seed);
  game::Coalition c = game::Coalition::all(inst.num_gsps());
  game::WarmHint hint;
  Chain out;
  for (;;) {
    const std::vector<std::size_t> members = c.members();
    const std::vector<double> scores = engine.compute(trust, members).scores;
    hint.chain = predict_chain(c, depth, rng, trust, engine, rule);
    const game::CoalitionEvaluation& eval = v.evaluate(c, hint);
    out.coalitions.push_back(c);
    out.evaluations.push_back(eval);
    if (!eval.feasible || c.size() == 1) break;
    const std::size_t removed = members[rule(scores, rng)];
    hint.previous = &eval;
    hint.removed_gsp = removed;
    c = c.without(removed);
  }
  out.rng_probe = rng();
  out.seeded_ahead = v.seeded_ahead();
  return out;
}

void expect_same_chain(const Chain& seq, const Chain& ahead) {
  ASSERT_EQ(ahead.coalitions.size(), seq.coalitions.size());
  for (std::size_t i = 0; i < seq.coalitions.size(); ++i) {
    SCOPED_TRACE("evaluation " + std::to_string(i));
    const game::CoalitionEvaluation& a = ahead.evaluations[i];
    const game::CoalitionEvaluation& s = seq.evaluations[i];
    EXPECT_EQ(ahead.coalitions[i], seq.coalitions[i]);
    EXPECT_EQ(a.feasible, s.feasible);
    EXPECT_EQ(a.value, s.value);  // exact
    EXPECT_EQ(a.cost, s.cost);
    EXPECT_EQ(a.mapping, s.mapping);
    EXPECT_EQ(a.stats.status, s.stats.status);
    EXPECT_EQ(a.stats.nodes, s.stats.nodes);
    EXPECT_EQ(a.stats.warm_start_used, s.stats.warm_start_used);
    EXPECT_EQ(a.stats.incumbent_reused_cost, s.stats.incumbent_reused_cost);
    EXPECT_EQ(a.stats.repair_moves, s.stats.repair_moves);
  }
  EXPECT_EQ(ahead.rng_probe, seq.rng_probe);
  EXPECT_EQ(seq.seeded_ahead, 0u);
  if (util::ThreadPool::global().size() >= 2) {
    // Every evaluation after the first used the seed computed ahead.
    EXPECT_EQ(ahead.seeded_ahead, ahead.coalitions.size() - 1);
  }
}

TEST(PipelineTest, PreparedEvaluationsEqualSequentialOnes) {
  // Small budgets leave most answers truncated, so they are the seeds'
  // own: a seed handed over for the wrong instance would show.
  ip::BnbOptions tight_budget;
  tight_budget.max_nodes = 60;
  tight_budget.warm_max_nodes = 20;
  const ip::BnbAssignmentSolver budgeted(tight_budget);
  const ip::BnbAssignmentSolver exact;
  const std::pair<const char*, Rule> rules[] = {{"TVOF", lowest_score},
                                               {"RVOF", uniform_pick}};
  for (const std::size_t k : {2, 3, 5, 8}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      util::Xoshiro256 setup(seed * 31 + k);
      const ip::AssignmentInstance inst =
          ip::testing::random_instance(k, 3 * k + 4, setup, seed % 2 == 0);
      const trust::TrustGraph trust = trust::random_trust_graph(k, 0.4, setup);
      for (const auto& [name, rule] : rules) {
        for (const ip::BnbAssignmentSolver* solver : {&budgeted, &exact}) {
          SCOPED_TRACE(std::string(name) + " k=" + std::to_string(k) +
                       " seed " + std::to_string(seed) +
                       (solver == &exact ? " exact" : " budgeted"));
          expect_same_chain(
              run_chain(inst, trust, *solver, rule, seed, 0),
              run_chain(inst, trust, *solver, rule, seed, 1));
        }
      }
    }
  }
}

TEST(PipelineTest, HintNextMustBeTheCoalitionMinusOneMember) {
  util::Xoshiro256 setup(7);
  const ip::AssignmentInstance inst = ip::testing::random_instance(4, 9, setup);
  const ip::BnbAssignmentSolver solver;
  const game::VoValueFunction v(inst, solver);
  game::WarmHint hint;
  hint.chain = {game::Coalition::of({0, 1})};
  EXPECT_THROW((void)v.evaluate(game::Coalition::all(4), hint),
               InvalidArgument);
  hint.chain = {game::Coalition::of({0, 1, 2, 3})};
  EXPECT_THROW((void)v.evaluate(game::Coalition::of({0, 1, 2}), hint),
               InvalidArgument);
}

/// Forwards every solve and counts the calls: a solver the value
/// function cannot seed ahead for, so runs through it are sequential.
class Forwarding final : public ip::AssignmentSolver {
 public:
  explicit Forwarding(const ip::AssignmentSolver& inner) : inner_(inner) {}
  ip::AssignmentSolution solve(
      const ip::AssignmentInstance& inst) const override {
    ++calls_;
    return inner_.solve(inst);
  }
  ip::AssignmentSolution solve(const ip::AssignmentInstance& inst,
                               const ip::WarmStart& warm) const override {
    ++calls_;
    return inner_.solve(inst, warm);
  }
  std::string name() const override { return inner_.name(); }
  std::size_t calls() const noexcept { return calls_; }

 private:
  const ip::AssignmentSolver& inner_;
  mutable std::atomic<std::size_t> calls_{0};
};

struct Outcome {
  MechanismResult result;
  std::uint64_t rng_probe = 0;
};

Outcome run_tvof(const ip::AssignmentSolver& solver,
                 const ip::AssignmentInstance& inst,
                 const trust::TrustGraph& trust, std::uint64_t seed) {
  const TvofMechanism tvof(solver);
  util::Xoshiro256 rng(seed);
  Outcome out;
  out.result = tvof.run(FormationRequest{inst, trust, rng});
  out.rng_probe = rng();
  return out;
}

void expect_same_run(const Outcome& want, const Outcome& got) {
  EXPECT_EQ(got.result.success, want.result.success);
  EXPECT_EQ(got.result.selected, want.result.selected);
  EXPECT_EQ(got.result.mapping, want.result.mapping);
  EXPECT_EQ(got.result.cost, want.result.cost);  // exact
  ASSERT_EQ(got.result.journal.size(), want.result.journal.size());
  for (std::size_t i = 0; i < want.result.journal.size(); ++i) {
    SCOPED_TRACE("iteration " + std::to_string(i));
    const IterationRecord& g = got.result.journal[i];
    const IterationRecord& w = want.result.journal[i];
    EXPECT_EQ(g.coalition, w.coalition);
    EXPECT_EQ(g.feasible, w.feasible);
    EXPECT_EQ(g.cost, w.cost);
    EXPECT_EQ(g.removed_gsp, w.removed_gsp);
    EXPECT_EQ(g.avg_local_reputation, w.avg_local_reputation);
    EXPECT_EQ(g.stats.status, w.stats.status);
    EXPECT_EQ(g.stats.nodes, w.stats.nodes);
  }
  EXPECT_EQ(got.rng_probe, want.rng_probe);
}

TEST(PipelineTest, PoolWorkersRunPipelineSizedRequestsInline) {
  // 4096 tasks: every coalition of 4 or more GSPs is at or above the
  // mechanism's lookahead threshold of 16 384 cells.
  util::Xoshiro256 setup(2024);
  const ip::AssignmentInstance inst =
      ip::testing::random_instance(16, 4096, setup, true);
  const trust::TrustGraph trust = trust::random_trust_graph(16, 0.4, setup);
  ip::BnbOptions opts;
  opts.max_nodes = 3000;
  opts.warm_max_nodes = 500;
  const ip::BnbAssignmentSolver solver(opts);
  const Forwarding sequential(solver);
  const Outcome want = run_tvof(sequential, inst, trust, 11);
  ASSERT_GT(want.result.journal.size(), 1u);
  {
    SCOPED_TRACE("pipelined on the calling thread");
    expect_same_run(want, run_tvof(solver, inst, trust, 11));
  }

  // One request per worker, all in flight at once: a worker waiting on
  // a seed queued behind the other requests would never be served.
  util::ThreadPool& pool = util::ThreadPool::global();
  std::latch all_running(static_cast<std::ptrdiff_t>(pool.size()));
  std::vector<std::future<Outcome>> runs;
  for (std::size_t w = 0; w < pool.size(); ++w) {
    runs.push_back(pool.submit([&] {
      all_running.arrive_and_wait();
      return run_tvof(solver, inst, trust, 11);
    }));
  }
  for (std::size_t w = 0; w < runs.size(); ++w) {
    SCOPED_TRACE("on worker " + std::to_string(w));
    expect_same_run(want, runs[w].get());
  }
}

TEST(PipelineTest, EveryLookaheadDepthEqualsTheSequentialChain) {
  // Depths 1 .. pool - 1, and one past what the value function seeds
  // (it caps the chain at lookahead_depth()). Tight instances end most
  // chains on an infeasible coalition with more prepared behind it.
  ip::BnbOptions tight_budget;
  tight_budget.max_nodes = 60;
  tight_budget.warm_max_nodes = 20;
  const ip::BnbAssignmentSolver budgeted(tight_budget);
  const ip::BnbAssignmentSolver exact;
  const std::size_t deepest =
      std::max<std::size_t>(util::ThreadPool::global().size(), 2);
  std::size_t ended_inside_window = 0;
  for (std::size_t depth = 1; depth <= deepest; ++depth) {
    for (const std::size_t k : {3, 6, 9}) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        util::Xoshiro256 setup(seed * 53 + k);
        const ip::AssignmentInstance inst =
            ip::testing::random_instance(k, 2 * k + 5, setup, true);
        const trust::TrustGraph trust =
            trust::random_trust_graph(k, 0.4, setup);
        for (const ip::BnbAssignmentSolver* solver : {&budgeted, &exact}) {
          SCOPED_TRACE("depth " + std::to_string(depth) + " k=" +
                       std::to_string(k) + " seed " + std::to_string(seed) +
                       (solver == &exact ? " exact" : " budgeted"));
          const Chain seq = run_chain(inst, trust, *solver, lowest_score,
                                      seed, 0);
          expect_same_chain(seq, run_chain(inst, trust, *solver,
                                           lowest_score, seed, depth));
          if (depth >= 2 && seq.coalitions.back().size() > 1) {
            ++ended_inside_window;
          }
        }
      }
    }
  }
  EXPECT_GT(ended_inside_window, 0u);
}

TEST(PipelineTest, DroppedPreparationsAreCancelledAndNeverSeedASolve) {
  if (util::ThreadPool::global().size() < 2) {
    GTEST_SKIP() << "nothing is prepared without a second pool worker";
  }
  // Large enough that the dropped seeds are still running.
  util::Xoshiro256 setup(99);
  const ip::AssignmentInstance inst =
      ip::testing::random_instance(8, 4096, setup, true);
  ip::BnbOptions opts;
  opts.max_nodes = 2000;
  opts.warm_max_nodes = 200;
  const ip::BnbAssignmentSolver solver(opts);
  const game::Coalition all = game::Coalition::all(8);
  const game::Coalition child = all.without(7);
  game::WarmHint ahead;
  ahead.chain = {child, child.without(6), child.without(6).without(5)};

  const game::VoValueFunction seq(inst, solver);
  game::WarmHint warm;
  warm.previous = &seq.evaluate(all);
  warm.removed_gsp = 7;
  const game::CoalitionEvaluation want = seq.evaluate(child, warm);

  const game::VoValueFunction v(inst, solver);
  warm.previous = &v.evaluate(all, ahead);
  EXPECT_EQ(v.seeded_ahead(), 0u);
  // A coalition off the chain drops every prepared one.
  (void)v.evaluate(game::Coalition::of({0, 1, 2}));
  const game::CoalitionEvaluation& got = v.evaluate(child, warm);
  EXPECT_EQ(v.seeded_ahead(), 0u);  // solved with its own seed
  EXPECT_EQ(got.feasible, want.feasible);
  EXPECT_EQ(got.cost, want.cost);
  EXPECT_EQ(got.mapping, want.mapping);
  EXPECT_EQ(got.stats.status, want.stats.status);
  EXPECT_EQ(got.stats.nodes, want.stats.nodes);
  EXPECT_EQ(got.stats.repair_moves, want.stats.repair_moves);

  // Prepared again, then dropped by the destructor while seeding.
  game::WarmHint again;
  again.chain = {child.without(6), child.without(6).without(5)};
  const game::VoValueFunction dropped(inst, solver);
  (void)dropped.evaluate(child, again);
}

TEST(PipelineTest, DecoratorsSeeOneSolvePerJournalEntry) {
  // A decorator is not the B&B solver, so nothing is prepared for it:
  // it sees every coalition's solve through solve(), once.
  util::Xoshiro256 setup(404);
  const ip::AssignmentInstance inst =
      ip::testing::random_instance(16, 2048, setup, true);
  const trust::TrustGraph trust = trust::random_trust_graph(16, 0.4, setup);
  ip::BnbOptions opts;
  opts.max_nodes = 2000;
  opts.warm_max_nodes = 300;
  const ip::BnbAssignmentSolver solver(opts);
  const Forwarding decorated(solver);
  const Outcome got = run_tvof(decorated, inst, trust, 5);
  ASSERT_GT(got.result.journal.size(), 1u);
  EXPECT_EQ(decorated.calls(), got.result.journal.size());
  expect_same_run(run_tvof(solver, inst, trust, 5), got);

  const std::size_t workers = util::ThreadPool::global().size();
  EXPECT_EQ(game::VoValueFunction(inst, decorated).lookahead_depth(), 0u);
  EXPECT_EQ(game::VoValueFunction(inst, solver).lookahead_depth(),
            workers >= 2 ? workers - 1 : 0);
}

}  // namespace
}  // namespace svo::core
