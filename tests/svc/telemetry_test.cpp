/// Continuous telemetry on the formation service (DESIGN.md §4j).
/// Pinned here:
///   - telemetry options validate (window/capacity/SLO/JSONL coupling);
///   - telemetry OFF and ON produce bit-identical per-ticket outcomes,
///     RNG probes included — the observer-never-actor invariant;
///   - health() answers without telemetry (cumulative quantiles) and
///     with it (windowed rollup, windows_closed, SLO verdicts);
///   - the per-shard queue-depth gauges track admissions/drains and
///     return to zero once the service is drained;
///   - the JSONL sink receives one valid object per closed window.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/tvof.hpp"
#include "ip/bnb.hpp"
#include "obs/slo.hpp"
#include "svc/service.hpp"
#include "tests/ip/test_instances.hpp"
#include "tests/temp_path.hpp"
#include "trust/trust_graph.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace svo::svc {
namespace {

struct Fixture {
  ip::AssignmentInstance instance;
  trust::TrustGraph trust{0};
};

Fixture make_fixture(std::size_t m, std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  Fixture f;
  f.instance = ip::testing::random_instance(m, n, rng);
  f.trust = trust::random_trust_graph(m, /*p=*/0.4, rng);
  return f;
}

std::vector<obs::SloObjective> default_slos() {
  obs::SloObjective queue;
  queue.name = "queue_p99_us";
  queue.kind = obs::SloKind::QuantileBelow;
  queue.metric = "svc.queue_us";
  queue.threshold = 60'000'000.0;  // one minute: never violated here
  obs::SloObjective expired;
  expired.name = "expired_zero";
  expired.kind = obs::SloKind::CounterZero;
  expired.metric = "svc.expired";
  return {queue, expired};
}

TEST(TelemetryOptionsTest, WindowKnobsValidate) {
  ServiceOptions opt;
  opt.stats_window_seconds = -1.0;
  EXPECT_THROW(opt.validate(), InvalidArgument);
  opt.stats_window_seconds = 0.1;
  opt.stats_window_capacity = 0;
  EXPECT_THROW(opt.validate(), InvalidArgument);
  opt.stats_window_capacity = 4;
  EXPECT_NO_THROW(opt.validate());
}

TEST(TelemetryOptionsTest, SlosAndJsonlRequireTelemetryOn) {
  ServiceOptions opt;
  opt.slos = default_slos();
  EXPECT_THROW(opt.validate(), InvalidArgument);  // window is 0
  opt.slos.clear();
  opt.stats_jsonl_path = "/tmp/x.jsonl";
  EXPECT_THROW(opt.validate(), InvalidArgument);
  opt.stats_window_seconds = 0.1;
  EXPECT_NO_THROW(opt.validate());
  opt.slos = default_slos();
  EXPECT_NO_THROW(opt.validate());
  opt.slos.push_back(obs::SloObjective{});  // empty name: invalid
  EXPECT_THROW(opt.validate(), InvalidArgument);
}

TEST(ServiceTelemetryTest, OnOffOutcomesAreBitIdentical) {
  const Fixture f = make_fixture(6, 10, 99);
  const ip::BnbAssignmentSolver solver;
  const core::TvofMechanism tvof(solver);
  constexpr std::size_t kRequests = 24;

  const auto run = [&](bool telemetry) {
    ServiceOptions opt;
    opt.shards = 2;
    opt.threads = 2;
    if (telemetry) {
      opt.stats_window_seconds = 0.0005;  // sub-ms: many windows close
      opt.slos = default_slos();
    }
    FormationService service(tvof, opt);
    std::vector<RequestHandle> handles;
    for (std::size_t i = 0; i < kRequests; ++i) {
      util::Xoshiro256 rng(1000 + i);
      handles.push_back(
          service.submit(core::FormationRequest{f.instance, f.trust, rng}));
    }
    service.drain();
    std::vector<RequestOutcome> out;
    for (const RequestHandle& h : handles) {
      h.wait();
      out.push_back(h.outcome());
    }
    return out;
  };

  const std::vector<RequestOutcome> off = run(false);
  const std::vector<RequestOutcome> on = run(true);
  ASSERT_EQ(off.size(), on.size());
  for (std::size_t i = 0; i < off.size(); ++i) {
    SCOPED_TRACE("ticket " + std::to_string(i));
    EXPECT_EQ(off[i].state, on[i].state);
    EXPECT_EQ(off[i].attempts, on[i].attempts);
    EXPECT_EQ(off[i].rng_probe, on[i].rng_probe);  // RNG untouched
    EXPECT_EQ(off[i].result.selected.bits(), on[i].result.selected.bits());
    EXPECT_EQ(off[i].result.cost, on[i].result.cost);
    EXPECT_EQ(off[i].result.value, on[i].result.value);
  }
}

TEST(ServiceTelemetryTest, HealthWithoutTelemetryUsesCumulativeState) {
  const Fixture f = make_fixture(5, 8, 7);
  const ip::BnbAssignmentSolver solver;
  const core::TvofMechanism tvof(solver);
  FormationService service(tvof, {});
  for (std::size_t i = 0; i < 4; ++i) {
    util::Xoshiro256 rng(i);
    service.submit(core::FormationRequest{f.instance, f.trust, rng});
  }
  service.drain();
  const ServiceHealth h = service.health();
  EXPECT_FALSE(h.telemetry_enabled);
  EXPECT_EQ(h.windows_closed, 0u);
  EXPECT_EQ(h.outstanding, 0u);
  ASSERT_EQ(h.shards.size(), 1u);
  EXPECT_EQ(h.shards[0].queue_depth, 0u);
  EXPECT_EQ(h.shards[0].solved, 4u);
  EXPECT_GT(h.queue_p99_us, 0.0);  // cumulative histogram quantile
  EXPECT_TRUE(h.slos.empty());
  EXPECT_FALSE(h.overloaded);
}

TEST(ServiceTelemetryTest, HealthWithTelemetryReportsWindowsAndSlos) {
  const Fixture f = make_fixture(5, 8, 21);
  const ip::BnbAssignmentSolver solver;
  const core::TvofMechanism tvof(solver);
  ServiceOptions opt;
  opt.stats_window_seconds = 0.0005;
  opt.slos = default_slos();
  FormationService service(tvof, opt);
  for (std::size_t i = 0; i < 8; ++i) {
    util::Xoshiro256 rng(i);
    service.submit(core::FormationRequest{f.instance, f.trust, rng});
  }
  service.drain();
  // A fast drain can finish inside the first window; step past at least
  // one boundary so the health() sampler has something to close.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ServiceHealth h = service.health();
  EXPECT_TRUE(h.telemetry_enabled);
  EXPECT_GT(h.windows_closed, 0u);
  ASSERT_EQ(h.slos.size(), 2u);
  EXPECT_EQ(h.slos[0].name, "queue_p99_us");
  EXPECT_FALSE(h.slos[0].breached);  // one-minute bound can't violate
  EXPECT_EQ(h.slos[1].violations, 0u);  // nothing expired
  EXPECT_FALSE(service.health().overloaded);
}

TEST(ServiceTelemetryTest, QueueDepthGaugeTracksAdmissionsAndDrains) {
  const Fixture f = make_fixture(5, 8, 5);
  const ip::BnbAssignmentSolver solver;
  const core::TvofMechanism tvof(solver);
  ServiceOptions opt;
  opt.start_paused = true;
  opt.queue_capacity = 8;
  opt.batch_size = 8;
  FormationService service(tvof, opt);
  std::vector<RequestHandle> handles;
  for (std::size_t i = 0; i < 3; ++i) {
    util::Xoshiro256 rng(i);
    handles.push_back(
        service.submit(core::FormationRequest{f.instance, f.trust, rng}));
  }
  // Paused: nothing drains, the gauge is exactly the queued count.
  EXPECT_DOUBLE_EQ(service.metrics().gauge_value("svc.shard0.queue_depth"),
                   3.0);
  EXPECT_EQ(service.health().shards[0].queue_depth, 3u);
  ASSERT_TRUE(handles[2].cancel());
  EXPECT_DOUBLE_EQ(service.metrics().gauge_value("svc.shard0.queue_depth"),
                   2.0);
  service.resume();
  service.drain();
  EXPECT_DOUBLE_EQ(service.metrics().gauge_value("svc.shard0.queue_depth"),
                   0.0);
}

TEST(ServiceTelemetryTest, JsonlSinkReceivesClosedWindows) {
  const Fixture f = make_fixture(5, 8, 3);
  const ip::BnbAssignmentSolver solver;
  const core::TvofMechanism tvof(solver);
  const std::string path =
      svo::testing::unique_temp_path("svo_svc_windows_test", ".jsonl");
  std::filesystem::remove(path);
  {
    ServiceOptions opt;
    opt.stats_window_seconds = 0.0005;
    opt.stats_jsonl_path = path;
    FormationService service(tvof, opt);
    for (std::size_t i = 0; i < 6; ++i) {
      util::Xoshiro256 rng(i);
      service.submit(core::FormationRequest{f.instance, f.trust, rng});
    }
    service.drain();
  }  // destructor flushes the final partial window
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t lines = 0;
  bool saw_solver_runs = false;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"window\":"), std::string::npos);
    if (line.find("svc.solver_runs") != std::string::npos) {
      saw_solver_runs = true;
    }
    ++lines;
  }
  EXPECT_GT(lines, 0u);
  EXPECT_TRUE(saw_solver_runs);  // the six solves landed in some window
  std::filesystem::remove(path);
}

TEST(ServiceTelemetryTest, UnwritableJsonlPathThrows) {
  const ip::BnbAssignmentSolver solver;
  const core::TvofMechanism tvof(solver);
  ServiceOptions opt;
  opt.stats_window_seconds = 0.1;
  opt.stats_jsonl_path = "/nonexistent-dir/windows.jsonl";
  EXPECT_THROW(FormationService(tvof, opt), InvalidArgument);
}

}  // namespace
}  // namespace svo::svc
