/// Tests for the streaming grid economy (sim/stream_engine): option
/// validation, the churn-off bit-identical equivalence with the one-shot
/// sweep, same-seed replay determinism, the no-lost-requests invariant
/// under crash x leave churn, and both outcomes of mid-execution repair.
#include "sim/stream_engine.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "sim/runner.hpp"

namespace svo::sim {
namespace {

ExperimentConfig tiny_config() {
  ExperimentConfig cfg;
  cfg.trace.num_jobs = 3000;
  cfg.trace.min_jobs_per_canonical_size = 4;
  cfg.trace.canonical_sizes = {24, 48};
  cfg.task_sizes = {24, 48};
  cfg.repetitions = 3;
  cfg.gen.params.num_gsps = 5;
  cfg.solver.max_nodes = 2000;
  return cfg;
}

/// Churn-off, unbounded deadlines, instantaneous executions: requests
/// never contend and every formation sees the grand coalition.
StreamOptions oneshot_equivalent_options() {
  StreamOptions opts;
  opts.base = tiny_config();
  opts.num_requests = 6;
  opts.arrival_interval_seconds = 60.0;
  opts.formation_seconds = 1.0;
  opts.execution_time_scale = 0.0;
  return opts;
}

StreamOptions churny_options() {
  StreamOptions opts;
  opts.base = tiny_config();
  opts.num_requests = 6;
  opts.arrival_interval_seconds = 60.0;
  opts.formation_seconds = 2.0;
  opts.formation_deadline_seconds = 240.0;
  opts.retry_backoff_seconds = 15.0;
  opts.max_attempts = 4;
  opts.admission_floor = 2;
  opts.execution_time_scale = 0.01;
  opts.churn.leave_rate = 1.0 / 200.0;
  opts.churn.crash_rate = 1.0 / 150.0;
  opts.churn.mean_absence_seconds = 100.0;
  opts.churn.seed = 17;
  return opts;
}

TEST(StreamOptionsTest, ValidatesKnobs) {
  StreamOptions opts = oneshot_equivalent_options();
  opts.num_requests = 0;
  EXPECT_THROW(opts.validate(), InvalidArgument);
  opts = oneshot_equivalent_options();
  opts.arrival_interval_seconds = 0.0;
  EXPECT_THROW(opts.validate(), InvalidArgument);
  opts = oneshot_equivalent_options();
  opts.formation_deadline_seconds = 0.0;
  EXPECT_THROW(opts.validate(), InvalidArgument);
  opts = oneshot_equivalent_options();
  opts.admission_floor = opts.base.gen.params.num_gsps + 1;
  EXPECT_THROW(opts.validate(), InvalidArgument);
  opts = oneshot_equivalent_options();
  opts.retry_backoff_multiplier = 0.5;
  EXPECT_THROW(opts.validate(), InvalidArgument);
  opts = oneshot_equivalent_options();
  opts.execution_time_scale = -1.0;
  EXPECT_THROW(opts.validate(), InvalidArgument);
  opts = oneshot_equivalent_options();
  opts.churn.leave_rate = -0.5;
  EXPECT_THROW(opts.validate(), InvalidArgument);
  opts = oneshot_equivalent_options();
  opts.base.task_sizes.clear();
  EXPECT_THROW(opts.validate(), InvalidArgument);
  EXPECT_NO_THROW(oneshot_equivalent_options().validate());
  EXPECT_NO_THROW(churny_options().validate());
}

void expect_same_formation(const core::MechanismResult& a,
                           const core::MechanismResult& b) {
  ASSERT_EQ(a.success, b.success);
  EXPECT_EQ(a.selected.bits(), b.selected.bits());
  EXPECT_EQ(a.mapping, b.mapping);
  EXPECT_DOUBLE_EQ(a.cost, b.cost);
  EXPECT_DOUBLE_EQ(a.value, b.value);
  EXPECT_DOUBLE_EQ(a.payoff_share, b.payoff_share);
  EXPECT_DOUBLE_EQ(a.avg_global_reputation, b.avg_global_reputation);
  // The removal sequence pins the mechanism's RNG consumption draw for
  // draw: any extra or reordered draw changes some removed_gsp.
  ASSERT_EQ(a.journal.size(), b.journal.size());
  for (std::size_t i = 0; i < a.journal.size(); ++i) {
    EXPECT_EQ(a.journal[i].removed_gsp, b.journal[i].removed_gsp);
    EXPECT_EQ(a.journal[i].coalition.bits(), b.journal[i].coalition.bits());
  }
}

/// Guarantee (1): the streaming economy with churn off is a strict
/// superset of the one-shot sweep — per request, the committed
/// MechanismResult is bit-identical to ExperimentRunner::run_pair on the
/// scenario the request id maps to.
TEST(StreamEngineTest, ChurnOffStreamingIsBitIdenticalToOneShotSweep) {
  for (const MechanismKind kind : {MechanismKind::Tvof, MechanismKind::Rvof}) {
    StreamOptions opts = oneshot_equivalent_options();
    opts.mechanism = kind;
    const StreamEngine engine(opts);
    const StreamResult result = engine.run();

    ASSERT_EQ(result.admitted, opts.num_requests);
    EXPECT_EQ(result.lost, 0u);
    EXPECT_TRUE(result.churn_schedule.empty());

    const ExperimentRunner runner(tiny_config());
    const std::size_t num_sizes = opts.base.task_sizes.size();
    for (const StreamRequestResult& rr : result.requests) {
      const Scenario scenario =
          runner.scenarios().make(opts.base.task_sizes[rr.id % num_sizes],
                                  rr.id / num_sizes);
      const ExperimentRunner::PairResult pair = runner.run_pair(scenario);
      const core::MechanismResult& oneshot =
          kind == MechanismKind::Tvof ? pair.tvof : pair.rvof;
      if (!oneshot.success) {
        EXPECT_NE(rr.outcome, RequestOutcome::Completed);
        continue;
      }
      ASSERT_EQ(rr.outcome, RequestOutcome::Completed);
      EXPECT_EQ(rr.attempts, 1u);
      EXPECT_EQ(rr.repair_rounds, 0u);
      EXPECT_DOUBLE_EQ(rr.realized_value, oneshot.value);
      expect_same_formation(rr.formation, oneshot);
    }
    EXPECT_DOUBLE_EQ(result.completion_rate, 1.0);
    EXPECT_DOUBLE_EQ(result.deadline_miss_rate, 0.0);
  }
}

TEST(StreamEngineTest, SameSeedReplaysIdenticalTimelines) {
  const StreamEngine engine(churny_options());
  const StreamResult a = engine.run();
  const StreamResult b = engine.run();
  EXPECT_EQ(a.churn_schedule, b.churn_schedule);
  ASSERT_EQ(a.timeline.size(), b.timeline.size());
  EXPECT_EQ(a.timeline, b.timeline);

  // A fresh engine over the same options replays too.
  const StreamResult c = StreamEngine(churny_options()).run();
  EXPECT_EQ(a.timeline, c.timeline);

  // And a different churn seed produces a different event timeline.
  StreamOptions other = churny_options();
  other.churn.seed ^= 1;
  EXPECT_NE(StreamEngine(other).run().timeline, a.timeline);
}

/// The no-deadlock / no-lost-requests invariant: under nonzero
/// crash x leave churn every admitted request reaches a terminal state
/// and the outcome counts partition the admitted set.
TEST(StreamEngineTest, EveryAdmittedRequestTerminatesUnderChurn) {
  const StreamResult result = StreamEngine(churny_options()).run();
  ASSERT_EQ(result.admitted, 6u);
  EXPECT_EQ(result.lost, 0u);
  EXPECT_EQ(result.completed + result.repaired + result.shed +
                result.timed_out,
            result.admitted);
  for (const StreamRequestResult& rr : result.requests) {
    EXPECT_NE(rr.outcome, RequestOutcome::Pending);
    EXPECT_GE(rr.terminal_time, rr.arrival_time);
  }
  EXPECT_GE(result.completion_rate, 0.0);
  EXPECT_LE(result.completion_rate, 1.0);
  EXPECT_LE(result.deadline_miss_rate, 1.0);
  EXPECT_FALSE(result.timeline.empty());
}

/// Engine-level satellite regression: quarantine activations equal the
/// rejoins the timeline shows — one per GspRejoined event, never more.
TEST(StreamEngineTest, QuarantineActivatesExactlyOncePerRejoin) {
  StreamOptions opts = churny_options();
  opts.base.mechanism.reputation.robust.enabled = true;
  const StreamResult result = StreamEngine(opts).run();
  std::map<std::size_t, std::size_t> rejoins;
  for (const StreamLogEntry& e : result.timeline) {
    if (e.kind == StreamEventKind::GspRejoined) ++rejoins[e.gsp];
  }
  EXPECT_EQ(result.quarantine_activations, rejoins);
}

TEST(StreamEngineTest, StreamingAtlasIngestCompletesWithoutChurn) {
  StreamOptions opts;
  opts.base = tiny_config();
  opts.ingest = StreamOptions::Ingest::StreamingAtlas;
  opts.num_requests = 3;
  opts.max_stream_tasks = 64;
  opts.execution_time_scale = 0.0;
  const StreamResult result = StreamEngine(opts).run();
  ASSERT_GT(result.admitted, 0u);
  EXPECT_EQ(result.lost, 0u);
  for (const StreamRequestResult& rr : result.requests) {
    EXPECT_LE(rr.num_tasks, 64u);
    EXPECT_NE(rr.outcome, RequestOutcome::Pending);
  }
  // Deterministic too: the ingest consumes the chunked stream in order.
  EXPECT_EQ(StreamEngine(opts).run().timeline, result.timeline);
}

TEST(StreamEngineTest, AdmissionControlShedsBelowFloor) {
  // Floor above what churn can sustain: with every GSP crashed before
  // the first arrival, all requests are shed at admission.
  StreamOptions opts = oneshot_equivalent_options();
  opts.admission_floor = 5;
  opts.churn.crash_rate = 10.0;  // everyone crashes almost immediately
  opts.churn.rejoin_probability = 0.0;
  opts.churn.seed = 3;
  const StreamResult result = StreamEngine(opts).run();
  EXPECT_EQ(result.lost, 0u);
  EXPECT_GT(result.shed, 0u);
  for (const StreamRequestResult& rr : result.requests) {
    EXPECT_NE(rr.outcome, RequestOutcome::Pending);
  }
}

// ------------------------------------------- mid-execution repair

/// One request on 8 GSPs; churn seed 1 crashes a member of its committed
/// VO mid-execution (no rejoins), which sends the engine into repair().
StreamOptions mid_execution_crash_options() {
  StreamOptions opts;
  opts.base = tiny_config();
  opts.base.gen.params.num_gsps = 8;
  opts.num_requests = 1;
  opts.churn.crash_rate = 1e-4;
  opts.churn.rejoin_probability = 0.0;
  opts.churn.seed = 1;
  return opts;
}

/// The request's own events, in timeline order.
std::vector<StreamEventKind> request_events(const StreamResult& result,
                                            std::size_t request) {
  std::vector<StreamEventKind> kinds;
  for (const StreamLogEntry& e : result.timeline) {
    if (e.request == request) kinds.push_back(e.kind);
  }
  return kinds;
}

/// The GSP whose crash started the (first) repair.
std::size_t crashed_member(const StreamResult& result) {
  std::size_t gsp = SIZE_MAX;
  for (const StreamLogEntry& e : result.timeline) {
    if (e.kind == StreamEventKind::GspCrashed) gsp = e.gsp;
    if (e.kind == StreamEventKind::RepairStarted) break;
  }
  return gsp;
}

/// The broken attempt: the first formation runs at t = 0 over the whole
/// pool, before any churn, so it is the churn-off run's formation.
core::MechanismResult broken_attempt(const StreamOptions& opts) {
  StreamOptions calm = opts;
  calm.churn = {};
  return StreamEngine(calm).run().requests.at(0).formation;
}

TEST(StreamEngineRepairTest, MidExecutionCrashIsRepairedOverSurvivors) {
  const StreamOptions opts = mid_execution_crash_options();
  const StreamResult result = StreamEngine(opts).run();
  ASSERT_EQ(result.requests.size(), 1u);
  const StreamRequestResult& rr = result.requests[0];
  EXPECT_EQ(rr.outcome, RequestOutcome::Repaired);
  EXPECT_EQ(result.repaired, 1u);
  ASSERT_EQ(rr.repair_rounds, 1u);
  EXPECT_EQ(rr.attempts, 1u);
  EXPECT_EQ(request_events(result, 0),
            (std::vector<StreamEventKind>{
                StreamEventKind::RequestArrival,
                StreamEventKind::FormationStart,
                StreamEventKind::FormationCommit,
                StreamEventKind::RepairStarted,
                StreamEventKind::ExecutionCompleted}));

  const core::MechanismResult broken = broken_attempt(opts);
  ASSERT_TRUE(broken.success);
  const std::size_t crashed = crashed_member(result);
  EXPECT_TRUE(broken.selected.contains(crashed));
  EXPECT_FALSE(rr.formation.selected.contains(crashed));
  // v(C) of the repaired VO minus the sunk cost of the broken attempt.
  EXPECT_EQ(rr.realized_value, rr.formation.value - broken.cost);

  const StreamResult replay = StreamEngine(opts).run();
  EXPECT_EQ(replay.timeline, result.timeline);
  EXPECT_EQ(replay.requests[0].realized_value, rr.realized_value);
}

TEST(StreamEngineRepairTest, ExhaustedRepairBudgetFailsThenRetries) {
  StreamOptions opts = mid_execution_crash_options();
  opts.max_repair_rounds = 0;
  const StreamResult result = StreamEngine(opts).run();
  ASSERT_EQ(result.requests.size(), 1u);
  const StreamRequestResult& rr = result.requests[0];
  EXPECT_EQ(result.lost, 0u);
  EXPECT_EQ(rr.repair_rounds, 1u);
  EXPECT_EQ(rr.attempts, 2u);
  // The failed repair releases the VO and schedules a fresh attempt,
  // which forms and commits a new VO over the survivors.
  EXPECT_EQ(request_events(result, 0),
            (std::vector<StreamEventKind>{
                StreamEventKind::RequestArrival,
                StreamEventKind::FormationStart,
                StreamEventKind::FormationCommit,
                StreamEventKind::RepairStarted,
                StreamEventKind::RepairFailed,
                StreamEventKind::FormationStart,
                StreamEventKind::FormationCommit,
                StreamEventKind::ExecutionCompleted}));
  // A request that lived through a repair round reports Repaired, and
  // the broken attempt's cost stays sunk across the retry.
  EXPECT_EQ(rr.outcome, RequestOutcome::Repaired);
  EXPECT_FALSE(rr.formation.selected.contains(crashed_member(result)));
  EXPECT_EQ(rr.realized_value,
            rr.formation.value - broken_attempt(opts).cost);

  const StreamResult replay = StreamEngine(opts).run();
  EXPECT_EQ(replay.timeline, result.timeline);
  EXPECT_EQ(replay.requests[0].realized_value, rr.realized_value);
}

// ------------------------------------------- continuous telemetry (§4j)

StreamOptions telemetry_options() {
  StreamOptions opts = churny_options();
  opts.stats_window_seconds = 120.0;
  obs::SloObjective latency;
  latency.name = "commit_latency_p99";
  latency.kind = obs::SloKind::QuantileBelow;
  latency.metric = "stream.formation_latency_s";
  latency.quantile = 0.99;
  latency.threshold = 10.0 * opts.arrival_interval_seconds;
  obs::SloObjective shed;
  shed.name = "shed_zero";
  shed.kind = obs::SloKind::CounterZero;
  shed.metric = "stream.request_shed";
  opts.slos = {latency, shed};
  return opts;
}

TEST(StreamTelemetryTest, OptionsValidateWindowKnobs) {
  StreamOptions opts = telemetry_options();
  EXPECT_NO_THROW(opts.validate());
  opts.stats_window_seconds = -1.0;
  EXPECT_THROW(opts.validate(), InvalidArgument);
  opts = telemetry_options();
  opts.stats_window_capacity = 0;
  EXPECT_THROW(opts.validate(), InvalidArgument);
  opts = telemetry_options();
  opts.stats_window_seconds = 0.0;  // SLOs without telemetry
  EXPECT_THROW(opts.validate(), InvalidArgument);
}

TEST(StreamTelemetryTest, TelemetryOffRunIsBitIdentical) {
  StreamOptions with = telemetry_options();
  StreamOptions without = churny_options();
  const StreamResult on = StreamEngine(with).run();
  const StreamResult off = StreamEngine(without).run();
  // The observer never acts: identical timelines, horizons and
  // per-request terminal states whether windows close or not.
  EXPECT_EQ(on.timeline, off.timeline);
  EXPECT_EQ(on.horizon, off.horizon);
  ASSERT_EQ(on.requests.size(), off.requests.size());
  for (std::size_t i = 0; i < on.requests.size(); ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    EXPECT_EQ(on.requests[i].outcome, off.requests[i].outcome);
    EXPECT_EQ(on.requests[i].attempts, off.requests[i].attempts);
    EXPECT_EQ(on.requests[i].terminal_time, off.requests[i].terminal_time);
    EXPECT_EQ(on.requests[i].realized_value, off.requests[i].realized_value);
  }
  EXPECT_TRUE(off.windows.empty());
  EXPECT_TRUE(off.slo_status.empty());
  EXPECT_FALSE(on.windows.empty());
}

TEST(StreamTelemetryTest, SameSeedReplaysIdenticalWindowsAndVerdicts) {
  const StreamEngine engine(telemetry_options());
  const StreamResult a = engine.run();
  const StreamResult b = engine.run();
  ASSERT_FALSE(a.windows.empty());
  EXPECT_EQ(a.windows, b.windows);  // window-for-window bit equality
  EXPECT_EQ(a.slo_status, b.slo_status);
}

TEST(StreamTelemetryTest, WindowsPartitionVirtualTimeAndEvents) {
  const StreamOptions opts = telemetry_options();
  const StreamResult r = StreamEngine(opts).run();
  ASSERT_FALSE(r.windows.empty());
  std::uint64_t arrivals = 0;
  double prev_end = 0.0;
  for (std::size_t i = 0; i < r.windows.size(); ++i) {
    const obs::Window& w = r.windows[i];
    EXPECT_DOUBLE_EQ(w.start_time, prev_end);
    if (i + 1 < r.windows.size()) {
      EXPECT_DOUBLE_EQ(w.end_time, prev_end + opts.stats_window_seconds);
    } else {
      // The tail window is the end-of-run partial flush: it closes at
      // the horizon, not at the next window boundary.
      EXPECT_GT(w.end_time, w.start_time);
      EXPECT_LE(w.end_time, prev_end + opts.stats_window_seconds);
    }
    prev_end = w.end_time;
    arrivals += w.counter("stream.request_arrival");
  }
  // Ring big enough to retain everything: window deltas must conserve
  // the event totals (every arrival lands in exactly one window).
  EXPECT_EQ(arrivals, static_cast<std::uint64_t>(opts.num_requests));
  // The final window must cover the horizon (lazy advancement still
  // closes the tail at end of run).
  EXPECT_GE(r.windows.back().end_time,
            r.horizon - opts.stats_window_seconds);
}

TEST(StreamTelemetryTest, SloVerdictsReflectTheRun) {
  const StreamResult r = StreamEngine(telemetry_options()).run();
  ASSERT_EQ(r.slo_status.size(), 2u);
  EXPECT_EQ(r.slo_status[0].name, "commit_latency_p99");
  EXPECT_EQ(r.slo_status[1].name, "shed_zero");
  const std::uint64_t closed = r.windows.empty()
                                   ? 0
                                   : r.windows.back().index + 1;
  EXPECT_EQ(r.slo_status[0].windows, closed);
  // shed_zero violations == windows that actually saw a shed event.
  std::uint64_t shed_windows = 0;
  for (const obs::Window& w : r.windows) {
    if (w.counter("stream.request_shed") > 0) ++shed_windows;
  }
  EXPECT_EQ(r.slo_status[1].violations, shed_windows);
}

TEST(ToStringTest, OutcomeAndEventNames) {
  EXPECT_STREQ(to_string(RequestOutcome::Completed), "completed");
  EXPECT_STREQ(to_string(RequestOutcome::Repaired), "repaired");
  EXPECT_STREQ(to_string(RequestOutcome::Shed), "shed");
  EXPECT_STREQ(to_string(RequestOutcome::TimedOut), "timed_out");
  EXPECT_STREQ(to_string(StreamEventKind::FormationCommit),
               "formation_commit");
  EXPECT_STREQ(to_string(StreamEventKind::GspRejoined), "gsp_rejoined");
}

}  // namespace
}  // namespace svo::sim
