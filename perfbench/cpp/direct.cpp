/// \file direct.cpp
/// Closed-loop workloads: one caller, direct TvofMechanism::run.
#include <algorithm>
#include <memory>
#include <string>

#include "core/tvof.hpp"
#include "ip/bnb.hpp"
#include "layers.hpp"
#include "sim/scenario.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using svo::core::FormationRequest;
using svo::core::MechanismResult;

// paper_tvof_8192x16: the paper's Fig. 9 regime (Table I instances at
// the largest program size), with the node budgets of BENCH_warmstart.
// wide_trust_64x64: the widest pool game::Coalition accepts, at exactly
// ReputationOptions::sparse_threshold, with a node budget small enough
// that the ~56 reputation recomputes per run carry a third of its time.
constexpr DirectSpec kDirect[] = {
    {"paper_tvof_8192x16", 16, 8192, 20'000, 5'000, 250.0, 250, 60},
    {"wide_trust_64x64", 64, 64, 500, 0, 50.0, 1'000, 300},
};

/// Every run is set up this many times from scratch; setup_s is the
/// median, so one slow set-up does not move it.
constexpr int kSetupRuns = 5;

/// Requests rerun through a fresh direct run after the measured phase:
/// indices kReplayFirst, kReplayFirst + kReplayStride, ... (all below
/// every workload's minimum request count, so the sample is fixed).
constexpr std::size_t kReplayCount = 10;
constexpr std::size_t kReplayFirst = 3;
constexpr std::size_t kReplayStride = 9;

/// Stop the measured phase at this many times `--seconds`, and never
/// later than kHardCapSeconds, even if the minimum request count is not
/// reached, so a run always ends in time.
constexpr double kHardCapFactor = 4.0;
constexpr double kHardCapSeconds = 120.0;

svo::ip::BnbOptions solver_options(const DirectSpec& spec) {
  svo::ip::BnbOptions opts;
  opts.max_nodes = spec.max_nodes;
  opts.warm_max_nodes = spec.warm_max_nodes;
  return opts;
}

struct Setup {
  std::unique_ptr<svo::sim::ScenarioFactory> factory;
  std::unique_ptr<svo::ip::BnbAssignmentSolver> solver;
  std::unique_ptr<svo::core::TvofMechanism> mechanism;
  double total_s = 0.0;
  double trace_s = 0.0;
};

/// Everything the first request needs: the trace, its instance and trust
/// graph, the solver and the mechanism.
Setup set_up(const DirectSpec& spec, std::uint64_t seed) {
  Setup s;
  const CallTimer total;
  s.factory = std::make_unique<svo::sim::ScenarioFactory>(
      scenario_config(spec.gsps, spec.tasks));
  s.trace_s = total.seconds();
  [[maybe_unused]] const svo::sim::Scenario first =
      s.factory->make(spec.tasks, scenario_key(seed, 0));
  s.solver = std::make_unique<svo::ip::BnbAssignmentSolver>(solver_options(spec));
  s.mechanism = std::make_unique<svo::core::TvofMechanism>(*s.solver);
  s.total_s = total.seconds();
  return s;
}

/// One request's recorded outcome, kept for the replay check.
struct Recorded {
  std::size_t index = 0;
  MechanismResult result;
  std::uint64_t probe = 0;
};

bool in_replay_sample(std::size_t i) {
  return i >= kReplayFirst && (i - kReplayFirst) % kReplayStride == 0 &&
         (i - kReplayFirst) / kReplayStride < kReplayCount;
}

/// Rerun the sampled requests from scratch and demand bit-identical
/// outcomes. A mismatch fails the run; it is never a mere failure.
void replay_check(const DirectSpec& spec, std::uint64_t seed,
                  const Setup& setup, const std::vector<Recorded>& recorded,
                  Output& out) {
  for (const Recorded& rec : recorded) {
    const svo::sim::Scenario scn =
        setup.factory->make(spec.tasks, scenario_key(seed, rec.index));
    svo::util::Xoshiro256 rng(scn.tvof_seed);
    const MechanismResult again = setup.mechanism->run(
        FormationRequest{scn.instance.assignment, scn.trust, rng});
    const std::string why = compare_runs(rec.result, rec.probe, again, rng());
    if (!why.empty()) {
      out.fail("request " + std::to_string(rec.index) + " replay: " + why);
    }
  }
}

struct Measured {
  std::vector<double> latency_ms;
  double busy_s = 0.0;
  Quality quality;
  std::vector<double> instance_s;
};

void add_end_to_end(const DirectSpec& spec, const Measured& m, double setup_s,
                    Output& out) {
  const auto in_limit = static_cast<double>(std::count_if(
      m.latency_ms.begin(), m.latency_ms.end(),
      [&](double ms) { return ms <= spec.latency_limit_ms; }));
  out.add("setup_s", setup_s, "s");
  out.add("throughput_per_s", ratio(in_limit, m.busy_s), "1/s");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
  m.quality.add_metrics(out);
}

}  // namespace

svo::sim::ExperimentConfig scenario_config(std::size_t gsps, std::size_t tasks) {
  svo::sim::ExperimentConfig cfg;
  cfg.gen.params.num_gsps = gsps;
  cfg.task_sizes = {tasks};
  cfg.trace.canonical_sizes = {static_cast<std::int64_t>(tasks)};
  return cfg;
}

std::uint64_t scenario_key(std::uint64_t seed, std::uint64_t i) {
  return svo::util::derive_seed(seed, i);
}

const DirectSpec* find_direct(const std::string& name) {
  for (const DirectSpec& spec : kDirect) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

Output run_direct(const DirectSpec& spec, const Args& args) {
  Output out;
  out.config = {{"gsps", static_cast<double>(spec.gsps)},
                {"tasks", static_cast<double>(spec.tasks)},
                {"max_nodes", static_cast<double>(spec.max_nodes)},
                {"warm_max_nodes", static_cast<double>(spec.warm_max_nodes)},
                {"latency_limit_ms", spec.latency_limit_ms},
                {"callers", 1.0}};

  std::vector<double> setup_total;
  std::vector<double> setup_trace;
  Setup setup;
  for (int i = 0; i < kSetupRuns; ++i) {
    setup = set_up(spec, args.seed);
    setup_total.push_back(setup.total_s);
    setup_trace.push_back(setup.trace_s);
  }
  const TimedSolver timed(*setup.solver);
  const svo::core::TvofMechanism traced_mechanism(timed);
  const svo::trust::ReputationEngine engine(
      setup.mechanism->config().reputation);

  Measured m;
  LayerTally layers;
  std::vector<double> plain_us;  // traced run: the undecorated twins
  std::vector<Recorded> recorded;
  const std::size_t min_requests =
      args.trace ? spec.min_traced_requests : spec.min_requests;
  const double start = now_s();
  for (std::size_t i = 0;; ++i) {
    const double elapsed = now_s() - start;
    if (elapsed >= std::min(args.seconds * kHardCapFactor, kHardCapSeconds)) break;
    if (elapsed >= args.seconds && i >= min_requests) break;

    const CallTimer make_timer;
    const svo::sim::Scenario scn =
        setup.factory->make(spec.tasks, scenario_key(args.seed, i));
    m.instance_s.push_back(make_timer.seconds());
    const svo::ip::AssignmentInstance& inst = scn.instance.assignment;
    const auto run = [&](const svo::core::TvofMechanism& mechanism,
                         double& seconds, std::uint64_t& probe) {
      svo::util::Xoshiro256 rng(scn.tvof_seed);
      const CallTimer timer;
      MechanismResult r = mechanism.run(FormationRequest{inst, scn.trust, rng});
      seconds = timer.seconds();
      probe = rng();
      return r;
    };

    // The traced run also runs each request through the decorated
    // mechanism, alternating which goes first so neither always finds
    // warm caches; the plain run is the one the results come from.
    double run_s = 0.0;
    std::uint64_t probe = 0;
    MechanismResult result;
    if (!args.trace || i % 2 == 0) result = run(*setup.mechanism, run_s, probe);
    if (args.trace) {
      const TimedSolver::Totals before = timed.totals();
      double twin_s = 0.0;
      std::uint64_t twin_probe = 0;
      const MechanismResult twin = run(traced_mechanism, twin_s, twin_probe);
      const TimedSolver::Totals solves = timed.totals() - before;
      if (i % 2 == 1) result = run(*setup.mechanism, run_s, probe);
      if (std::string why = compare_runs(result, probe, twin, twin_probe);
          !why.empty()) {
        out.fail("request " + std::to_string(i) +
                 ": the timing decorator changed the outcome: " + why);
      }
      if (solves.calls != twin.journal.size()) {
        out.fail("solver calls do not match the journal");
      }
      plain_us.push_back(run_s * 1e6);
      layers.run_us.push_back(twin_s * 1e6);
      layers.iterations += twin.journal.size();
      layers.ip += solves;
      ++layers.replayed;
      layers.trust += replay_trust(engine, scn.trust, twin);
      layers.seed_us += replay_seed_us(inst, twin, solver_options(spec));
    }

    ++out.attempted;
    if (!result.success) ++out.failed;
    if (std::string why = check_result(inst, result); !why.empty()) {
      out.fail("request " + std::to_string(i) + ": " + why);
    }
    m.latency_ms.push_back(run_s * 1e3);
    m.busy_s += run_s;
    m.quality.add(result);
    if (in_replay_sample(i)) recorded.push_back({i, std::move(result), probe});
  }

  replay_check(spec, args.seed, setup, recorded, out);

  if (!args.trace) {
    add_end_to_end(spec, m, median(setup_total), out);
    return out;
  }
  add_layer_metrics(layers, out);
  // A direct call has no service queue, batching or shards.
  for (const char* name :
       {"svc.queue_wait_us.p50", "svc.queue_wait_us.p99", "svc.solve_us.p50",
        "svc.solve_us.p99"}) {
    out.add(name, 0.0, "us");
  }
  out.add("svc.requests_per_tick", 0.0, "count");
  out.add("svc.shard_imbalance", 0.0, "ratio");
  out.add("svc.max_rate_ok_per_s", 0.0, "1/s");
  out.add("svc.shed", 0.0, "count");
  out.add("svc.retries", 0.0, "count");
  out.add("setup.trace_s", median(setup_trace), "s");
  out.add("setup.instances_s", median(m.instance_s), "s");
  out.add("gen.lateness_us.p99", 0.0, "us");  // closed loop: no schedule
  out.add("latency.p50_ms", quantile(plain_us, 0.50) * 1e-3, "ms");
  out.add("latency.p90_ms", quantile(plain_us, 0.90) * 1e-3, "ms");
  out.add("latency.p99_ms", quantile(plain_us, 0.99) * 1e-3, "ms");
  out.add("obs.trace_overhead_ratio",
          ratio(median(layers.run_us), median(plain_us)), "ratio");
  return out;
}

}  // namespace perfbench
