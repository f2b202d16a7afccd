/// \file service.cpp
/// svc_open_24x8: an open-loop arrival process into svc::FormationService.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <thread>

#include "core/tvof.hpp"
#include "ip/bnb.hpp"
#include "layers.hpp"
#include "open_loop.hpp"
#include "workloads.hpp"
#include "sim/scenario.hpp"

namespace perfbench {

namespace {

using svo::core::FormationRequest;
using svo::core::MechanismResult;
using svo::svc::TicketState;

constexpr std::size_t kGsps = 8;
constexpr std::size_t kTasks = 24;
constexpr std::size_t kMaxNodes = 2000;
/// Distinct scenarios, cycled; each request still gets its own RNG seed.
/// Payoffs are heavy-tailed, so fewer would let the seed's choice of
/// instances move payoff_mean by 10 %.
constexpr std::size_t kPool = 1024;
constexpr std::size_t kShards = 3;
constexpr std::size_t kThreadCap = 3;
/// Large enough that nothing is shed below capacity: a shed request is
/// a failure, so the seed sheds nothing on any rung.
constexpr std::size_t kQueueCapacity = 4096;

/// Fixed offered rates (requests per second) and each rung's share of
/// `--seconds`. Constants, never derived from measured capacity, so two
/// builds are offered the same load. On a 4-core VM with 3 service
/// threads the seed serves about 7000/s while the host is quiet and about
/// 3500/s while other tenants load it; the nominal rung sits near 70 % of
/// the latter (a third of the former), so it measures moderate queueing
/// in both instead of saturation in one.
/// Steps of 500/s from 4000/s up, so that svc.max_rate_ok_per_s moves in
/// steps of under 10 %.
constexpr double kLadderRates[] = {1500.0, 2000.0, 2500.0, 3000.0, 4000.0, 4500.0,
                                   5000.0, 5500.0, 6000.0, 6500.0, 7000.0, 8000.0};
constexpr double kLadderShare[] = {0.065, 0.065, 0.28, 0.065, 0.065, 0.065,
                                   0.065, 0.065, 0.065, 0.065, 0.065, 0.065};
constexpr std::size_t kNominalRung = 2;
constexpr std::size_t kRungs = std::size(kLadderRates);
constexpr double kWarmupSeconds = 0.5;
/// Rungs not yet started when the run has taken this long are skipped, so
/// a run ends in time even when a slow build drains long backlogs.
constexpr double kRunBudgetSeconds = 120.0;

/// p99 latency limit of a rung, admission to terminal state. About 40x
/// the median formation, and above the few-millisecond stalls of a shared
/// VM's host, so that rungs fail by queueing, not by one stall.
constexpr double kLatencyLimitMs = 20.0;
/// Window of the latency quantiles (see RungSummary): 1000 requests at
/// the nominal rate, so each window's p99 has ten samples above it.
constexpr double kWindowSeconds = 0.4;
/// The run is invalid when the generator falls behind its schedule: when
/// in any rung its median lateness exceeds this. A generator that keeps
/// up is late only while something stalls it (the host takes a shared
/// VM's CPU for milliseconds at a time), so its median lateness stays
/// near zero; one that cannot keep up, because submit() is slow or the
/// service starves its core, falls further behind with every request.
constexpr double kLatenessLimitUs = 1000.0;

constexpr int kSetupRuns = 5;
/// Done requests rerun directly after the measured phase (every
/// kReplayStride-th of the nominal rung), and the Done requests whose
/// trust and seeding are replayed in the traced run.
constexpr std::size_t kReplayCount = 24;
constexpr std::size_t kReplayStride = 41;
constexpr std::size_t kLayerReplayRequests = 600;
/// Requests of the traced run's overhead probe (plain vs decorated).
constexpr std::size_t kOverheadProbe = 200;

svo::ip::BnbOptions solver_options() {
  svo::ip::BnbOptions opts;
  opts.max_nodes = kMaxNodes;
  return opts;
}

svo::svc::ServiceOptions service_options() {
  svo::svc::ServiceOptions opt;
  opt.shards = kShards;
  opt.threads = service_threads(kThreadCap);
  opt.queue_capacity = kQueueCapacity;
  opt.overload = svo::svc::OverloadPolicy::Shed;
  return opt;
}

struct Setup {
  std::unique_ptr<svo::sim::ScenarioFactory> factory;
  std::vector<svo::sim::Scenario> pool;
  std::unique_ptr<svo::ip::BnbAssignmentSolver> solver;
  std::unique_ptr<TimedSolver> timed;
  std::unique_ptr<svo::core::TvofMechanism> mechanism;
  std::unique_ptr<svo::core::TvofMechanism> traced_mechanism;
  /// Last, so it is destroyed (drained and joined) before what it uses.
  std::unique_ptr<svo::svc::FormationService> service;
  double total_s = 0.0;
  double trace_s = 0.0;
  double per_instance_s = 0.0;
};

Setup set_up(std::uint64_t seed, bool trace,
             const svo::svc::ServiceOptions& options) {
  Setup s;
  const CallTimer total;
  s.factory = std::make_unique<svo::sim::ScenarioFactory>(
      scenario_config(kGsps, kTasks));
  s.trace_s = total.seconds();
  const CallTimer pool;
  s.pool.reserve(kPool);
  for (std::size_t i = 0; i < kPool; ++i) {
    s.pool.push_back(s.factory->make(kTasks, scenario_key(seed, i)));
  }
  s.per_instance_s = pool.seconds() / static_cast<double>(kPool);
  s.solver = std::make_unique<svo::ip::BnbAssignmentSolver>(solver_options());
  s.mechanism = std::make_unique<svo::core::TvofMechanism>(*s.solver);
  s.timed = std::make_unique<TimedSolver>(*s.solver);
  s.traced_mechanism = std::make_unique<svo::core::TvofMechanism>(*s.timed);
  s.service = std::make_unique<svo::svc::FormationService>(
      trace ? *s.traced_mechanism : *s.mechanism, options);
  s.total_s = total.seconds();
  return s;
}

/// Busy-waits until `t`: the generator owns a core, and a sleeping thread
/// can wake milliseconds late.
void wait_until(double t) {
  while (now_s() < t) {
  }
}

/// A latency quantile that landed on a request that never finished is
/// reported as this many milliseconds (JSON has no infinity).
constexpr double kNeverMs = 1e6;

double reported_ms(double ms) { return std::isfinite(ms) ? ms : kNeverMs; }

/// Check every Done result of a rung against its instance.
void check_outcomes(const RungRun& run,
                    const std::vector<svo::sim::Scenario>& pool, Output& out) {
  for (std::size_t k = 0; k < run.outcomes.size(); ++k) {
    const svo::svc::RequestOutcome& o = run.outcomes[k];
    if (o.state != TicketState::Done) continue;
    const std::uint64_t index = run.first_index + k;
    const svo::sim::Scenario& scn = pool[index % pool.size()];
    if (std::string why = check_result(scn.instance.assignment, o.result);
        !why.empty()) {
      out.fail("request " + std::to_string(index) + ": " + why);
    }
  }
}

}  // namespace

std::uint64_t request_seed(std::uint64_t seed, std::uint64_t index) {
  return svo::util::derive_seed(seed, 0x5EED'0000ULL + index);
}

RungRun drive_rung(svo::svc::FormationService& service,
                   const std::vector<svo::sim::Scenario>& pool,
                   double rate_per_s, double duration_s, std::uint64_t seed,
                   std::uint64_t first_index) {
  RungRun run;
  run.first_index = first_index;
  run.duration_s = duration_s;
  // Poisson arrivals: exponential gaps from the workload seed.
  svo::util::Xoshiro256 gaps(
      svo::util::derive_seed(seed, 0x6A95'0000'0000ULL + first_index));
  std::vector<double> due;
  for (double t = 0.0;;) {
    t += -std::log(1.0 - gaps.uniform()) / rate_per_s;
    if (t >= duration_s) break;
    due.push_back(t);
  }
  std::vector<svo::svc::RequestHandle> handles;
  handles.reserve(due.size());
  run.lateness_us.reserve(due.size());
  const double start = now_s() + 1e-3;
  for (std::size_t k = 0; k < due.size(); ++k) {
    wait_until(start + due[k]);
    const double late_s = now_s() - (start + due[k]);
    const std::uint64_t index = first_index + k;
    const svo::sim::Scenario& scn = pool[index % pool.size()];
    svo::util::Xoshiro256 rng(request_seed(seed, index));
    handles.push_back(service.submit(
        FormationRequest{scn.instance.assignment, scn.trust, rng}));
    run.lateness_us.push_back(late_s * 1e6);
  }
  run.outstanding_at_end = static_cast<std::size_t>(std::count_if(
      handles.begin(), handles.end(),
      [](const svo::svc::RequestHandle& h) { return !h.done(); }));
  service.drain();
  run.outcomes.reserve(handles.size());
  run.samples.reserve(handles.size());
  for (std::size_t k = 0; k < handles.size(); ++k) {
    handles[k].wait();
    const svo::svc::RequestOutcome& o = handles[k].outcome();
    run.samples.push_back({due[k], o.state, o.queue_seconds + o.solve_seconds});
    run.outcomes.push_back(o);
  }
  return run;
}

RungSummary summarize_rung(const std::vector<Sample>& samples,
                           double duration_s, double rate_per_s,
                           double limit_ms, double window_s,
                           std::size_t outstanding_at_end) {
  RungSummary s;
  s.requests = samples.size();
  const auto windows = static_cast<std::size_t>(
      std::max(1.0, std::floor(duration_s / window_s)));
  std::vector<std::vector<double>> window_ms(windows);
  for (const Sample& x : samples) {
    const bool done = x.state == TicketState::Done;
    const double latency_ms =
        done ? x.latency_s * 1e3 : std::numeric_limits<double>::infinity();
    if (done) ++s.done;
    if (!(latency_ms <= limit_ms)) ++s.misses;
    const auto w = static_cast<std::size_t>(std::max(0.0, x.due_s / window_s));
    window_ms[std::min(w, windows - 1)].push_back(latency_ms);
  }
  std::vector<double> p50;
  std::vector<double> p90;
  std::vector<double> p99;
  for (const std::vector<double>& w : window_ms) {
    if (w.empty()) continue;
    p50.push_back(quantile(w, 0.50));
    p90.push_back(quantile(w, 0.90));
    p99.push_back(quantile(w, 0.99));
  }
  s.p50_ms = median(p50);
  s.p90_ms = median(p90);
  s.p99_ms = median(p99);
  s.achieved_per_s = ratio(static_cast<double>(s.done), duration_s);
  s.in_limit_per_s =
      ratio(static_cast<double>(s.requests - s.misses), duration_s);
  s.backlog_ok = static_cast<double>(outstanding_at_end) <=
                 std::max(1.0, rate_per_s * limit_ms * 1e-3);
  s.ok = s.requests > 0 && s.p99_ms <= limit_ms && s.backlog_ok;
  return s;
}

Output run_service(const Args& args) {
  Output out;
  const svo::svc::ServiceOptions sopt = service_options();
  out.config = {{"gsps", static_cast<double>(kGsps)},
                {"tasks", static_cast<double>(kTasks)},
                {"max_nodes", static_cast<double>(kMaxNodes)},
                {"instance_pool", static_cast<double>(kPool)},
                {"shards", static_cast<double>(sopt.shards)},
                {"service_threads", static_cast<double>(sopt.threads)},
                {"queue_capacity", static_cast<double>(sopt.queue_capacity)},
                {"batch_size", static_cast<double>(sopt.batch_size)},
                {"nominal_rate_per_s", kLadderRates[kNominalRung]},
                {"latency_limit_ms", kLatencyLimitMs},
                {"lateness_limit_us", kLatenessLimitUs}};
  out.ladder_rates_per_s.assign(std::begin(kLadderRates), std::end(kLadderRates));

  std::vector<double> setup_total;
  std::vector<double> setup_trace;
  std::vector<double> setup_instance;
  Setup setup;
  CpuSplit cpus;
  cpus.use_worker_cpus();  // the service pool starts, and stays, here
  for (int i = 0; i < kSetupRuns; ++i) {
    if (setup.service) setup.service->drain();
    setup.service.reset();  // join the previous pool before the next set-up
    setup = set_up(args.seed, args.trace, sopt);
    setup_total.push_back(setup.total_s);
    setup_trace.push_back(setup.trace_s);
    setup_instance.push_back(setup.per_instance_s);
  }
  cpus.use_generator_cpu();

  std::vector<RungRun> rungs;
  std::vector<RungSummary> summaries;
  std::vector<double> lateness_us;
  Quality quality;
  LayerTally layers;  // traced run: solver totals cover every Done request
  std::vector<double> done_per_shard(kShards, 0.0);
  // Checks and tallies a rung's outcomes, then drops them unless they are
  // the nominal rung's (replayed below), so memory does not grow with the
  // number of rungs run.
  const auto absorb = [&](RungRun& run, bool keep) {
    check_outcomes(run, setup.pool, out);
    for (const svo::svc::RequestOutcome& o : run.outcomes) {
      if (o.state != TicketState::Done) continue;
      quality.add(o.result);
      layers.run_us.push_back(o.solve_seconds * 1e6);
      layers.iterations += o.result.journal.size();
      done_per_shard[o.shard] += 1.0;
    }
    if (!keep) run.outcomes = {};
  };
  // Warm-up at the nominal rate, not measured: the pool's threads and the
  // generator's first pages settle before the ladder starts.
  RungRun warmup =
      drive_rung(*setup.service, setup.pool, kLadderRates[kNominalRung],
                 kWarmupSeconds, args.seed, 0);
  absorb(warmup, false);
  out.attempted += warmup.samples.size();
  for (const Sample& x : warmup.samples) {
    if (x.state != TicketState::Done) ++out.failed;
  }
  std::uint64_t next_index = warmup.samples.size();
  double max_ok_rate = 0.0;
  double nominal_rss_mb = 0.0;
  const double run_start = now_s();
  for (std::size_t r = 0; r < kRungs; ++r) {
    if (r > kNominalRung && now_s() - run_start > kRunBudgetSeconds) {
      std::fprintf(stderr, "rungs %zu and above skipped: over the run budget\n", r);
      break;
    }
    const double duration = args.seconds * kLadderShare[r];
    RungRun run = drive_rung(*setup.service, setup.pool, kLadderRates[r],
                             duration, args.seed, next_index);
    next_index += run.samples.size();
    const RungSummary sum =
        summarize_rung(run.samples, run.duration_s, kLadderRates[r],
                       kLatencyLimitMs, kWindowSeconds, run.outstanding_at_end);
    std::fprintf(stderr,
                 "rung %zu: %6.0f/s offered, %5zu requests, %5zu done, p50 "
                 "%7.3f ms, p99 %8.3f ms, backlog %zu, late p99 %.0f us%s\n",
                 r, kLadderRates[r], sum.requests, sum.done, sum.p50_ms,
                 sum.p99_ms, run.outstanding_at_end,
                 quantile(run.lateness_us, 0.99), sum.ok ? "" : "  (missed)");
    if (sum.ok) max_ok_rate = std::max(max_ok_rate, sum.achieved_per_s);
    out.attempted += sum.requests;
    out.failed += sum.requests - sum.done;
    lateness_us.insert(lateness_us.end(), run.lateness_us.begin(),
                       run.lateness_us.end());
    absorb(run, r == kNominalRung);
    // Read here, so it does not depend on how far up the ladder the run got.
    if (r == kNominalRung) nominal_rss_mb = peak_rss_mb();
    summaries.push_back(sum);
    rungs.push_back(std::move(run));
    // A growing backlog means the offered rate is above capacity; higher
    // rungs could only overload the service further.
    if (r > kNominalRung && !sum.backlog_ok) {
      std::fprintf(stderr, "rungs above %zu skipped: backlog grew\n", r);
      break;
    }
  }
  const svo::svc::ServiceStats stats = setup.service->stats();

  const double lateness_p99 = quantile(lateness_us, 0.99);
  for (std::size_t r = 0; r < rungs.size(); ++r) {
    const double late = median(rungs[r].lateness_us);
    if (late > kLatenessLimitUs) {
      out.fail("open-loop generator fell behind in rung " + std::to_string(r) +
               ": median lateness " + std::to_string(late) + " us > " +
               std::to_string(kLatenessLimitUs) + " us");
    }
  }

  // A fixed sample of the nominal rung is rerun directly.
  std::size_t replayed = 0;
  const RungRun& nominal = rungs[kNominalRung];
  for (std::size_t k = 0; k < nominal.outcomes.size() && replayed < kReplayCount;
       k += kReplayStride) {
    const svo::svc::RequestOutcome& o = nominal.outcomes[k];
    if (o.state != TicketState::Done) continue;
    const std::uint64_t index = nominal.first_index + k;
    const svo::sim::Scenario& scn = setup.pool[index % setup.pool.size()];
    svo::util::Xoshiro256 rng(request_seed(args.seed, index));
    const MechanismResult direct = setup.mechanism->run(
        FormationRequest{scn.instance.assignment, scn.trust, rng});
    if (std::string why = compare_runs(o.result, o.rng_probe, direct, rng());
        !why.empty()) {
      out.fail("request " + std::to_string(index) + " replay: " + why);
    }
    ++replayed;
  }

  const RungSummary& nom = summaries[kNominalRung];
  if (!args.trace) {
    out.add("setup_s", median(setup_total), "s");
    out.add("throughput_per_s", nom.in_limit_per_s, "1/s");
    out.add("peak_rss_mb", nominal_rss_mb, "MB");
    quality.add_metrics(out);
    return out;
  }

  // Traced run: reputation and seeding are replayed, once the service is
  // idle, for a fixed sample of the nominal rung.
  layers.ip = setup.timed->totals();
  std::vector<double> queue_us;
  std::vector<double> solve_us;
  for (const svo::svc::RequestOutcome& o : nominal.outcomes) {
    if (o.state != TicketState::Done) continue;
    queue_us.push_back(o.queue_seconds * 1e6);
    solve_us.push_back(o.solve_seconds * 1e6);
  }
  const svo::trust::ReputationEngine engine(setup.mechanism->config().reputation);
  for (std::size_t k = 0;
       k < nominal.outcomes.size() && layers.replayed < kLayerReplayRequests; ++k) {
    const svo::svc::RequestOutcome& o = nominal.outcomes[k];
    if (o.state != TicketState::Done) continue;
    const svo::sim::Scenario& scn =
        setup.pool[(nominal.first_index + k) % setup.pool.size()];
    layers.trust += replay_trust(engine, scn.trust, o.result);
    layers.seed_us +=
        replay_seed_us(scn.instance.assignment, o.result, solver_options());
    ++layers.replayed;
  }
  add_layer_metrics(layers, out);

  // Overhead probe: the same requests run directly, plain and decorated
  // in alternating order, single-threaded.
  std::vector<double> plain_us;
  std::vector<double> traced_us;
  for (std::size_t i = 0; i < kOverheadProbe; ++i) {
    const svo::sim::Scenario& scn = setup.pool[i % setup.pool.size()];
    for (int side = 0; side < 2; ++side) {
      const bool decorated = (side == 0) == (i % 2 == 0);
      svo::util::Xoshiro256 rng(request_seed(args.seed, i));
      const CallTimer timer;
      static_cast<void>(
          (decorated ? *setup.traced_mechanism : *setup.mechanism)
              .run(FormationRequest{scn.instance.assignment, scn.trust, rng}));
      (decorated ? traced_us : plain_us).push_back(timer.seconds() * 1e6);
    }
  }
  double max_done = 0.0;
  double sum_done = 0.0;
  for (const double d : done_per_shard) {
    max_done = std::max(max_done, d);
    sum_done += d;
  }
  out.add("svc.queue_wait_us.p50", quantile(queue_us, 0.50), "us");
  out.add("svc.queue_wait_us.p99", quantile(queue_us, 0.99), "us");
  out.add("svc.solve_us.p50", quantile(solve_us, 0.50), "us");
  out.add("svc.solve_us.p99", quantile(solve_us, 0.99), "us");
  out.add("svc.requests_per_tick",
          ratio(static_cast<double>(stats.solver_runs),
                static_cast<double>(stats.ticks)),
          "count");
  out.add("svc.shard_imbalance", ratio(max_done, sum_done / kShards), "ratio");
  out.add("svc.max_rate_ok_per_s", max_ok_rate, "1/s");
  out.add("svc.shed", static_cast<double>(stats.shed), "count");
  out.add("svc.retries", static_cast<double>(stats.retries), "count");
  out.add("setup.trace_s", median(setup_trace), "s");
  out.add("setup.instances_s", median(setup_instance), "s");
  out.add("gen.lateness_us.p99", lateness_p99, "us");
  out.add("latency.p50_ms", reported_ms(nom.p50_ms), "ms");
  out.add("latency.p90_ms", reported_ms(nom.p90_ms), "ms");
  out.add("latency.p99_ms", reported_ms(nom.p99_ms), "ms");
  out.add("obs.trace_overhead_ratio", ratio(median(traced_us), median(plain_us)),
          "ratio");
  return out;
}

}  // namespace perfbench
