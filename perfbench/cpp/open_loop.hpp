/// \file open_loop.hpp
/// Open-loop load generation into svc::FormationService and the latency
/// accounting of one offered-rate rung. Arrivals follow a fixed schedule
/// whatever the service does. A request's latency runs from admission to
/// its terminal state (queue_seconds + solve_seconds); how late the
/// generator sent it is kept apart (RungRun::lateness_us), and a run whose
/// generator falls behind is invalid. A request that does not end Done
/// misses every limit.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/scenario.hpp"
#include "svc/service.hpp"

namespace perfbench {

/// One open-loop request as the latency accounting sees it: when it was
/// due (seconds into its rung), its terminal state and, when Done,
/// admission-to-terminal seconds.
struct Sample {
  double due_s = 0.0;
  svo::svc::TicketState state = svo::svc::TicketState::Done;
  double latency_s = 0.0;
};

/// One rung of the offered-rate ladder, summarized.
struct RungSummary {
  std::size_t requests = 0;
  std::size_t done = 0;
  /// Requests over the latency limit, plus every non-Done request.
  std::size_t misses = 0;
  /// Latency quantiles, each the median over the rung's `window_s`
  /// windows (by due time) of that window's quantile, so a stall of the
  /// host, which lands in one window, does not decide the rung. A
  /// non-Done request counts as infinitely late: a quantile that lands
  /// on one reads +inf.
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  /// Done requests per second of the rung's schedule.
  double achieved_per_s = 0.0;
  /// Requests that met the latency limit, per second of the schedule.
  double in_limit_per_s = 0.0;
  /// Little's law: with every request inside the limit, no more than
  /// rate x limit can be in flight when the last one is sent.
  bool backlog_ok = true;
  /// Windowed p99 within the limit and no growing backlog.
  bool ok = false;
};

[[nodiscard]] RungSummary summarize_rung(const std::vector<Sample>& samples,
                                         double duration_s, double rate_per_s,
                                         double limit_ms, double window_s,
                                         std::size_t outstanding_at_end);

/// What one rung produced, in send order.
struct RungRun {
  /// Workload-wide index of the rung's first request; request k of the
  /// rung has index first_index + k.
  std::uint64_t first_index = 0;
  double duration_s = 0.0;
  std::vector<Sample> samples;
  std::vector<svo::svc::RequestOutcome> outcomes;
  /// How late the generator sent each request, microseconds.
  std::vector<double> lateness_us;
  /// Requests not yet terminal when the last one was sent.
  std::size_t outstanding_at_end = 0;
};

/// RNG seed of the request with workload-wide index `index`.
[[nodiscard]] std::uint64_t request_seed(std::uint64_t seed,
                                         std::uint64_t index);

/// Offer Poisson arrivals at `rate_per_s` for `duration_s` (gaps drawn
/// from `seed`), request i using pool[i % pool.size()] and RNG seed
/// request_seed(seed, i); then drain the service and collect outcomes.
[[nodiscard]] RungRun drive_rung(svo::svc::FormationService& service,
                                 const std::vector<svo::sim::Scenario>& pool,
                                 double rate_per_s, double duration_s,
                                 std::uint64_t seed, std::uint64_t first_index);

}  // namespace perfbench
