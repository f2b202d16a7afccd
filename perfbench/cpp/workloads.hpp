/// \file workloads.hpp
/// The benchmark's workloads. Each is fixed here, not on the command
/// line: only the seed (which picks the inputs) and the run length vary.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "bench.hpp"
#include "sim/config.hpp"

namespace perfbench {

/// Closed loop: one caller, direct TvofMechanism::run, a distinct
/// Table I instance and RNG seed per request.
struct DirectSpec {
  const char* name;
  std::size_t gsps;
  std::size_t tasks;
  std::size_t max_nodes;
  /// B&B budget of warm-started solves (0 = max_nodes).
  std::size_t warm_max_nodes;
  /// A formation slower than this misses (max_rate_ok_per_s).
  double latency_limit_ms;
  /// The measured phase runs until both `--seconds` have passed and this
  /// many requests completed, so every percentile has its samples.
  std::size_t min_requests;
  std::size_t min_traced_requests;
};

/// Scenario source of every workload: the paper-sized synthetic Atlas
/// trace (43,778 jobs), built from a fixed seed like the one archive log
/// the paper loads, with `gsps` GSPs per instance and at least 24
/// eligible programs of `tasks` tasks.
[[nodiscard]] svo::sim::ExperimentConfig scenario_config(std::size_t gsps,
                                                         std::size_t tasks);

/// ScenarioFactory repetition of request `i` under workload seed `seed`:
/// the seed picks the programs, instances and trust graphs drawn from
/// the fixed trace.
[[nodiscard]] std::uint64_t scenario_key(std::uint64_t seed, std::uint64_t i);

/// The direct workloads, or null when `name` is not one of them.
[[nodiscard]] const DirectSpec* find_direct(const std::string& name);

[[nodiscard]] Output run_direct(const DirectSpec& spec, const Args& args);

/// Name of the open-loop service workload.
inline constexpr const char* kServiceWorkload = "svc_open_24x8";

[[nodiscard]] Output run_service(const Args& args);

}  // namespace perfbench
