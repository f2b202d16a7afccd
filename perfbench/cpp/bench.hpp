/// \file bench.hpp
/// Shared types of the VO-formation benchmark: command-line arguments,
/// the run output (metrics + correctness + provenance) and the small
/// statistics helpers every workload uses.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Command line: --workload <name> --seed <n> --seconds <s> --trace <0|1>.
struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports. `correct` is false when any result failed
/// its check, any replayed request differed from its recorded result, or
/// the measurement itself was invalid (open-loop generator too late);
/// `problems` says why.
struct Output {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;
  /// Workload configuration echoed into the provenance line.
  std::vector<std::pair<std::string, double>> config;
  std::vector<double> ladder_rates_per_s;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(std::string why) {
    correct = false;
    if (problems.size() < kMaxProblems) problems.push_back(std::move(why));
  }

  static constexpr std::size_t kMaxProblems = 20;
};

/// num / den, or 0 when den is not positive.
[[nodiscard]] inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
/// +inf entries (requests that missed outright) sort last.
[[nodiscard]] double quantile(std::vector<double> sample, double q);
[[nodiscard]] double median(std::vector<double> sample);
[[nodiscard]] double mean(const std::vector<double>& sample);

/// Peak resident set size of this process so far, MiB.
[[nodiscard]] double peak_rss_mb();

/// Seconds on the steady clock since an arbitrary fixed origin.
[[nodiscard]] double now_s();

/// Times one synchronous call: its wall time less what the host stole,
/// i.e. min(wall time, CPU time of the whole process). On a shared VM the
/// host takes a vCPU away for milliseconds at a time; that shows in wall
/// time but not in CPU time. The two agree otherwise, and a call whose
/// work runs on several threads has more CPU than wall time, so it is
/// timed by the wall clock.
class CallTimer {
 public:
  CallTimer();
  [[nodiscard]] double seconds() const;

 private:
  double wall0_ = 0.0;
  double cpu0_ = 0.0;
};

/// CPUs this process may run on (what `nproc` prints), as distinct from
/// std::thread::hardware_concurrency.
[[nodiscard]] std::size_t online_cpus();

/// Gives the open-loop generator a CPU of its own. While alive, the
/// calling thread can switch between the first CPU it may run on (the
/// generator's) and all the others (where threads it starts, such as a
/// service pool, inherit their affinity from); the destructor restores
/// the original mask. With a single CPU both switches are no-ops.
class CpuSplit {
 public:
  CpuSplit();
  ~CpuSplit();
  CpuSplit(const CpuSplit&) = delete;
  CpuSplit& operator=(const CpuSplit&) = delete;

  void use_worker_cpus();
  void use_generator_cpu();

 private:
  std::vector<int> cpus_;
};

/// Threads the service pool may use: nproc - 1 (at least 1), so the
/// open-loop generator keeps a core of its own; at most `cap`.
[[nodiscard]] std::size_t service_threads(std::size_t cap);

}  // namespace perfbench
