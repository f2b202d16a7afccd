#include "bench.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>

namespace perfbench {

double quantile(std::vector<double> sample, double q) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const double pos = q * static_cast<double>(sample.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sample.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0 || sample[lo] == sample[hi]) return sample[lo];
  return sample[lo] + frac * (sample[hi] - sample[lo]);
}

double median(std::vector<double> sample) {
  return quantile(std::move(sample), 0.5);
}

double mean(const std::vector<double>& sample) {
  if (sample.empty()) return 0.0;
  return std::accumulate(sample.begin(), sample.end(), 0.0) /
         static_cast<double>(sample.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

CallTimer::CallTimer() : wall0_(now_s()), cpu0_(process_cpu_s()) {}

double CallTimer::seconds() const {
  return std::min(now_s() - wall0_, process_cpu_s() - cpu0_);
}

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

namespace {

void set_affinity(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);  // 0 = the calling thread
}

}  // namespace

CpuSplit::CpuSplit() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
}

CpuSplit::~CpuSplit() {
  if (!cpus_.empty()) set_affinity(cpus_);
}

void CpuSplit::use_worker_cpus() {
  if (cpus_.size() > 1) set_affinity({cpus_.begin() + 1, cpus_.end()});
}

void CpuSplit::use_generator_cpu() {
  if (cpus_.size() > 1) set_affinity({cpus_.front()});
}

std::size_t service_threads(std::size_t cap) {
  const std::size_t cpus = online_cpus();
  return std::clamp<std::size_t>(cpus > 1 ? cpus - 1 : 1, 1, cap);
}

}  // namespace perfbench
