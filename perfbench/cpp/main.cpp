/// \file main.cpp
/// vo_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///
/// Runs one workload and prints two JSON lines on stdout: a provenance
/// record (machine, build, seed, workload configuration), then the
/// result {"correct", "attempted", "failed", "metrics"}. --trace 0
/// reports the end-to-end metrics, --trace 1 the per-layer ones. Exits 1
/// when a result fails its check, 2 on a bad command line.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "obs/json.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Args;
using perfbench::Output;

constexpr const char* kUsage =
    "usage: vo_bench --workload <paper_tvof_8192x16|svc_open_24x8|"
    "wide_trust_64x64> --seed <n> --seconds <s> --trace <0|1>\n";

bool parse_args(int argc, char** argv, Args& args) {
  bool seen[4] = {false, false, false, false};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = val;
      seen[0] = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || val[0] == '-' || *end != '\0') return false;
      seen[1] = true;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0) || args.seconds > 60.0) {
        return false;
      }
      seen[2] = true;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      args.trace = val == "1";
      seen[3] = true;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && seen[0] && seen[1] && seen[2] && seen[3];
}

void print_provenance(const Args& args, const Output& out) {
  std::ostringstream os;
  svo::obs::JsonWriter j(os);
  j.begin_object().key("provenance").begin_object();
  j.kv("workload", args.workload);
  j.kv("seed", args.seed);
  j.kv("seconds", args.seconds);
  j.kv("trace", args.trace);
  j.kv("nproc", perfbench::online_cpus());
  j.kv("hardware_threads",
       static_cast<std::size_t>(std::thread::hardware_concurrency()));
  j.kv("build_type", PERFBENCH_BUILD_TYPE);
  for (const auto& [key, value] : out.config) j.kv(key, value);
  if (!out.ladder_rates_per_s.empty()) {
    j.key("ladder_rates_per_s").begin_array();
    for (const double r : out.ladder_rates_per_s) j.value(r);
    j.end_array();
  }
  j.key("problems").begin_array();
  for (const std::string& p : out.problems) j.value(p);
  j.end_array();
  j.end_object().end_object();
  std::cout << os.str() << '\n';
}

void print_result(const Output& out) {
  std::ostringstream os;
  svo::obs::JsonWriter j(os);
  j.begin_object();
  j.kv("correct", out.correct);
  j.kv("attempted", out.attempted);
  j.kv("failed", out.failed);
  j.key("metrics").begin_object();
  for (const perfbench::Metric& m : out.metrics) {
    j.key(m.name).begin_object();
    j.kv("value", m.value).kv("unit", m.unit);
    j.end_object();
  }
  j.end_object().end_object();
  std::cout << os.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  const perfbench::DirectSpec* direct = perfbench::find_direct(args.workload);
  if (direct == nullptr && args.workload != perfbench::kServiceWorkload) {
    std::fprintf(stderr, "vo_bench: unknown workload '%s'\n%s",
                 args.workload.c_str(), kUsage);
    return 2;
  }
  Output out;
  try {
    out = direct != nullptr ? perfbench::run_direct(*direct, args)
                            : perfbench::run_service(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vo_bench: %s\n", e.what());
    return 1;
  }
  if (out.attempted == 0) out.fail("no request completed");
  for (const std::string& p : out.problems) {
    std::fprintf(stderr, "vo_bench: %s\n", p.c_str());
  }
  print_provenance(args, out);
  print_result(out);
  return out.correct ? 0 : 1;
}
