/// \file layers.hpp
/// Per-layer timing from outside the program, and the correctness checks.
///
/// Nothing here reaches into src/: the `ip` layer is timed by a solver
/// decorator the traced run hands to the mechanism in place of the plain
/// solver, and the `trust` layer and the B&B's greedy + polish seeding
/// are *replayed* from a finished run's journal, outside every timed
/// region. `core` self time is what is left of a run once both are
/// subtracted.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/mechanism.hpp"
#include "ip/assignment.hpp"
#include "ip/bnb.hpp"
#include "trust/reputation.hpp"
#include "trust/trust_graph.hpp"

namespace perfbench {

/// ip::AssignmentSolver decorator: forwards every solve to `inner`
/// unchanged and tallies its wall time and SolveStats. Thread-safe, so
/// one instance can serve every service shard.
class TimedSolver final : public svo::ip::AssignmentSolver {
 public:
  struct Totals {
    std::uint64_t calls = 0;
    std::uint64_t solve_ns = 0;
    std::uint64_t nodes = 0;
    /// Solves that ended Optimal or Infeasible (ran to proof).
    std::uint64_t proven = 0;
    /// Warm solves offered a repaired incumbent, and those that used it.
    std::uint64_t warm_offered = 0;
    std::uint64_t warm_accepted = 0;

    [[nodiscard]] Totals operator-(const Totals& base) const;
    Totals& operator+=(const Totals& other);
  };

  explicit TimedSolver(const svo::ip::AssignmentSolver& inner)
      : inner_(inner) {}

  [[nodiscard]] svo::ip::AssignmentSolution solve(
      const svo::ip::AssignmentInstance& inst) const override;
  [[nodiscard]] svo::ip::AssignmentSolution solve(
      const svo::ip::AssignmentInstance& inst,
      const svo::ip::WarmStart& warm) const override;
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  [[nodiscard]] Totals totals() const;

 private:
  void record(std::uint64_t ns, const svo::ip::SolveStats& stats,
              bool warm_offered) const;

  const svo::ip::AssignmentSolver& inner_;
  mutable std::atomic<std::uint64_t> calls_{0};
  mutable std::atomic<std::uint64_t> solve_ns_{0};
  mutable std::atomic<std::uint64_t> nodes_{0};
  mutable std::atomic<std::uint64_t> proven_{0};
  mutable std::atomic<std::uint64_t> warm_offered_{0};
  mutable std::atomic<std::uint64_t> warm_accepted_{0};
};

[[nodiscard]] bool proven(svo::ip::AssignStatus status) noexcept;

/// Replay of the reputation computes of one or more mechanism runs.
struct TrustReplay {
  double us = 0.0;
  std::size_t computes = 0;
  std::size_t power_iterations = 0;
  std::size_t nonconverged = 0;

  TrustReplay& operator+=(const TrustReplay& other);
};

/// Re-run every ReputationEngine::compute that produced `result`: the
/// full graph (global scores), then each feasible journal coalition
/// (Algorithm 1 line 10). Each compute is timed on its own.
[[nodiscard]] TrustReplay replay_trust(const svo::trust::ReputationEngine& engine,
                                       const svo::trust::TrustGraph& trust,
                                       const svo::core::MechanismResult& result);

/// Re-run the B&B's incumbent seeding (greedy_construct, the
/// TimeDescending fallback, local_search polish) on every coalition the
/// run solved, one per journal record; returns the summed microseconds.
/// The restriction of the instance to each coalition is not timed.
[[nodiscard]] double replay_seed_us(const svo::ip::AssignmentInstance& inst,
                                    const svo::core::MechanismResult& result,
                                    const svo::ip::BnbOptions& options);

/// Answer quality over many runs: the payoff of each selected VO and how
/// often a solve stopped at its node budget instead of a proof.
struct Quality {
  std::vector<double> payoffs;
  std::size_t solves = 0;
  std::size_t truncated = 0;

  void add(const svo::core::MechanismResult& result);
  /// payoff_mean (mean v(C)/|C| of the selected VO, eq. (18), over runs
  /// that formed one) and truncated_ratio.
  void add_metrics(Output& out) const;
};

/// What a traced run gathers for its per-layer metrics.
struct LayerTally {
  /// Wall time of every mechanism run the solver totals cover.
  std::vector<double> run_us;
  std::size_t iterations = 0;
  TimedSolver::Totals ip;
  /// Runs whose reputation computes and B&B seeding were replayed: all
  /// of them on a direct workload, a fixed sample on the service.
  std::size_t replayed = 0;
  TrustReplay trust;
  double seed_us = 0.0;
};

/// Adds the ip.*, trust.*, linalg.* and core.* metrics of `tally`.
/// core self time is the run's wall time minus the timed solves and the
/// replayed reputation computes; if those exceed the run, the layer
/// accounting is broken and the run fails.
void add_layer_metrics(const LayerTally& tally, Output& out);

/// Check a finished run against its instance: a successful run's mapping
/// satisfies (10)-(13) and its cost equals assignment_cost recomputed.
/// Empty string when the result passes.
[[nodiscard]] std::string check_result(const svo::ip::AssignmentInstance& inst,
                                       const svo::core::MechanismResult& result);

/// Bit-for-bit comparison of two runs of the same request: selected VO,
/// mapping, cost, value, the journal (coalitions, statuses, costs,
/// removals) and the RNG probe drawn after each run. Empty string when
/// identical, else the first difference.
[[nodiscard]] std::string compare_runs(const svo::core::MechanismResult& a,
                                       std::uint64_t probe_a,
                                       const svo::core::MechanismResult& b,
                                       std::uint64_t probe_b);

}  // namespace perfbench
