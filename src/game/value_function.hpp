/// \file value_function.hpp
/// The VO formation game's characteristic function, eq. (15):
///
///   v(C) = 0                 if C is empty or the IP is infeasible,
///   v(C) = P - C(T, C)       otherwise,
///
/// where C(T, C) is the optimal (or best-found) assignment cost of the
/// program on coalition C. Evaluations are memoized per coalition mask,
/// so a mechanism run and subsequent game-theoretic analysis (stability,
/// Shapley, core) never solve the same IP twice.
#pragma once

#include <cstddef>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "game/coalition.hpp"
#include "ip/assignment.hpp"
#include "ip/warm_start.hpp"

namespace svo::ip {
class BnbAssignmentSolver;
}  // namespace svo::ip

namespace svo::game {

/// One memoized coalition evaluation.
struct CoalitionEvaluation {
  /// Whether the solver produced a constraint-satisfying mapping.
  bool feasible = false;
  /// v(C) per eq. (15); 0 when infeasible.
  double value = 0.0;
  /// C(T, C): total assignment cost (meaningful only when feasible).
  double cost = 0.0;
  /// Task -> *original* GSP index mapping (empty when infeasible).
  ip::Assignment mapping;
  /// Solver telemetry (status, nodes, warm-start usage).
  ip::SolveStats stats;
};

/// Warm-start hint for evaluate(): where the coalition sits in the
/// shrinking loop. `previous` is the evaluation of the parent coalition
/// C, `removed_gsp` the (original-index) GSP whose removal produced the
/// coalition being evaluated, and `chain` the coalitions the loop
/// evaluates after this one, as far as already known. The hint is
/// advisory — warm and cold evaluations of the same coalition agree on
/// feasibility, cost, value, and mapping whenever the solver runs to
/// proof (see ip/warm_start.hpp) — and `chain` changes no evaluation at
/// all. A hint without `previous` evaluates cold.
struct WarmHint {
  /// Evaluation of the parent coalition; must stay alive for the call.
  /// References into the VoValueFunction cache are stable.
  const CoalitionEvaluation* previous = nullptr;
  /// Original GSP index removed from the parent coalition.
  std::size_t removed_gsp = SIZE_MAX;
  /// The coalitions evaluated after this one, in order: each is its
  /// predecessor (this coalition for the first) minus one member. While
  /// this one is solved, the B&B solver's incumbent seeds for the first
  /// VoValueFunction::lookahead_depth() of them are computed ahead on
  /// util::ThreadPool::global() (DESIGN.md §4c).
  std::vector<Coalition> chain;
};

/// Memoizing characteristic function. Holds references to the instance
/// and solver; both must outlive this object.
class VoValueFunction {
 public:
  /// `inst` covers all m GSPs; coalitions are solved on row views of it
  /// (ip::InstanceView), never on copies.
  VoValueFunction(const ip::AssignmentInstance& inst,
                  const ip::AssignmentSolver& solver);
  /// Cancels the seeds computed ahead for a hint's `chain` and joins
  /// them.
  ~VoValueFunction();

  VoValueFunction(const VoValueFunction&) = delete;
  VoValueFunction& operator=(const VoValueFunction&) = delete;

  /// Number of players (GSPs) in the underlying instance.
  [[nodiscard]] std::size_t num_players() const noexcept {
    return inst_.num_gsps();
  }

  /// Full evaluation of coalition `c` (memoized). An Unknown solver
  /// outcome is treated as infeasible for game semantics — both
  /// mechanisms see the identical solver, so comparisons stay fair
  /// (DESIGN.md §4.4). Throws InvalidArgument if `c` exceeds m players.
  /// The coalition's ip::TaskOrders are built here and handed to the
  /// solver, so a warm evaluation of a child coalition can derive its
  /// own from them.
  const CoalitionEvaluation& evaluate(Coalition c) const;

  /// Warm evaluation: like evaluate(c), but when `hint.previous` holds a
  /// feasible mapping of c + {hint.removed_gsp}, repair it (reassign
  /// only the removed GSP's tasks) into a warm incumbent, and derive the
  /// task orders from the parent coalition's (ip::TaskOrders::
  /// without_row) when they are the last ones built; both reach the
  /// solver as ip::WarmStart. Memoized identically to evaluate(c); a
  /// cache hit ignores the hint.
  ///
  /// With a ip::BnbAssignmentSolver, the first lookahead_depth()
  /// coalitions of `hint.chain` are prepared here: each gets its view
  /// and its task orders (derived along the chain), and its incumbent
  /// seed (ip::BnbAssignmentSolver::seed) starts on
  /// util::ThreadPool::global() while `c` is solved; evaluating one of
  /// them in chain order then hands its seed to the solver
  /// (ip::WarmStart::seed). Prepared coalitions that leave the chain
  /// (the hint names others, or another coalition is evaluated) are
  /// dropped: their seeds are cancelled and joined, and never reach a
  /// solve. Throws InvalidArgument when `hint.chain` is not a chain of
  /// single removals from `c`.
  const CoalitionEvaluation& evaluate(Coalition c, const WarmHint& hint) const;

  /// How many coalitions of a hint's chain evaluate() prepares ahead
  /// when called from this thread: one per global pool worker but one,
  /// so the seeds and the caller's own solve all run at once; 0 for a
  /// solver other than ip::BnbAssignmentSolver (a decorator, say), on
  /// one of the pool's own workers (waiting there on another task can
  /// deadlock it) and with fewer than two workers.
  [[nodiscard]] std::size_t lookahead_depth() const noexcept;

  /// v(C) shortcut.
  [[nodiscard]] double value(Coalition c) const { return evaluate(c).value; }

  /// Number of distinct coalitions evaluated so far.
  [[nodiscard]] std::size_t evaluations() const noexcept {
    return cache_.size();
  }

  /// Number of evaluations whose incumbent seed was computed ahead, on
  /// the pool, during an earlier evaluation (see evaluate(c, hint)).
  [[nodiscard]] std::size_t seeded_ahead() const noexcept {
    return seeded_ahead_;
  }

 private:
  /// One coalition's view and task orders, and the solver's seed for
  /// them when that is being computed ahead.
  struct Prepared;

  const CoalitionEvaluation& evaluate_impl(Coalition c,
                                           const WarmHint* hint) const;
  /// `c`'s view of the instance, with task orders derived from
  /// `parent_orders` (those of `parent`, c plus one GSP) or, when null,
  /// sorted.
  [[nodiscard]] std::unique_ptr<Prepared> prepare(
      Coalition c, Coalition parent, const ip::TaskOrders* parent_orders) const;
  /// Append `c`, the next coalition of the chain after the last one
  /// prepared (or after `cur`, the one being evaluated), to ahead_: one
  /// pool task derives its orders from its parent's, then seeds it.
  void prepare_ahead(Coalition c, const Prepared& cur) const;
  /// Cancel the seeds of ahead_[first..] and drop those coalitions.
  void drop_ahead(std::size_t first) const;

  const ip::AssignmentInstance& inst_;
  const ip::AssignmentSolver& solver_;
  /// `solver_` when it is the B&B solver, whose seed can be computed
  /// ahead; null otherwise.
  const ip::BnbAssignmentSolver* bnb_;
  mutable std::unordered_map<std::uint64_t, CoalitionEvaluation> cache_;
  /// Task orders of the last coalition solved (`orders_coalition_`):
  /// the parent of the next warm evaluation in Algorithm 1's chain when
  /// that one was not prepared.
  mutable std::unique_ptr<const ip::TaskOrders> orders_;
  mutable Coalition orders_coalition_;
  /// Coalitions of the last hint's chain prepared ahead, in chain order;
  /// their seeds may still be running on the pool.
  mutable std::deque<std::unique_ptr<Prepared>> ahead_;
  mutable std::size_t seeded_ahead_ = 0;
};

}  // namespace svo::game
