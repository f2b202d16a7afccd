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
#include <memory>
#include <unordered_map>

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
/// coalition being evaluated, and `next` the coalition the loop
/// evaluates after this one, when already known. The hint is advisory —
/// warm and cold evaluations of the same coalition agree on
/// feasibility, cost, value, and mapping whenever the solver runs to
/// proof (see ip/warm_start.hpp) — and `next` changes no evaluation at
/// all. A hint without `previous` evaluates cold.
struct WarmHint {
  /// Evaluation of the parent coalition; must stay alive for the call.
  /// References into the VoValueFunction cache are stable.
  const CoalitionEvaluation* previous = nullptr;
  /// Original GSP index removed from the parent coalition.
  std::size_t removed_gsp = SIZE_MAX;
  /// The coalition evaluated after this one: this one minus one member,
  /// or empty when unknown. While this one is solved, the B&B
  /// solver's incumbent seed for `next` is computed ahead on
  /// util::ThreadPool::global() (DESIGN.md §4c).
  Coalition next{};
};

/// Memoizing characteristic function. Holds references to the instance
/// and solver; both must outlive this object.
class VoValueFunction {
 public:
  /// `inst` covers all m GSPs; coalitions restrict it by row.
  VoValueFunction(const ip::AssignmentInstance& inst,
                  const ip::AssignmentSolver& solver);
  /// Joins the seed computed ahead for a hint's `next`, if one is in
  /// flight.
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
  /// With `hint.next` set and a ip::BnbAssignmentSolver, the next
  /// coalition's restricted instance and task orders are built here too,
  /// and its incumbent seed (ip::BnbAssignmentSolver::seed) starts on
  /// util::ThreadPool::global() while `c` is solved; evaluating `next`
  /// then hands that seed to the solver (ip::WarmStart::seed). Only one
  /// coalition is prepared at a time; evaluating another one drops it.
  /// When the caller is a worker of that pool (waiting there on another
  /// task can deadlock it) or the pool has fewer than two workers,
  /// `next` is ignored and its solve computes its own seed inline.
  /// Throws InvalidArgument when `hint.next` is set but is not `c` minus
  /// one member.
  const CoalitionEvaluation& evaluate(Coalition c, const WarmHint& hint) const;

  /// v(C) shortcut.
  [[nodiscard]] double value(Coalition c) const { return evaluate(c).value; }

  /// Number of distinct coalitions evaluated so far.
  [[nodiscard]] std::size_t evaluations() const noexcept {
    return cache_.size();
  }

  /// Number of evaluations whose incumbent seed was computed ahead, on
  /// the pool, during the previous evaluation (see evaluate(c, hint)).
  [[nodiscard]] std::size_t seeded_ahead() const noexcept {
    return seeded_ahead_;
  }

 private:
  /// One coalition's restricted instance and task orders, and the
  /// solver's seed for them when that is being computed ahead.
  struct Restriction;

  const CoalitionEvaluation& evaluate_impl(Coalition c,
                                           const WarmHint* hint) const;
  /// `c`'s restriction of the instance, with task orders derived from
  /// `parent_orders` (those of `parent`, c plus one GSP) or, when null,
  /// sorted.
  [[nodiscard]] std::unique_ptr<Restriction> make_restriction(
      Coalition c, Coalition parent, const ip::TaskOrders* parent_orders) const;

  const ip::AssignmentInstance& inst_;
  const ip::AssignmentSolver& solver_;
  /// `solver_` when it is the B&B solver, whose seed can be computed
  /// ahead; null otherwise.
  const ip::BnbAssignmentSolver* bnb_;
  mutable std::unordered_map<std::uint64_t, CoalitionEvaluation> cache_;
  /// Task orders of the last coalition solved (`orders_coalition_`):
  /// the parent of the next warm evaluation in Algorithm 1's chain.
  /// With those of the coalition being evaluated and of a prepared one,
  /// at most two orders are alive at once.
  mutable std::unique_ptr<const ip::TaskOrders> orders_;
  mutable Coalition orders_coalition_;
  /// The coalition a hint named as `next`, prepared ahead; its seed may
  /// still be running on the pool.
  mutable std::unique_ptr<Restriction> next_;
  mutable std::size_t seeded_ahead_ = 0;
};

}  // namespace svo::game
