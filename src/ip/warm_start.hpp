/// \file warm_start.hpp
/// Incremental solve support for the shrinking-coalition loop of
/// Algorithm 1. Consecutive mechanism iterations solve assignment
/// instances that differ by exactly one removed GSP row, so a solve can
/// reuse two artifacts of its predecessor:
///
///  1. an *incumbent*: the previous optimal/incumbent mapping, repaired
///     by reassigning only the tasks that lived on the removed GSP
///     (greedy min-cost insertion + a relocation polish restricted to
///     the moved tasks);
///  2. *task orders* (ip/task_orders.hpp): the per-task cost orders,
///     regrets and regret order, derived from the predecessor's with
///     TaskOrders::without_row() — never re-sorted. The repair reads its
///     cheapest fits from them, and so do the solver's DFS, greedy seed
///     and polish.
///
/// Both are hints: a warm incumbent only tightens branch-and-bound
/// pruning, and derived orders equal the ones a fresh sort would build
/// field for field, so a warm solve that runs to proof returns the same
/// status and cost as the cold solve. DESIGN.md "Incremental solve
/// across iterations" carries the argument.
#pragma once

#include "ip/assignment.hpp"
#include "ip/task_orders.hpp"

namespace svo::ip {

/// A solver's own incumbent seed for one instance: greedy construction
/// polished by local search (BnbAssignmentSolver::seed).
struct IncumbentSeed {
  /// Task -> row of the instance; empty when no construction succeeded.
  Assignment assignment;
  /// Cost of `assignment` as local_search() reports it (may exceed the
  /// payment cap).
  double cost = 0.0;
  /// True when the computation was stopped before its end: the seed is
  /// not the solver's own, and a solver handed it ignores it.
  bool cancelled = false;
};

/// Warm-start hints for one solve. Everything is optional: an empty
/// incumbent means "no incumbent hint", null orders mean "validate the
/// instance and sort it", a null seed means "compute the seed here".
struct WarmStart {
  /// Candidate incumbent: task -> row *of the instance being solved*.
  /// Must satisfy constraints (11)-(13) when non-empty; the payment cap
  /// (10) is checked by the receiving solver.
  Assignment incumbent;
  /// Total cost of `incumbent` (assignment_cost); meaningful iff the
  /// incumbent is non-empty.
  double incumbent_cost = 0.0;
  /// Tasks the repair step reassigned to build the incumbent
  /// (telemetry; forwarded into SolveStats::repair_moves).
  std::size_t repair_moves = 0;
  /// Task orders of exactly the instance being solved; must outlive
  /// the call. The solver trusts them and skips re-validating the
  /// instance (TaskOrders are built from valid instances only). Orders
  /// of the wrong shape are ignored.
  const TaskOrders* orders = nullptr;
  /// True when the instance is its predecessor's minus one GSP, so the
  /// solve re-verifies an answer the predecessor already paid a full
  /// budget for: BnbOptions::warm_max_nodes caps it even when no
  /// incumbent is accepted.
  bool reverification = false;
  /// The receiving solver's incumbent seed of exactly this instance,
  /// computed ahead of the call from these `orders` with the solver's
  /// own options, e.g. on another thread while a previous instance was
  /// solved; must outlive the call. The solver uses it in place of
  /// computing the seed, and only together with the orders.
  const IncumbentSeed* seed = nullptr;

  [[nodiscard]] bool has_incumbent() const noexcept {
    return !incumbent.empty();
  }
};

/// Outcome of repair_for_removal().
struct RepairResult {
  /// True when every task found a feasible executor; false leaves
  /// `assignment` empty.
  bool ok = false;
  /// Repaired mapping: task -> row of `inst` (the restricted instance).
  Assignment assignment;
  /// assignment_cost of the repaired mapping (may exceed the payment
  /// cap — the receiving solver filters).
  double cost = 0.0;
  /// Tasks reassigned: the removed GSP's tasks plus every improving
  /// relocation the polish applied.
  std::size_t moves = 0;
};

/// Repair the parent iteration's mapping after one GSP was removed.
///
/// `inst` is the restricted (child) instance and `orders` its
/// TaskOrders; `rows[r]` is the parent row of child row r;
/// `parent_assignment` maps each task to a parent row;
/// `removed_parent_row` is the row that left. Tasks on surviving rows
/// keep their executor; tasks on the removed row are reinserted
/// greedily (cheapest feasible surviving GSP under the deadline, read
/// from `orders`), then a relocation polish restricted to the moved
/// tasks runs until no moved task improves (at most `polish_passes`
/// passes). The result satisfies (11)-(13) by construction whenever ok
/// is true.
[[nodiscard]] RepairResult repair_for_removal(
    const InstanceView& inst, const TaskOrders& orders,
    const std::vector<std::size_t>& rows,
    const Assignment& parent_assignment, std::size_t removed_parent_row,
    std::size_t polish_passes = 8);

}  // namespace svo::ip
