/// \file greedy.hpp
/// Greedy constructive solver for the task assignment IP: regret-ordered
/// min-cost insertion under deadline capacities, coverage repair for
/// constraint (13), then local-search polish. Fast (O(nk log n)) and used
/// both standalone (large instances) and as the B&B incumbent seed. The
/// regret order and each task's cheapest fitting GSP are read from the
/// instance's TaskOrders (ip/task_orders.hpp).
#pragma once

#include <stop_token>

#include "ip/assignment.hpp"
#include "ip/local_search.hpp"
#include "ip/task_orders.hpp"
#include "ip/warm_start.hpp"

namespace svo::ip {

/// Options for the greedy solver.
struct GreedyOptions {
  /// Task processing order during construction.
  enum class Order {
    RegretDescending,  ///< By cost spread between two cheapest GSPs.
    TimeDescending,    ///< Hardest (longest) tasks first (best-fit-decreasing).
  };
  /// Local-search options used to polish the constructed assignment.
  LocalSearchOptions local_search;
};

/// Greedy + local search: constructs in RegretDescending order, retries
/// in TimeDescending order when that fails, then polishes. Status is
/// Feasible when a constraint-satisfying assignment is found, Unknown
/// otherwise (a heuristic can never prove infeasibility). Never reports
/// Optimal.
class GreedyAssignmentSolver final : public AssignmentSolver {
 public:
  explicit GreedyAssignmentSolver(GreedyOptions opts = {}) : opts_(opts) {}

  [[nodiscard]] AssignmentSolution solve(
      const AssignmentInstance& inst) const override;
  /// Reads the task orders from `warm` (ip/warm_start.hpp) instead of
  /// sorting when they fit the instance; the other hints are ignored.
  [[nodiscard]] AssignmentSolution solve(const AssignmentInstance& inst,
                                         const WarmStart& warm) const override;
  [[nodiscard]] std::string name() const override { return "greedy"; }

 private:
  [[nodiscard]] AssignmentSolution solve_over(const InstanceView& inst,
                                              const TaskOrders& orders) const;

  GreedyOptions opts_;
};

/// Construction step only (no polish, no payment check): attempts to build
/// an assignment satisfying (11)-(13). Returns empty vector on failure.
/// Validates `inst`, sorts its TaskOrders and runs the overload below.
[[nodiscard]] Assignment greedy_construct(const AssignmentInstance& inst,
                                          GreedyOptions::Order order);

/// Construction over `orders`, the TaskOrders of `inst` (a view of a
/// valid instance); the B&B seeds from it with its own polish. The
/// RegretDescending order is orders.by_regret(). Each task goes to the
/// first GSP in its cost order that fits, or to an equally cheap one
/// with more slack left. `stop` is polled before each insertion; once
/// it is requested the construction gives up and returns empty.
[[nodiscard]] Assignment greedy_construct(const InstanceView& inst,
                                          const TaskOrders& orders,
                                          GreedyOptions::Order order,
                                          std::stop_token stop = {});

}  // namespace svo::ip
