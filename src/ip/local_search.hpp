/// \file local_search.hpp
/// Feasibility-preserving local search used to polish incumbents: single
/// task relocations plus (sampled) pairwise swaps. Shared by the greedy
/// solver and by the B&B's incumbent seeding, both of which hand it the
/// TaskOrders they already hold: every relocation reads the task's GSPs
/// in cost order (ip/task_orders.hpp).
#pragma once

#include <cstdint>
#include <stop_token>

#include "ip/assignment.hpp"
#include "ip/task_orders.hpp"

namespace svo::ip {

/// Options for local_search().
struct LocalSearchOptions {
  /// Max full relocation passes (a pass visits every task once).
  std::size_t max_move_passes = 20;
  /// Max swap passes.
  std::size_t max_swap_passes = 2;
  /// Random swap partners examined per task per pass; 0 = exhaustive
  /// O(n^2) swaps (use only for small instances / tests).
  std::size_t swap_sample_per_task = 8;
  /// Seed for the swap sampling RNG (results are deterministic in it).
  std::uint64_t seed = 0x5e11c0de;
};

/// Improve `a` in place without ever violating constraints (11)-(13);
/// constraint (10) is an objective cap, handled by the caller. Requires
/// `a` to satisfy (11)-(13) on entry (checked). Returns the final cost.
/// Validates `inst`, sorts its TaskOrders and runs the overload below.
double local_search(const AssignmentInstance& inst, Assignment& a,
                    const LocalSearchOptions& opts = {});

/// local_search() over `orders`, the TaskOrders of `inst` (a view of a
/// valid instance). Relocations walk each task's cost order and stop at
/// the first fit or at the task's current cost, so a task that already
/// sits on its cheapest GSP costs one comparison per pass. `stop` is
/// polled every 256 tasks of a pass; once it is requested the search
/// returns with `a` feasible but not polished to the end.
double local_search(const InstanceView& inst, const TaskOrders& orders,
                    Assignment& a, const LocalSearchOptions& opts = {},
                    std::stop_token stop = {});

}  // namespace svo::ip
