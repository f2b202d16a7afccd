/// \file task_orders.hpp
/// The preprocessing every B&B solve of IP (9)-(14) starts from, built
/// once per instance and immutable afterwards:
///
///  - per task, its GSPs in ascending cost order (stable: ties keep the
///    lower row first) — the B&B's child order, and order[0] its
///    capacity-blind per-task bound;
///  - per task, its static regret: the cost gap between its two cheapest
///    GSPs (0 with a single GSP);
///  - the tasks in descending regret order (stable: ties keep the lower
///    task first) — the B&B's branching order and the greedy seed's
///    insertion order.
///
/// The B&B's DFS reads the cost orders as its child order; its
/// incumbent seed reads them too: greedy insertion (ip/greedy.hpp), the
/// local-search relocations (ip/local_search.hpp) and the removal repair
/// (ip/warm_start.hpp) find each task's cheapest fitting GSP by walking
/// its cost order (cheapest_fit) instead of scanning every GSP.
///
/// Algorithm 1 solves a chain of coalitions that each lose one GSP, so
/// without_row() derives the next instance's orders from the current
/// ones instead of sorting again, with a result equal field for field
/// to a fresh build. DESIGN.md §4c carries the argument.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ip/assignment.hpp"

namespace svo::ip {

/// Cells (tasks x GSPs) from which work on one instance is split across
/// util::ThreadPool::global(): TaskOrders places its tasks in blocks on
/// the pool, and a warm mechanism run seeds coalitions ahead there
/// (core/mechanism.cpp, DESIGN.md §4c). The overlap pays in proportion
/// to the seed's share of a solve. Measured on Table I chains on a
/// 4-vCPU VM whose vCPUs at times ran in parallel and at times shared
/// one core: in parallel windows seeding one coalition ahead was faster
/// by 6 % at 2 048 cells, 10-14 % at 4 096, 15-26 % at 8 192 and 23-42 %
/// at 16 384 (1 024 x 16); in shared windows it was 4-13 % slower at
/// every size. From 16 384 cells the gain is at least four times that
/// loss. It keeps 64 x 64 and the 24 x 8 service requests sequential.
inline constexpr std::size_t kPoolMinCells = 16'384;

class TaskOrders {
 public:
  /// The most GSPs an instance may have: rows are stored in 16 bits.
  static constexpr std::size_t kMaxGsps = 65535;

  /// Sort `inst`. Precondition: `inst.validate()` passes. It is not
  /// re-checked here: the solver entry points validate outside input
  /// once, and a view of a valid instance is valid. From kPoolMinCells
  /// cells the tasks are placed in blocks on util::ThreadPool::global()
  /// (inline on one of its workers or with a single worker); the result
  /// is the same. Throws InvalidArgument when `inst` has more than
  /// kMaxGsps GSPs.
  explicit TaskOrders(const InstanceView& inst);

  /// Orders of `child`: this instance with row `removed_row` deleted,
  /// the surviving rows renumbered in order (what a view or restrict_to
  /// of the other rows shows). Only tasks whose two cheapest GSPs
  /// included the removed row get a new regret; they alone are
  /// re-sorted and merged back into the regret order. Throws
  /// InvalidArgument when the shapes disagree.
  [[nodiscard]] TaskOrders without_row(const InstanceView& child,
                                       std::size_t removed_row) const;
  /// without_row() built in the buffers of `storage` (whatever it held):
  /// a thread that derives orders for another to keep and free can take
  /// buffers that thread allocated (with_capacity), so they are not left
  /// in the deriving thread's malloc arena.
  [[nodiscard]] TaskOrders without_row(const InstanceView& child,
                                       std::size_t removed_row,
                                       TaskOrders storage) const;
  /// Orders of no instance whose buffers fit those of a `num_gsps` x
  /// `num_tasks` one: storage for without_row.
  [[nodiscard]] static TaskOrders with_capacity(std::size_t num_gsps,
                                                std::size_t num_tasks);

  [[nodiscard]] std::size_t num_gsps() const noexcept { return k_; }
  [[nodiscard]] std::size_t num_tasks() const noexcept { return n_; }

  /// Rows of task `t`, cost-ascending (stable). Length num_gsps().
  [[nodiscard]] const std::uint16_t* gsp_order(std::size_t t) const noexcept {
    return gsp_order_.data() + t * k_;
  }
  /// Static regret of every task.
  [[nodiscard]] const std::vector<double>& regret() const noexcept {
    return regret_;
  }
  /// Tasks by descending regret (stable).
  [[nodiscard]] const std::vector<std::size_t>& by_regret() const noexcept {
    return by_regret_;
  }

  /// The cheapest row of task `t` of `inst` (the instance these orders
  /// were built from) that costs strictly less than `below` and still
  /// fits under the deadline on top of `load` (summed time per row);
  /// the lowest such row on equal costs, SIZE_MAX when there is none.
  /// This is what a scan of every row keeping the first strictly
  /// cheaper fit returns, found by walking gsp_order(t) and stopping at
  /// the first fit or the first row that costs `below` or more.
  [[nodiscard]] std::size_t cheapest_fit(const InstanceView& inst,
                                         std::size_t t,
                                         const std::vector<double>& load,
                                         double below) const noexcept {
    const std::uint16_t* order = gsp_order(t);
    for (std::size_t i = 0; i < k_; ++i) {
      const std::size_t g = order[i];
      if (!(inst.cost(g, t) < below)) break;
      if (load[g] + inst.time(g, t) <= inst.deadline) return g;
    }
    return SIZE_MAX;
  }

  friend bool operator==(const TaskOrders&, const TaskOrders&) = default;

 private:
  TaskOrders() = default;

  std::size_t k_ = 0;
  std::size_t n_ = 0;
  // n x k, row-major per task. 16-bit rows keep the orders of the
  // current coalition of Algorithm 1's chain and of the ones prepared
  // ahead of it (all alive while their seeds are computed) at a quarter
  // of the memory of std::size_t rows.
  std::vector<std::uint16_t> gsp_order_;
  std::vector<double> regret_;
  std::vector<std::size_t> by_regret_;
};

}  // namespace svo::ip
