#include "ip/greedy.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

namespace svo::ip {

namespace {

constexpr double kTieEps = 1e-12;

double max_time(const InstanceView& inst, std::size_t t) {
  double mx = 0.0;
  for (std::size_t g = 0; g < inst.num_gsps(); ++g) {
    mx = std::max(mx, inst.time(g, t));
  }
  return mx;
}

/// The insertion rule as a scan of every row in row order: the
/// cheapest GSP that fits, where costs within kTieEps count as tied and
/// a tie goes to the larger slack. The rule is not transitive on costs
/// that differ by less than kTieEps, so only a row-order scan defines
/// it there.
std::size_t row_order_insertion(const InstanceView& inst, std::size_t t,
                                const std::vector<double>& load) {
  std::size_t best_g = SIZE_MAX;
  double best_c = std::numeric_limits<double>::infinity();
  double best_slack = -1.0;
  for (std::size_t g = 0; g < inst.num_gsps(); ++g) {
    const double tm = inst.time(g, t);
    if (load[g] + tm > inst.deadline) continue;
    const double c = inst.cost(g, t);
    const double slack = inst.deadline - load[g] - tm;
    if (c < best_c - kTieEps ||
        (c < best_c + kTieEps && slack > best_slack)) {
      best_g = g;
      best_c = c;
      best_slack = slack;
    }
  }
  return best_g;
}

/// The row row_order_insertion() picks, read from the task's cost
/// order. The first fit in cost order has the least cost c0; the rows
/// of exactly cost c0 follow it in row order, so scanning them for a
/// larger slack settles the tie. When the next dearer row costs less
/// than c0 + kTieEps, or c0 is not below its cost - kTieEps, the scan
/// could chain through it, and the task falls back to the row-order scan.
std::size_t insertion_row(const InstanceView& inst,
                          const TaskOrders& orders, std::size_t t,
                          const std::vector<double>& load) {
  const std::size_t k = inst.num_gsps();
  const std::uint16_t* order = orders.gsp_order(t);
  const auto fits = [&](std::size_t g) {
    return load[g] + inst.time(g, t) <= inst.deadline;
  };
  std::size_t i = 0;
  while (i < k && !fits(order[i])) ++i;
  if (i == k) return SIZE_MAX;
  std::size_t best_g = order[i];
  const double c0 = inst.cost(best_g, t);
  if (!(c0 < std::numeric_limits<double>::infinity())) return SIZE_MAX;
  double best_slack = inst.deadline - load[best_g] - inst.time(best_g, t);
  // Equal costs tie and the larger slack wins, unless c0 is so large
  // that c0 + kTieEps rounds back to c0: then the lowest row wins.
  const bool slack_decides = c0 < c0 + kTieEps;
  for (++i; i < k; ++i) {
    const std::size_t g = order[i];
    const double c = inst.cost(g, t);
    if (c != c0) {
      if (c < c0 + kTieEps || !(c0 < c - kTieEps)) {
        return row_order_insertion(inst, t, load);
      }
      break;
    }
    if (!slack_decides || !fits(g)) continue;
    const double slack = inst.deadline - load[g] - inst.time(g, t);
    if (slack > best_slack) {
      best_g = g;
      best_slack = slack;
    }
  }
  return best_g;
}

/// Insert the tasks in `task_order`, then repair coverage (13); empty
/// once `stop` is requested.
Assignment construct(const InstanceView& inst, const TaskOrders& orders,
                     const std::vector<std::size_t>& task_order,
                     const std::stop_token& stop) {
  const std::size_t k = inst.num_gsps();
  const std::size_t n = inst.num_tasks();
  if (inst.require_all_gsps_used && k > n) return {};

  Assignment a(n, SIZE_MAX);
  std::vector<double> load(k, 0.0);
  std::vector<std::size_t> count(k, 0);
  for (const std::size_t t : task_order) {
    if (stop.stop_requested()) return {};
    const std::size_t g = insertion_row(inst, orders, t, load);
    if (g == SIZE_MAX) return {};  // no GSP can still take this task
    a[t] = g;
    load[g] += inst.time(g, t);
    ++count[g];
  }

  if (inst.require_all_gsps_used) {
    // Coverage repair: give every empty GSP its cheapest feasible task
    // taken from a donor that keeps at least one task.
    for (std::size_t g = 0; g < k; ++g) {
      if (count[g] > 0) continue;
      std::size_t best_t = SIZE_MAX;
      double best_delta = std::numeric_limits<double>::infinity();
      for (std::size_t t = 0; t < n; ++t) {
        const std::size_t from = a[t];
        if (count[from] <= 1) continue;
        const double tm = inst.time(g, t);
        if (load[g] + tm > inst.deadline) continue;
        const double delta = inst.cost(g, t) - inst.cost(from, t);
        if (delta < best_delta) {
          best_delta = delta;
          best_t = t;
        }
      }
      if (best_t == SIZE_MAX) return {};  // cannot cover GSP g
      const std::size_t from = a[best_t];
      load[from] -= inst.time(from, best_t);
      --count[from];
      a[best_t] = g;
      load[g] += inst.time(g, best_t);
      ++count[g];
    }
  }
  return a;
}

}  // namespace

Assignment greedy_construct(const AssignmentInstance& inst,
                            GreedyOptions::Order order) {
  inst.validate();
  const InstanceView view(inst);
  return greedy_construct(view, TaskOrders(view), order);
}

Assignment greedy_construct(const InstanceView& inst, const TaskOrders& orders,
                            GreedyOptions::Order order,
                            std::stop_token stop) {
  detail::require(orders.num_gsps() == inst.num_gsps() &&
                      orders.num_tasks() == inst.num_tasks(),
                  "greedy_construct: task orders of another instance");
  if (order == GreedyOptions::Order::RegretDescending) {
    return construct(inst, orders, orders.by_regret(), stop);
  }
  const std::size_t n = inst.num_tasks();
  std::vector<std::size_t> task_order(n);
  std::iota(task_order.begin(), task_order.end(), 0);
  std::vector<double> key(n);
  for (std::size_t t = 0; t < n; ++t) key[t] = max_time(inst, t);
  std::stable_sort(task_order.begin(), task_order.end(),
                   [&](std::size_t a, std::size_t b) { return key[a] > key[b]; });
  return construct(inst, orders, task_order, stop);
}

AssignmentSolution GreedyAssignmentSolver::solve(
    const AssignmentInstance& inst) const {
  inst.validate();
  const InstanceView view(inst);
  return solve_over(view, TaskOrders(view));
}

AssignmentSolution GreedyAssignmentSolver::solve(const AssignmentInstance& inst,
                                                 const WarmStart& warm) const {
  inst.validate();
  const InstanceView view(inst);
  if (warm.orders != nullptr && warm.orders->num_gsps() == inst.num_gsps() &&
      warm.orders->num_tasks() == inst.num_tasks()) {
    return solve_over(view, *warm.orders);
  }
  return solve_over(view, TaskOrders(view));
}

AssignmentSolution GreedyAssignmentSolver::solve_over(
    const InstanceView& inst, const TaskOrders& orders) const {
  AssignmentSolution sol;
  Assignment a =
      greedy_construct(inst, orders, GreedyOptions::Order::RegretDescending);
  if (a.empty()) {
    // Second chance with the other ordering: different orders fail on
    // different tight instances.
    a = greedy_construct(inst, orders, GreedyOptions::Order::TimeDescending);
  }
  if (a.empty()) {
    sol.stats.status = AssignStatus::Unknown;
    return sol;
  }
  const double cost = local_search(inst, orders, a, opts_.local_search);
  if (cost > inst.payment + 1e-9) {
    // Heuristic could not get under the payment cap; inconclusive.
    sol.stats.status = AssignStatus::Unknown;
    return sol;
  }
  sol.stats.status = AssignStatus::Feasible;
  sol.assignment = std::move(a);
  sol.cost = cost;
  return sol;
}

}  // namespace svo::ip
