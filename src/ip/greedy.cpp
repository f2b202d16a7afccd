#include "ip/greedy.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace svo::ip {

namespace {

/// Regret of a task: gap between its two cheapest GSPs (capacity-blind;
/// used only for ordering). Single-GSP instances get zero regret.
double static_regret(const AssignmentInstance& inst, std::size_t t) {
  double best = std::numeric_limits<double>::infinity();
  double second = best;
  for (std::size_t g = 0; g < inst.num_gsps(); ++g) {
    const double c = inst.cost(g, t);
    if (c < best) {
      second = best;
      best = c;
    } else if (c < second) {
      second = c;
    }
  }
  return std::isfinite(second) ? second - best : 0.0;
}

double max_time(const AssignmentInstance& inst, std::size_t t) {
  double mx = 0.0;
  for (std::size_t g = 0; g < inst.num_gsps(); ++g) {
    mx = std::max(mx, inst.time(g, t));
  }
  return mx;
}

}  // namespace

Assignment greedy_construct(const AssignmentInstance& inst,
                            GreedyOptions::Order order) {
  inst.validate();
  const std::size_t n = inst.num_tasks();
  std::vector<std::size_t> task_order(n);
  std::iota(task_order.begin(), task_order.end(), 0);
  std::vector<double> key(n);
  for (std::size_t t = 0; t < n; ++t) {
    key[t] = (order == GreedyOptions::Order::RegretDescending)
                 ? static_regret(inst, t)
                 : max_time(inst, t);
  }
  std::stable_sort(task_order.begin(), task_order.end(),
                   [&](std::size_t a, std::size_t b) { return key[a] > key[b]; });
  return greedy_construct(inst, task_order);
}

Assignment greedy_construct(const AssignmentInstance& inst,
                            const std::vector<std::size_t>& task_order) {
  const std::size_t k = inst.num_gsps();
  const std::size_t n = inst.num_tasks();
  if (inst.require_all_gsps_used && k > n) return {};

  Assignment a(n, SIZE_MAX);
  std::vector<double> load(k, 0.0);
  std::vector<std::size_t> count(k, 0);
  for (const std::size_t t : task_order) {
    std::size_t best_g = SIZE_MAX;
    double best_c = std::numeric_limits<double>::infinity();
    double best_slack = -1.0;
    for (std::size_t g = 0; g < k; ++g) {
      const double tm = inst.time(g, t);
      if (load[g] + tm > inst.deadline) continue;
      const double c = inst.cost(g, t);
      const double slack = inst.deadline - load[g] - tm;
      if (c < best_c - 1e-12 ||
          (c < best_c + 1e-12 && slack > best_slack)) {
        best_g = g;
        best_c = c;
        best_slack = slack;
      }
    }
    if (best_g == SIZE_MAX) return {};  // no GSP can still take this task
    a[t] = best_g;
    load[best_g] += inst.time(best_g, t);
    ++count[best_g];
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

AssignmentSolution GreedyAssignmentSolver::solve(
    const AssignmentInstance& inst) const {
  AssignmentSolution sol;
  Assignment a = greedy_construct(inst, GreedyOptions::Order::RegretDescending);
  if (a.empty()) {
    // Second chance with the other ordering: different orders fail on
    // different tight instances.
    a = greedy_construct(inst, GreedyOptions::Order::TimeDescending);
  }
  if (a.empty()) {
    sol.stats.status = AssignStatus::Unknown;
    return sol;
  }
  const double cost = local_search(inst, a, opts_.local_search);
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
