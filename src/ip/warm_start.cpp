#include "ip/warm_start.hpp"

#include <algorithm>
#include <limits>

namespace svo::ip {

RepairResult repair_for_removal(const InstanceView& inst,
                                const TaskOrders& orders,
                                const std::vector<std::size_t>& rows,
                                const Assignment& parent_assignment,
                                std::size_t removed_parent_row,
                                std::size_t polish_passes) {
  RepairResult out;
  const std::size_t k = inst.num_gsps();
  const std::size_t n = inst.num_tasks();
  detail::require(orders.num_gsps() == k && orders.num_tasks() == n,
                  "repair_for_removal: task orders of another instance");
  if (rows.size() != k || parent_assignment.size() != n) return out;

  // Inverse row map: parent row -> child row.
  std::size_t max_parent = removed_parent_row;
  for (const std::size_t p : rows) max_parent = std::max(max_parent, p);
  std::vector<std::size_t> child_of(max_parent + 1, SIZE_MAX);
  for (std::size_t r = 0; r < k; ++r) child_of[rows[r]] = r;

  Assignment a(n, SIZE_MAX);
  std::vector<double> load(k, 0.0);
  std::vector<std::size_t> count(k, 0);
  std::vector<std::size_t> moved;
  for (std::size_t t = 0; t < n; ++t) {
    const std::size_t p = parent_assignment[t];
    if (p == removed_parent_row) {
      moved.push_back(t);
      continue;
    }
    if (p > max_parent || child_of[p] == SIZE_MAX) return out;  // bad hint
    const std::size_t r = child_of[p];
    a[t] = r;
    load[r] += inst.time(r, t);
    ++count[r];
    out.cost += inst.cost(r, t);
  }

  // Greedy reinsertion of the orphaned tasks (cheapest feasible GSP).
  for (const std::size_t t : moved) {
    const std::size_t g = orders.cheapest_fit(
        inst, t, load, std::numeric_limits<double>::infinity());
    if (g == SIZE_MAX) {
      out.cost = 0.0;
      return out;  // no surviving GSP can absorb this task
    }
    a[t] = g;
    load[g] += inst.time(g, t);
    ++count[g];
    out.cost += inst.cost(g, t);
    ++out.moves;
  }

  // Relocation polish restricted to the moved tasks: the surviving part
  // of the parent mapping was already solver-polished, so only the
  // fresh insertions can be locally suboptimal.
  for (std::size_t pass = 0; pass < polish_passes; ++pass) {
    bool improved = false;
    for (const std::size_t t : moved) {
      const std::size_t from = a[t];
      if (inst.require_all_gsps_used && count[from] <= 1) continue;
      const double c_from = inst.cost(from, t);
      const std::size_t to = orders.cheapest_fit(inst, t, load, c_from);
      if (to == SIZE_MAX) continue;
      load[from] -= inst.time(from, t);
      --count[from];
      load[to] += inst.time(to, t);
      ++count[to];
      out.cost += inst.cost(to, t) - c_from;
      a[t] = to;
      ++out.moves;
      improved = true;
    }
    if (!improved) break;
  }

  if (inst.require_all_gsps_used) {
    for (std::size_t g = 0; g < k; ++g) {
      if (count[g] == 0) {
        // A surviving GSP lost coverage (possible only when the parent
        // mapping never used it, i.e. (13) was off upstream): bail out
        // rather than hand the solver an infeasible incumbent.
        out.cost = 0.0;
        out.moves = 0;
        return out;
      }
    }
  }
  out.ok = true;
  out.assignment = std::move(a);
  // Canonical cost: recompute in task order so warm incumbents carry
  // the exact double the solvers would report for this assignment.
  out.cost = assignment_cost(inst, out.assignment);
  return out;
}

}  // namespace svo::ip
