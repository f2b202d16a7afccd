/// \file seed_reference.hpp
/// Row-order reference implementation of the B&B's incumbent seed, for
/// tests only. The library reads every task's GSPs from its TaskOrders
/// and stops a scan as soon as the answer is known; these are the plain
/// loops that visit every GSP of a task in row order: the greedy
/// insertion (with its regret and longest-time task orders), the
/// relocation and swap passes of the polish, and the removal repair.
/// The library must match them bit for bit
/// (tests/ip/seed_reference_test.cpp).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "ip/assignment.hpp"
#include "ip/local_search.hpp"
#include "ip/warm_start.hpp"
#include "util/rng.hpp"

namespace svo::ip::testing {

/// Tasks by descending regret (the gap between a task's two cheapest
/// GSPs; 0 when the second is infinite or missing), stable on ties.
inline std::vector<std::size_t> reference_regret_order(
    const AssignmentInstance& inst) {
  const std::size_t n = inst.num_tasks();
  std::vector<double> key(n);
  for (std::size_t t = 0; t < n; ++t) {
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
    key[t] = std::isfinite(second) ? second - best : 0.0;
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return key[a] > key[b]; });
  return order;
}

/// Tasks by descending longest execution time, stable on ties.
inline std::vector<std::size_t> reference_time_order(
    const AssignmentInstance& inst) {
  const std::size_t n = inst.num_tasks();
  std::vector<double> key(n, 0.0);
  for (std::size_t t = 0; t < n; ++t) {
    for (std::size_t g = 0; g < inst.num_gsps(); ++g) {
      key[t] = std::max(key[t], inst.time(g, t));
    }
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return key[a] > key[b]; });
  return order;
}

/// Greedy insertion over `task_order` (each task to the cheapest GSP
/// that fits, costs within 1e-12 tied and broken by the larger slack),
/// then coverage repair for (13). Empty on failure.
inline Assignment reference_greedy(const AssignmentInstance& inst,
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
      if (c < best_c - 1e-12 || (c < best_c + 1e-12 && slack > best_slack)) {
        best_g = g;
        best_c = c;
        best_slack = slack;
      }
    }
    if (best_g == SIZE_MAX) return {};
    a[t] = best_g;
    load[best_g] += inst.time(best_g, t);
    ++count[best_g];
  }
  if (inst.require_all_gsps_used) {
    for (std::size_t g = 0; g < k; ++g) {
      if (count[g] > 0) continue;
      std::size_t best_t = SIZE_MAX;
      double best_delta = std::numeric_limits<double>::infinity();
      for (std::size_t t = 0; t < n; ++t) {
        const std::size_t from = a[t];
        if (count[from] <= 1) continue;
        if (load[g] + inst.time(g, t) > inst.deadline) continue;
        const double delta = inst.cost(g, t) - inst.cost(from, t);
        if (delta < best_delta) {
          best_delta = delta;
          best_t = t;
        }
      }
      if (best_t == SIZE_MAX) return {};
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

/// Per-GSP state of an assignment under the reference polish.
struct ReferenceState {
  std::vector<double> load;
  std::vector<std::size_t> count;
  double cost = 0.0;

  ReferenceState(const AssignmentInstance& inst, const Assignment& a)
      : load(inst.num_gsps(), 0.0), count(inst.num_gsps(), 0) {
    for (std::size_t t = 0; t < a.size(); ++t) {
      load[a[t]] += inst.time(a[t], t);
      ++count[a[t]];
      cost += inst.cost(a[t], t);
    }
  }
};

/// Move task `t` to its cheapest strictly cheaper GSP that fits (lowest
/// row on equal costs). Returns true when it moved.
inline bool reference_relocate(const AssignmentInstance& inst, Assignment& a,
                               std::vector<double>& load,
                               std::vector<std::size_t>& count, double& cost,
                               std::size_t t) {
  const std::size_t from = a[t];
  if (inst.require_all_gsps_used && count[from] <= 1) return false;
  const double c_from = inst.cost(from, t);
  std::size_t best_g = from;
  double best_c = c_from;
  for (std::size_t g = 0; g < inst.num_gsps(); ++g) {
    if (g == from) continue;
    const double c_g = inst.cost(g, t);
    if (c_g >= best_c) continue;
    if (load[g] + inst.time(g, t) > inst.deadline) continue;
    best_g = g;
    best_c = c_g;
  }
  if (best_g == from) return false;
  load[from] -= inst.time(from, t);
  --count[from];
  load[best_g] += inst.time(best_g, t);
  ++count[best_g];
  cost += best_c - c_from;
  a[t] = best_g;
  return true;
}

/// One relocation pass over every task.
inline bool reference_move_pass(const AssignmentInstance& inst, Assignment& a,
                                ReferenceState& st) {
  bool improved = false;
  for (std::size_t t = 0; t < a.size(); ++t) {
    improved |= reference_relocate(inst, a, st.load, st.count, st.cost, t);
  }
  return improved;
}

/// Uniform index in [0, n) by rejection, dividing on every draw.
inline std::size_t reference_index(util::Xoshiro256& rng, std::uint64_t n) {
  const std::uint64_t threshold = (0 - n) % n;
  std::uint64_t r = rng();
  while (r < threshold) r = rng();
  return static_cast<std::size_t>(r % n);
}

inline bool reference_swap(const AssignmentInstance& inst, Assignment& a,
                           ReferenceState& st, std::size_t t, std::size_t u) {
  const std::size_t gt = a[t];
  const std::size_t gu = a[u];
  if (gt == gu) return false;
  const double delta = inst.cost(gu, t) + inst.cost(gt, u) -
                       inst.cost(gt, t) - inst.cost(gu, u);
  if (delta >= -1e-12) return false;
  const double new_gt = st.load[gt] - inst.time(gt, t) + inst.time(gt, u);
  const double new_gu = st.load[gu] - inst.time(gu, u) + inst.time(gu, t);
  if (new_gt > inst.deadline || new_gu > inst.deadline) return false;
  st.load[gt] = new_gt;
  st.load[gu] = new_gu;
  st.cost += delta;
  std::swap(a[t], a[u]);
  return true;
}

/// local_search() as row-order loops; `a` must satisfy (11)-(13).
inline double reference_local_search(const AssignmentInstance& inst,
                                     Assignment& a,
                                     const LocalSearchOptions& opts) {
  ReferenceState st(inst, a);
  for (std::size_t pass = 0; pass < opts.max_move_passes; ++pass) {
    if (!reference_move_pass(inst, a, st)) break;
  }
  if (opts.max_swap_passes == 0 || inst.num_gsps() < 2 || a.size() < 2) {
    return st.cost;
  }
  util::Xoshiro256 rng(opts.seed);
  for (std::size_t pass = 0; pass < opts.max_swap_passes; ++pass) {
    bool improved = false;
    for (std::size_t t = 0; t < a.size(); ++t) {
      if (opts.swap_sample_per_task == 0) {
        for (std::size_t u = t + 1; u < a.size(); ++u) {
          improved |= reference_swap(inst, a, st, t, u);
        }
        continue;
      }
      for (std::size_t s = 0; s < opts.swap_sample_per_task; ++s) {
        const std::size_t u = reference_index(rng, a.size());
        if (u != t) improved |= reference_swap(inst, a, st, t, u);
      }
    }
    if (!improved) break;
    while (reference_move_pass(inst, a, st)) {
    }
  }
  return st.cost;
}

/// repair_for_removal() as row-order loops.
inline RepairResult reference_repair(const AssignmentInstance& inst,
                                     const std::vector<std::size_t>& rows,
                                     const Assignment& parent,
                                     std::size_t removed,
                                     std::size_t polish_passes = 8) {
  RepairResult out;
  const std::size_t k = inst.num_gsps();
  const std::size_t n = inst.num_tasks();
  if (rows.size() != k || parent.size() != n) return out;
  std::size_t max_parent = removed;
  for (const std::size_t p : rows) max_parent = std::max(max_parent, p);
  std::vector<std::size_t> child_of(max_parent + 1, SIZE_MAX);
  for (std::size_t r = 0; r < k; ++r) child_of[rows[r]] = r;

  Assignment a(n, SIZE_MAX);
  std::vector<double> load(k, 0.0);
  std::vector<std::size_t> count(k, 0);
  std::vector<std::size_t> moved;
  for (std::size_t t = 0; t < n; ++t) {
    if (parent[t] == removed) {
      moved.push_back(t);
      continue;
    }
    if (parent[t] > max_parent || child_of[parent[t]] == SIZE_MAX) return out;
    const std::size_t r = child_of[parent[t]];
    a[t] = r;
    load[r] += inst.time(r, t);
    ++count[r];
    out.cost += inst.cost(r, t);
  }
  for (const std::size_t t : moved) {
    std::size_t best_g = SIZE_MAX;
    double best_c = std::numeric_limits<double>::infinity();
    for (std::size_t g = 0; g < k; ++g) {
      if (load[g] + inst.time(g, t) > inst.deadline) continue;
      if (inst.cost(g, t) < best_c) {
        best_c = inst.cost(g, t);
        best_g = g;
      }
    }
    if (best_g == SIZE_MAX) {  // fails with the moves made so far
      out.cost = 0.0;
      return out;
    }
    a[t] = best_g;
    load[best_g] += inst.time(best_g, t);
    ++count[best_g];
    out.cost += best_c;
    ++out.moves;
  }
  for (std::size_t pass = 0; pass < polish_passes; ++pass) {
    bool improved = false;
    for (const std::size_t t : moved) {
      if (reference_relocate(inst, a, load, count, out.cost, t)) {
        ++out.moves;
        improved = true;
      }
    }
    if (!improved) break;
  }
  if (inst.require_all_gsps_used &&
      std::find(count.begin(), count.end(), std::size_t{0}) != count.end()) {
    return RepairResult{};
  }
  out.ok = true;
  out.assignment = std::move(a);
  out.cost = assignment_cost(inst, out.assignment);
  return out;
}

}  // namespace svo::ip::testing
