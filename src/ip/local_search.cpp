#include "ip/local_search.hpp"

#include <algorithm>
#include <string>

#include "util/rng.hpp"

namespace svo::ip {

namespace {

/// Tasks a pass handles between two polls of its stop token.
constexpr std::size_t kStopPollTasks = 256;

/// Whether a pass at task `t` should give up.
bool stopped(const std::stop_token& stop, std::size_t t) {
  return t % kStopPollTasks == 0 && stop.stop_requested();
}

/// Mutable view of an assignment's per-GSP state.
struct State {
  std::vector<double> load;             // summed time per GSP
  std::vector<std::size_t> task_count;  // tasks per GSP
  double cost = 0.0;

  State(const InstanceView& inst, const Assignment& a)
      : load(inst.num_gsps(), 0.0), task_count(inst.num_gsps(), 0) {
    for (std::size_t t = 0; t < a.size(); ++t) {
      load[a[t]] += inst.time(a[t], t);
      ++task_count[a[t]];
      cost += inst.cost(a[t], t);
    }
  }
};

/// One relocation pass; returns true if any move improved the cost.
/// Each task moves to its cheapest strictly cheaper GSP that fits. A
/// stopped pass returns false.
bool move_pass(const InstanceView& inst, const TaskOrders& orders,
               Assignment& a, State& st, const std::stop_token& stop) {
  bool improved = false;
  for (std::size_t t = 0; t < a.size(); ++t) {
    if (stopped(stop, t)) return false;
    const std::size_t from = a[t];
    // Donor must keep at least one task when (13) is enforced.
    if (inst.require_all_gsps_used && st.task_count[from] <= 1) continue;
    const double c_from = inst.cost(from, t);
    const std::size_t to = orders.cheapest_fit(inst, t, st.load, c_from);
    if (to == SIZE_MAX) continue;
    st.load[from] -= inst.time(from, t);
    --st.task_count[from];
    st.load[to] += inst.time(to, t);
    ++st.task_count[to];
    st.cost += inst.cost(to, t) - c_from;
    a[t] = to;
    improved = true;
  }
  return improved;
}

/// Try swapping the GSPs of tasks t and u; applies and returns true when
/// the swap is cost-improving and feasible.
bool try_swap(const InstanceView& inst, Assignment& a, State& st,
              std::size_t t, std::size_t u) {
  const std::size_t gt = a[t];
  const std::size_t gu = a[u];
  if (gt == gu) return false;
  const double delta = inst.cost(gu, t) + inst.cost(gt, u) -
                       inst.cost(gt, t) - inst.cost(gu, u);
  if (delta >= -1e-12) return false;
  const double new_load_gt =
      st.load[gt] - inst.time(gt, t) + inst.time(gt, u);
  const double new_load_gu =
      st.load[gu] - inst.time(gu, u) + inst.time(gu, t);
  if (new_load_gt > inst.deadline || new_load_gu > inst.deadline) return false;
  st.load[gt] = new_load_gt;
  st.load[gu] = new_load_gu;
  st.cost += delta;
  std::swap(a[t], a[u]);
  return true;
}

}  // namespace

double local_search(const AssignmentInstance& inst, Assignment& a,
                    const LocalSearchOptions& opts) {
  inst.validate();
  const InstanceView view(inst);
  return local_search(view, TaskOrders(view), a, opts);
}

double local_search(const InstanceView& inst, const TaskOrders& orders,
                    Assignment& a, const LocalSearchOptions& opts,
                    std::stop_token stop) {
  detail::require(orders.num_gsps() == inst.num_gsps() &&
                      orders.num_tasks() == inst.num_tasks(),
                  "local_search: task orders of another instance");
  // Payment (10) is allowed to be violated on entry — local search only
  // reduces cost, the caller decides.
  const std::string entry = check_feasible(inst, a);
  detail::require(entry.empty() || entry.rfind("payment", 0) == 0,
                  "local_search: entry assignment violates (11)-(13)");
  State st(inst, a);
  for (std::size_t pass = 0; pass < opts.max_move_passes; ++pass) {
    if (!move_pass(inst, orders, a, st, stop)) break;
  }
  if (opts.max_swap_passes > 0 && inst.num_gsps() > 1 && a.size() > 1) {
    util::Xoshiro256 rng(opts.seed);
    for (std::size_t pass = 0; pass < opts.max_swap_passes; ++pass) {
      bool improved = false;
      if (opts.swap_sample_per_task == 0) {
        for (std::size_t t = 0; t + 1 < a.size(); ++t) {
          if (stopped(stop, t)) return st.cost;
          for (std::size_t u = t + 1; u < a.size(); ++u) {
            improved |= try_swap(inst, a, st, t, u);
          }
        }
      } else {
        for (std::size_t t = 0; t < a.size(); ++t) {
          if (stopped(stop, t)) return st.cost;
          for (std::size_t s = 0; s < opts.swap_sample_per_task; ++s) {
            const std::size_t u = rng.index(a.size());
            if (u != t) improved |= try_swap(inst, a, st, t, u);
          }
        }
      }
      // A swap pass may open relocation opportunities.
      if (improved) {
        while (move_pass(inst, orders, a, st, stop)) {
        }
      } else {
        break;
      }
    }
  }
  return st.cost;
}

}  // namespace svo::ip
