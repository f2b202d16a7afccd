#include "ip/task_orders.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "util/thread_pool.hpp"

namespace svo::ip {

namespace {

/// Regret from a task's cost-sorted rows. An infinite second cost gives
/// 0, as a scan for the two cheapest GSPs would.
double regret_of(const InstanceView& inst, const std::uint16_t* order,
                 std::size_t k, std::size_t t) {
  if (k < 2) return 0.0;
  const double second = inst.cost(order[1], t);
  return std::isfinite(second) ? second - inst.cost(order[0], t) : 0.0;
}

/// The regret order as a strict total order: a stable sort by
/// descending regret places equal regrets by ascending task index.
struct RegretFirst {
  const std::vector<double>& regret;
  bool operator()(std::size_t a, std::size_t b) const {
    return regret[a] > regret[b] || (regret[a] == regret[b] && a < b);
  }
};

}  // namespace

TaskOrders::TaskOrders(const InstanceView& inst)
    : k_(inst.num_gsps()), n_(inst.num_tasks()) {
  detail::require(k_ <= kMaxGsps,
                  "TaskOrders: more than 65535 GSPs do not fit 16-bit rows");
  gsp_order_.resize(n_ * k_);
  regret_.resize(n_);
  // Each task's row order and regret depend on its own column alone, so
  // blocks of tasks are placed independently, on the pool when large.
  const auto place_tasks = [&](std::size_t first, std::size_t last) {
    std::vector<double> cost(k_);  // one task's column of the cost matrix
    for (std::size_t t = first; t < last; ++t) {
      for (std::size_t g = 0; g < k_; ++g) cost[g] = inst.cost(g, t);
      std::uint16_t* row = gsp_order_.data() + t * k_;
      // Row g's place in the order by (cost, row) is the number of rows
      // before it: the lower rows that cost no more and the higher rows
      // that cost less, so equal costs keep the lower row first, as a
      // stable sort would. Counting is branch-free and beats a
      // comparison sort on pools this narrow (game::Coalition caps them
      // at 64 GSPs).
      for (std::size_t g = 0; g < k_; ++g) {
        const double c = cost[g];
        std::size_t place = 0;
        for (std::size_t h = 0; h < g; ++h) place += cost[h] <= c ? 1 : 0;
        for (std::size_t h = g + 1; h < k_; ++h) place += cost[h] < c ? 1 : 0;
        row[place] = static_cast<std::uint16_t>(g);
      }
      regret_[t] = regret_of(inst, row, k_, t);
    }
  };
  if (n_ * k_ >= kPoolMinCells && util::ThreadPool::global().size() >= 2) {
    constexpr std::size_t kBlock = 256;  // tasks per pool task
    util::parallel_for(
        0, (n_ + kBlock - 1) / kBlock,
        [&](std::size_t b) {
          place_tasks(b * kBlock, std::min(n_, (b + 1) * kBlock));
        },
        1);
  } else {
    place_tasks(0, n_);
  }
  by_regret_.resize(n_);
  std::iota(by_regret_.begin(), by_regret_.end(), std::size_t{0});
  std::sort(by_regret_.begin(), by_regret_.end(), RegretFirst{regret_});
}

TaskOrders TaskOrders::with_capacity(std::size_t num_gsps,
                                     std::size_t num_tasks) {
  TaskOrders out;
  out.gsp_order_.reserve(num_gsps * num_tasks);
  out.regret_.reserve(num_tasks);
  out.by_regret_.reserve(num_tasks);
  return out;
}

TaskOrders TaskOrders::without_row(const InstanceView& child,
                                   std::size_t removed_row) const {
  return without_row(child, removed_row, TaskOrders());
}

TaskOrders TaskOrders::without_row(const InstanceView& child,
                                   std::size_t removed_row,
                                   TaskOrders storage) const {
  detail::require(removed_row < k_, "TaskOrders::without_row: no such row");
  detail::require(child.num_gsps() + 1 == k_ && child.num_tasks() == n_,
                  "TaskOrders::without_row: child is not this instance "
                  "minus one row");
  TaskOrders out = std::move(storage);
  out.k_ = k_ - 1;
  out.n_ = n_;
  out.gsp_order_.resize(n_ * out.k_);
  out.regret_ = regret_;
  // A task's regret changes only if the removed row was one of its two
  // cheapest; every other task keeps its regret and its place.
  std::vector<char> moved(n_, 0);
  std::vector<std::size_t> resorted;
  for (std::size_t t = 0; t < n_; ++t) {
    const std::uint16_t* from = gsp_order(t);
    std::uint16_t* to = out.gsp_order_.data() + t * out.k_;
    const std::size_t at = static_cast<std::size_t>(
        std::find(from, from + k_, removed_row) - from);
    // Drop the removed row; rows above it move down by one.
    const auto renumber = [removed_row](std::uint16_t g) {
      return static_cast<std::uint16_t>(g - (g > removed_row ? 1 : 0));
    };
    std::transform(from, from + at, to, renumber);
    std::transform(from + at + 1, from + k_, to + at, renumber);
    if (at < 2) {
      moved[t] = 1;
      out.regret_[t] = regret_of(child, to, out.k_, t);
      resorted.push_back(t);
    }
  }
  const RegretFirst before{out.regret_};
  std::sort(resorted.begin(), resorted.end(), before);
  std::vector<std::size_t> kept;
  kept.reserve(n_ - resorted.size());
  for (const std::size_t t : by_regret_) {
    if (moved[t] == 0) kept.push_back(t);
  }
  out.by_regret_.resize(n_);
  std::merge(kept.begin(), kept.end(), resorted.begin(), resorted.end(),
             out.by_regret_.begin(), before);
  return out;
}

}  // namespace svo::ip
