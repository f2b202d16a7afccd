#include "game/value_function.hpp"

#include <algorithm>
#include <future>
#include <stop_token>

#include "ip/bnb.hpp"
#include "util/thread_pool.hpp"

namespace svo::game {

struct VoValueFunction::Prepared {
  Prepared(const ip::AssignmentInstance& inst, Coalition c)
      : coalition(c), view(inst, c.members()) {}
  Prepared(const Prepared&) = delete;
  Prepared& operator=(const Prepared&) = delete;
  /// The pool task reads `view` and its parent's orders and writes
  /// `orders` in place: stop it and join it first.
  ~Prepared() {
    stop.request_stop();
    if (seed.valid()) seed.wait();
  }

  Coalition coalition;
  /// The coalition's rows of the instance; view row -> original GSP
  /// index is view.original_gsps().
  ip::InstanceView view;
  /// Built on the calling thread, or by the pool task when prepared
  /// ahead; `orders_ready` becomes ready with `orders.get()` once built
  /// (null when the task was stopped first).
  std::unique_ptr<const ip::TaskOrders> orders;
  std::promise<const ip::TaskOrders*> orders_promise;
  std::shared_future<const ip::TaskOrders*> orders_ready =
      orders_promise.get_future().share();
  /// Requested when the coalition is dropped before its evaluation.
  std::stop_source stop;
  /// Valid while the solver's seed for `view` is computed ahead.
  std::future<ip::IncumbentSeed> seed;
};

namespace {

/// Whether seeds may go to the global pool. Not from one of its own
/// workers: sim::ExperimentRunner runs repetitions there, and a worker
/// blocked on a task that needs a free worker can deadlock the pool.
/// Not without a second worker either, as nothing would run alongside.
bool pool_takes_seeds() {
  const util::ThreadPool& pool = util::ThreadPool::global();
  return pool.size() >= 2 && !pool.on_worker_thread();
}

}  // namespace

VoValueFunction::VoValueFunction(const ip::AssignmentInstance& inst,
                                 const ip::AssignmentSolver& solver)
    : inst_(inst),
      solver_(solver),
      bnb_(dynamic_cast<const ip::BnbAssignmentSolver*>(&solver)) {
  inst_.validate();
  detail::require(inst_.num_gsps() <= Coalition::kMaxPlayers,
                  "VoValueFunction: more than 64 GSPs");
}

VoValueFunction::~VoValueFunction() { drop_ahead(0); }

const CoalitionEvaluation& VoValueFunction::evaluate(Coalition c) const {
  return evaluate_impl(c, nullptr);
}

const CoalitionEvaluation& VoValueFunction::evaluate(
    Coalition c, const WarmHint& hint) const {
  return evaluate_impl(c, &hint);
}

std::size_t VoValueFunction::lookahead_depth() const noexcept {
  if (bnb_ == nullptr || !pool_takes_seeds()) return 0;
  return util::ThreadPool::global().size() - 1;
}

namespace {

/// Row of `parent` that `child` (parent minus one member) lacks: the
/// removed member's rank among the parent's members.
std::size_t removed_row(Coalition parent, Coalition child) {
  const std::uint64_t removed = parent.bits() & ~child.bits();
  return Coalition(parent.bits() & (removed - 1)).size();
}

}  // namespace

std::unique_ptr<VoValueFunction::Prepared> VoValueFunction::prepare(
    Coalition c, Coalition parent, const ip::TaskOrders* parent_orders) const {
  auto r = std::make_unique<Prepared>(inst_, c);
  r->orders = std::make_unique<const ip::TaskOrders>(
      parent_orders != nullptr
          ? parent_orders->without_row(r->view, removed_row(parent, c))
          : ip::TaskOrders(r->view));
  r->orders_promise.set_value(r->orders.get());
  return r;
}

void VoValueFunction::prepare_ahead(Coalition c, const Prepared& cur) const {
  // The parent's orders are `cur`'s, built already, or those of the last
  // coalition prepared, published by its task: that task was submitted
  // earlier to the same FIFO pool, so it has started when this one waits
  // for it. The parent's orders outlive this task's use of them: they
  // are freed once the coalition after the parent is evaluated (which
  // waits for its orders) or dropped (which joins its task).
  const Prepared& parent = ahead_.empty() ? cur : *ahead_.back();
  const std::shared_future<const ip::TaskOrders*> from = parent.orders_ready;
  const std::size_t row = removed_row(parent.coalition, c);
  ahead_.push_back(std::make_unique<Prepared>(inst_, c));
  Prepared& r = *ahead_.back();
  // The orders' buffers are allocated on this thread, which frees them:
  // allocated on a worker, they stayed reserved in its malloc arena and
  // raised the peak RSS of 8192 x 16 runs by about 3 MB.
  r.seed = util::ThreadPool::global().submit(
      [&bnb = *bnb_, &r, from, row, stop = r.stop.get_token(),
       storage = ip::TaskOrders::with_capacity(c.size(),
                                               inst_.num_tasks())]() mutable {
        try {
          // A dropped parent publishes no orders; its children are
          // dropped with it.
          const ip::TaskOrders* parent_orders = from.get();
          if (parent_orders != nullptr && !stop.stop_requested()) {
            r.orders = std::make_unique<const ip::TaskOrders>(
                parent_orders->without_row(r.view, row, std::move(storage)));
          }
          r.orders_promise.set_value(r.orders.get());
        } catch (...) {
          r.orders_promise.set_exception(std::current_exception());
          throw;
        }
        if (r.orders == nullptr) return ip::IncumbentSeed{{}, 0.0, true};
        return bnb.seed(r.view, *r.orders, stop);
      });
}

void VoValueFunction::drop_ahead(std::size_t first) const {
  // Stop every dropped seed before joining any, so they wind down
  // together; free the last first, as each task reads its parent's
  // orders.
  for (std::size_t i = first; i < ahead_.size(); ++i) {
    ahead_[i]->stop.request_stop();
  }
  while (ahead_.size() > first) ahead_.pop_back();
}

const CoalitionEvaluation& VoValueFunction::evaluate_impl(
    Coalition c, const WarmHint* hint) const {
  const auto it = cache_.find(c.bits());
  if (it != cache_.end()) return it->second;

  CoalitionEvaluation eval;
  if (!c.empty()) {
    const std::size_t m = inst_.num_gsps();
    detail::require(Coalition::all(m).bits() ==
                        (c.bits() | Coalition::all(m).bits()),
                    "VoValueFunction: coalition has players outside the game");
    static const std::vector<Coalition> kNoChain;
    const std::vector<Coalition>& chain =
        hint != nullptr ? hint->chain : kNoChain;
    Coalition parent = c;
    for (const Coalition next : chain) {
      detail::require(next.is_subset_of(parent) &&
                          next.size() + 1 == parent.size(),
                      "VoValueFunction: hint.chain is not a chain of single "
                      "removals from the coalition");
      parent = next;
    }

    // The coalition prepared first, if it is this one; any other
    // prepared ones are off the chain.
    std::unique_ptr<Prepared> cur;
    if (!ahead_.empty() && ahead_.front()->coalition == c) {
      cur = std::move(ahead_.front());
      ahead_.pop_front();
      cur->orders_ready.get();  // its task derives them from orders_
    } else {
      drop_ahead(0);
      // Along the warm chain the parent coalition's orders are the last
      // ones built; the child's are derived from them instead of sorted.
      const bool child_of_last =
          hint != nullptr && orders_ != nullptr && hint->removed_gsp < m &&
          orders_coalition_ == c.with(hint->removed_gsp);
      cur = prepare(c, orders_coalition_,
                    child_of_last ? orders_.get() : nullptr);
    }
    orders_.reset();  // c's orders replace them once c is solved

    // Keep the prepared coalitions a prefix of the chain, and prepare
    // the chain on the pool up to the lookahead depth while c is solved.
    // A seed depends only on its own view and orders, so it equals the
    // one its solve would compute (DESIGN.md §4c).
    std::size_t kept = 0;
    while (kept < ahead_.size() && kept < chain.size() &&
           ahead_[kept]->coalition == chain[kept]) {
      ++kept;
    }
    drop_ahead(kept);
    const std::size_t depth = std::min(chain.size(), lookahead_depth());
    while (ahead_.size() < depth) prepare_ahead(chain[ahead_.size()], *cur);

    ip::WarmStart warm;
    warm.orders = cur->orders.get();
    if (hint != nullptr && hint->previous != nullptr) {
      // Mappings are stored in original GSP indices and the view maps
      // its rows back to them, so the repaired incumbent translates
      // through the view alone.
      warm.reverification = true;
      if (hint->previous->feasible &&
          hint->previous->mapping.size() == inst_.num_tasks()) {
        const ip::RepairResult repaired = ip::repair_for_removal(
            cur->view, *cur->orders, cur->view.original_gsps(),
            hint->previous->mapping, hint->removed_gsp);
        if (repaired.ok) {
          warm.incumbent = repaired.assignment;
          warm.incumbent_cost = repaired.cost;
          warm.repair_moves = repaired.moves;
        }
      }
    }
    ip::IncumbentSeed seed;
    if (cur->seed.valid()) {
      seed = cur->seed.get();
      warm.seed = &seed;
      ++seeded_ahead_;
    }
    const ip::AssignmentSolution sol = solver_.solve_view(cur->view, warm);
    orders_ = std::move(cur->orders);
    orders_coalition_ = c;
    eval.stats = sol.stats;
    if (sol.has_assignment()) {
      const std::vector<std::size_t>& original = cur->view.original_gsps();
      eval.feasible = true;
      eval.cost = sol.cost;
      eval.value = inst_.payment - sol.cost;  // eq. (15)
      eval.mapping.resize(sol.assignment.size());
      for (std::size_t t = 0; t < sol.assignment.size(); ++t) {
        eval.mapping[t] = original[sol.assignment[t]];
      }
    }
  }
  return cache_.emplace(c.bits(), std::move(eval)).first->second;
}

}  // namespace svo::game
