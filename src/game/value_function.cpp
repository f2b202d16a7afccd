#include "game/value_function.hpp"

#include <future>

#include "ip/bnb.hpp"
#include "util/thread_pool.hpp"

namespace svo::game {

struct VoValueFunction::Restriction {
  Restriction() = default;
  Restriction(const Restriction&) = delete;
  Restriction& operator=(const Restriction&) = delete;
  /// The seed task reads `sub` and `*orders` in place: join it first.
  ~Restriction() {
    if (seed.valid()) seed.wait();
  }

  Coalition coalition;
  /// Restricted row -> original GSP index.
  std::vector<std::size_t> original;
  ip::AssignmentInstance sub;
  std::unique_ptr<const ip::TaskOrders> orders;
  /// Valid while the solver's seed for `sub` is computed ahead.
  std::future<ip::IncumbentSeed> seed;
};

namespace {

/// Whether a seed may go to the global pool. Not from one of its own
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

VoValueFunction::~VoValueFunction() = default;

const CoalitionEvaluation& VoValueFunction::evaluate(Coalition c) const {
  return evaluate_impl(c, nullptr);
}

const CoalitionEvaluation& VoValueFunction::evaluate(
    Coalition c, const WarmHint& hint) const {
  return evaluate_impl(c, &hint);
}

std::unique_ptr<VoValueFunction::Restriction>
VoValueFunction::make_restriction(Coalition c, Coalition parent,
                                  const ip::TaskOrders* parent_orders) const {
  auto r = std::make_unique<Restriction>();
  r->coalition = c;
  r->sub = inst_.restrict_to(c.mask(inst_.num_gsps()), &r->original);
  if (parent_orders != nullptr) {
    // The removed GSP's row in the parent: its members below it.
    const std::uint64_t removed = parent.bits() & ~c.bits();
    const std::size_t removed_row =
        Coalition(parent.bits() & (removed - 1)).size();
    r->orders = std::make_unique<const ip::TaskOrders>(
        parent_orders->without_row(r->sub, removed_row));
  } else {
    r->orders = std::make_unique<const ip::TaskOrders>(r->sub);
  }
  return r;
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
    const bool prepare_next = hint != nullptr && !hint->next.empty();
    detail::require(!prepare_next || (hint->next.is_subset_of(c) &&
                                      hint->next.size() + 1 == c.size()),
                    "VoValueFunction: hint.next is not the coalition minus "
                    "one member");

    // The coalition the last evaluation prepared, if it is this one.
    std::unique_ptr<Restriction> cur = std::move(next_);
    if (cur != nullptr && cur->coalition != c) cur.reset();
    if (cur == nullptr) {
      // Along the warm chain the parent coalition's orders are the last
      // ones built; the child's are derived from them instead of sorted.
      const bool child_of_last =
          hint != nullptr && orders_ != nullptr && hint->removed_gsp < m &&
          orders_coalition_ == c.with(hint->removed_gsp);
      cur = make_restriction(c, orders_coalition_,
                             child_of_last ? orders_.get() : nullptr);
    }
    orders_.reset();  // c's orders replace them once c is solved

    ip::WarmStart warm;
    warm.orders = cur->orders.get();
    if (hint != nullptr && hint->previous != nullptr) {
      // Mappings are stored in original GSP indices and `original` maps
      // restricted rows back to them, so the repaired incumbent
      // translates through `original` alone.
      warm.reverification = true;
      if (hint->previous->feasible &&
          hint->previous->mapping.size() == inst_.num_tasks()) {
        const ip::RepairResult repaired = ip::repair_for_removal(
            cur->sub, *cur->orders, cur->original, hint->previous->mapping,
            hint->removed_gsp);
        if (repaired.ok) {
          warm.incumbent = repaired.assignment;
          warm.incumbent_cost = repaired.cost;
          warm.repair_moves = repaired.moves;
        }
      }
    }
    // Seed the next coalition on the pool while this one is solved. Its
    // seed depends only on its own instance and orders, so it equals the
    // one its solve would compute (DESIGN.md §4c).
    if (prepare_next && bnb_ != nullptr && pool_takes_seeds()) {
      next_ = make_restriction(hint->next, c, cur->orders.get());
      Restriction& r = *next_;
      r.seed = util::ThreadPool::global().submit(
          [&bnb = *bnb_, &r] { return bnb.seed(r.sub, *r.orders); });
    }
    ip::IncumbentSeed seed;
    if (cur->seed.valid()) {
      seed = cur->seed.get();
      warm.seed = &seed;
      ++seeded_ahead_;
    }
    const ip::AssignmentSolution sol = solver_.solve(cur->sub, warm);
    orders_ = std::move(cur->orders);
    orders_coalition_ = c;
    eval.stats = sol.stats;
    if (sol.has_assignment()) {
      eval.feasible = true;
      eval.cost = sol.cost;
      eval.value = inst_.payment - sol.cost;  // eq. (15)
      eval.mapping.resize(sol.assignment.size());
      for (std::size_t t = 0; t < sol.assignment.size(); ++t) {
        eval.mapping[t] = cur->original[sol.assignment[t]];
      }
    }
  }
  return cache_.emplace(c.bits(), std::move(eval)).first->second;
}

}  // namespace svo::game
