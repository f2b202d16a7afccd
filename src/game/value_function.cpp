#include "game/value_function.hpp"

namespace svo::game {

VoValueFunction::VoValueFunction(const ip::AssignmentInstance& inst,
                                 const ip::AssignmentSolver& solver)
    : inst_(inst), solver_(solver) {
  inst_.validate();
  detail::require(inst_.num_gsps() <= Coalition::kMaxPlayers,
                  "VoValueFunction: more than 64 GSPs");
}

const CoalitionEvaluation& VoValueFunction::evaluate(Coalition c) const {
  return evaluate_impl(c, nullptr);
}

const CoalitionEvaluation& VoValueFunction::evaluate(
    Coalition c, const WarmHint& hint) const {
  return evaluate_impl(c, &hint);
}

const CoalitionEvaluation& VoValueFunction::evaluate_impl(
    Coalition c, const WarmHint* hint) const {
  const auto it = cache_.find(c.bits());
  if (it != cache_.end()) return it->second;

  CoalitionEvaluation eval;
  if (!c.empty()) {
    detail::require(Coalition::all(inst_.num_gsps()).bits() ==
                        (c.bits() | Coalition::all(inst_.num_gsps()).bits()),
                    "VoValueFunction: coalition has players outside the game");
    std::vector<std::size_t> original;
    const ip::AssignmentInstance sub =
        inst_.restrict_to(c.mask(inst_.num_gsps()), &original);

    // Along the warm chain the parent coalition's orders are the last
    // ones built; the child's are derived from them instead of sorted.
    std::unique_ptr<const ip::TaskOrders> orders;
    if (hint != nullptr && orders_ != nullptr &&
        hint->removed_gsp < inst_.num_gsps() &&
        orders_coalition_ == c.with(hint->removed_gsp)) {
      // The removed GSP's row in the parent: its members below it.
      const std::size_t removed_row =
          Coalition(orders_coalition_.bits() &
                    ((std::uint64_t{1} << hint->removed_gsp) - 1))
              .size();
      orders = std::make_unique<const ip::TaskOrders>(
          orders_->without_row(sub, removed_row));
    } else {
      orders = std::make_unique<const ip::TaskOrders>(sub);
    }

    ip::WarmStart warm;
    warm.orders = orders.get();
    if (hint != nullptr) {
      // Mappings are stored in original GSP indices and `original` maps
      // restricted rows back to them, so the repaired incumbent
      // translates through `original` alone.
      warm.reverification = true;
      if (hint->previous != nullptr && hint->previous->feasible &&
          hint->previous->mapping.size() == inst_.num_tasks()) {
        const ip::RepairResult repaired = ip::repair_for_removal(
            sub, *orders, original, hint->previous->mapping,
            hint->removed_gsp);
        if (repaired.ok) {
          warm.incumbent = repaired.assignment;
          warm.incumbent_cost = repaired.cost;
          warm.repair_moves = repaired.moves;
        }
      }
    }
    const ip::AssignmentSolution sol = solver_.solve(sub, warm);
    orders_ = std::move(orders);
    orders_coalition_ = c;
    eval.stats = sol.stats;
    if (sol.has_assignment()) {
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
