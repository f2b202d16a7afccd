#include "ip/assignment.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "ip/warm_start.hpp"

namespace svo::ip {

AssignmentSolution AssignmentSolver::solve(const AssignmentInstance& inst,
                                           const WarmStart& /*warm*/) const {
  return solve(inst);
}

AssignmentSolution AssignmentSolver::solve_view(const InstanceView& view,
                                                const WarmStart& warm) const {
  return solve(view.materialize(), warm);
}

const char* to_string(AssignStatus s) noexcept {
  switch (s) {
    case AssignStatus::Optimal: return "Optimal";
    case AssignStatus::Feasible: return "Feasible";
    case AssignStatus::Infeasible: return "Infeasible";
    case AssignStatus::Unknown: return "Unknown";
  }
  return "Invalid";
}

void AssignmentInstance::validate() const { InstanceView(*this).validate(); }

AssignmentInstance AssignmentInstance::restrict_to(
    const std::vector<bool>& keep,
    std::vector<std::size_t>* original_gsps) const {
  if (keep.size() != num_gsps()) {
    throw DimensionMismatch("AssignmentInstance::restrict_to: bad keep size");
  }
  std::vector<std::size_t> rows;
  for (std::size_t g = 0; g < num_gsps(); ++g) {
    if (keep[g]) rows.push_back(g);
  }
  AssignmentInstance sub = InstanceView(*this, rows).materialize();
  if (original_gsps != nullptr) *original_gsps = std::move(rows);
  return sub;
}

namespace {

void require_same_shape(const AssignmentInstance& inst) {
  detail::require(inst.cost.rows() == inst.time.rows() &&
                      inst.cost.cols() == inst.time.cols(),
                  "AssignmentInstance: cost/time shape mismatch");
}

}  // namespace

InstanceView::InstanceView(const AssignmentInstance& inst)
    : deadline(inst.deadline),
      payment(inst.payment),
      require_all_gsps_used(inst.require_all_gsps_used),
      n_(inst.num_tasks()),
      rows_(inst.num_gsps()),
      cost_(inst.num_gsps()),
      time_(inst.num_gsps()) {
  require_same_shape(inst);
  for (std::size_t g = 0; g < rows_.size(); ++g) {
    rows_[g] = g;
    cost_[g] = inst.cost.row(g).data();
    time_[g] = inst.time.row(g).data();
  }
}

InstanceView::InstanceView(const AssignmentInstance& inst,
                           std::vector<std::size_t> rows)
    : deadline(inst.deadline),
      payment(inst.payment),
      require_all_gsps_used(inst.require_all_gsps_used),
      n_(inst.num_tasks()),
      rows_(std::move(rows)),
      cost_(rows_.size()),
      time_(rows_.size()) {
  require_same_shape(inst);
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    detail::require(rows_[r] < inst.num_gsps() &&
                        (r == 0 || rows_[r - 1] < rows_[r]),
                    "InstanceView: rows must ascend strictly within range");
    cost_[r] = inst.cost.row(rows_[r]).data();
    time_[r] = inst.time.row(rows_[r]).data();
  }
}

void InstanceView::validate() const {
  detail::require(num_gsps() > 0 && num_tasks() > 0,
                  "AssignmentInstance: empty instance");
  detail::require(deadline > 0.0, "AssignmentInstance: deadline must be > 0");
  detail::require(payment >= 0.0, "AssignmentInstance: payment must be >= 0");
  for (std::size_t g = 0; g < num_gsps(); ++g) {
    for (std::size_t t = 0; t < num_tasks(); ++t) {
      detail::require(cost(g, t) >= 0.0, "AssignmentInstance: negative cost");
      detail::require(time(g, t) > 0.0,
                      "AssignmentInstance: non-positive execution time");
    }
  }
}

AssignmentInstance InstanceView::materialize() const {
  AssignmentInstance out;
  out.cost = linalg::Matrix(num_gsps(), num_tasks());
  out.time = linalg::Matrix(num_gsps(), num_tasks());
  for (std::size_t g = 0; g < num_gsps(); ++g) {
    std::copy(cost_[g], cost_[g] + n_, out.cost.row(g).begin());
    std::copy(time_[g], time_[g] + n_, out.time.row(g).begin());
  }
  out.deadline = deadline;
  out.payment = payment;
  out.require_all_gsps_used = require_all_gsps_used;
  return out;
}

double assignment_cost(const InstanceView& inst, const Assignment& a) {
  if (a.size() != inst.num_tasks()) {
    throw DimensionMismatch("assignment_cost: assignment arity != num_tasks");
  }
  double acc = 0.0;
  for (std::size_t t = 0; t < a.size(); ++t) {
    detail::require(a[t] < inst.num_gsps(),
                    "assignment_cost: GSP index out of range");
    acc += inst.cost(a[t], t);
  }
  return acc;
}

std::string check_feasible(const InstanceView& inst, const Assignment& a,
                           double tol) {
  if (a.size() != inst.num_tasks()) {
    return "arity: assignment size != number of tasks";  // violates (12)
  }
  const std::size_t k = inst.num_gsps();
  std::vector<double> load(k, 0.0);
  std::vector<std::size_t> tasks_per_gsp(k, 0);
  double total_cost = 0.0;
  for (std::size_t t = 0; t < a.size(); ++t) {
    if (a[t] >= k) return "range: GSP index out of range";
    load[a[t]] += inst.time(a[t], t);
    ++tasks_per_gsp[a[t]];
    total_cost += inst.cost(a[t], t);
  }
  for (std::size_t g = 0; g < k; ++g) {
    if (load[g] > inst.deadline + tol) {
      std::ostringstream os;
      os << "deadline (11): GSP " << g << " load " << load[g] << " > d="
         << inst.deadline;
      return os.str();
    }
  }
  if (inst.require_all_gsps_used) {
    for (std::size_t g = 0; g < k; ++g) {
      if (tasks_per_gsp[g] == 0) {
        std::ostringstream os;
        os << "coverage (13): GSP " << g << " has no task";
        return os.str();
      }
    }
  }
  if (total_cost > inst.payment + tol) {
    std::ostringstream os;
    os << "payment (10): total cost " << total_cost << " > P="
       << inst.payment;
    return os.str();
  }
  return {};
}

}  // namespace svo::ip
