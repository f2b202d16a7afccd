/// Tests for ip::InstanceView: every kernel run on a row view of an
/// instance returns, bit for bit, what it returns on the restrict_to copy
/// of the same rows — exact cost ties, coverage (13) on and off, both
/// greedy orders, the polish, the removal repair, TaskOrders (built and
/// derived), check_feasible, assignment_cost and the full B&B solve.
#include <gtest/gtest.h>

#include <stop_token>
#include <string>
#include <vector>

#include "ip/bnb.hpp"
#include "ip/greedy.hpp"
#include "ip/warm_start.hpp"
#include "tests/ip/test_instances.hpp"

namespace svo::ip {
namespace {

/// Random instance with small integer costs, so many tasks tie on cost
/// and on regret.
AssignmentInstance tied_instance(std::size_t k, std::size_t n,
                                 util::Xoshiro256& rng, bool coverage) {
  AssignmentInstance inst = testing::random_instance(k, n, rng, true);
  for (std::size_t g = 0; g < k; ++g) {
    for (std::size_t t = 0; t < n; ++t) {
      inst.cost(g, t) = static_cast<double>(rng.uniform_int(1, 4));
    }
  }
  inst.require_all_gsps_used = coverage;
  return inst;
}

/// A random non-empty subset of the rows of `inst`, ascending.
std::vector<std::size_t> random_rows(const AssignmentInstance& inst,
                                     util::Xoshiro256& rng) {
  std::vector<std::size_t> rows;
  for (std::size_t g = 0; g < inst.num_gsps(); ++g) {
    if (rng.uniform(0.0, 1.0) < 0.7) rows.push_back(g);
  }
  if (rows.empty()) rows.push_back(rng.index(inst.num_gsps()));
  return rows;
}

AssignmentInstance copy_of(const AssignmentInstance& inst,
                           const std::vector<std::size_t>& rows) {
  std::vector<bool> keep(inst.num_gsps(), false);
  for (const std::size_t g : rows) keep[g] = true;
  return inst.restrict_to(keep);
}

void expect_same_solution(const AssignmentSolution& got,
                          const AssignmentSolution& want) {
  EXPECT_EQ(got.stats.status, want.stats.status);
  EXPECT_EQ(got.stats.nodes, want.stats.nodes);
  EXPECT_EQ(got.stats.warm_start_used, want.stats.warm_start_used);
  EXPECT_EQ(got.stats.incumbent_reused_cost, want.stats.incumbent_reused_cost);
  EXPECT_EQ(got.stats.repair_moves, want.stats.repair_moves);
  EXPECT_EQ(got.assignment, want.assignment);
  EXPECT_EQ(got.cost, want.cost);
  EXPECT_EQ(got.lower_bound, want.lower_bound);
}

TEST(InstanceViewTest, ReadsTheRowsTheCopyHolds) {
  util::Xoshiro256 rng(3);
  const AssignmentInstance inst = tied_instance(6, 9, rng, true);
  const std::vector<std::size_t> rows = {0, 2, 5};
  const InstanceView view(inst, rows);
  const AssignmentInstance sub = copy_of(inst, rows);
  ASSERT_EQ(view.num_gsps(), 3u);
  ASSERT_EQ(view.num_tasks(), 9u);
  EXPECT_EQ(view.original_gsps(), rows);
  EXPECT_EQ(view.deadline, inst.deadline);
  EXPECT_EQ(view.payment, inst.payment);
  EXPECT_EQ(view.require_all_gsps_used, inst.require_all_gsps_used);
  for (std::size_t g = 0; g < 3; ++g) {
    for (std::size_t t = 0; t < 9; ++t) {
      EXPECT_EQ(view.cost(g, t), sub.cost(g, t));
      EXPECT_EQ(view.time(g, t), sub.time(g, t));
    }
  }
  const AssignmentInstance copy = view.materialize();
  EXPECT_EQ(copy.cost.data(), sub.cost.data());
  EXPECT_EQ(copy.time.data(), sub.time.data());
  EXPECT_EQ(copy.deadline, sub.deadline);
  EXPECT_EQ(copy.payment, sub.payment);

  const InstanceView full(inst);
  EXPECT_EQ(full.num_gsps(), inst.num_gsps());
  EXPECT_EQ(full.original_gsps(), (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
}

TEST(InstanceViewTest, RejectsUnorderedRowsAndMismatchedShapes) {
  util::Xoshiro256 rng(5);
  const AssignmentInstance inst = testing::random_instance(4, 6, rng);
  EXPECT_THROW((void)(InstanceView(inst, {1, 1})), InvalidArgument);
  EXPECT_THROW((void)(InstanceView(inst, {2, 0})), InvalidArgument);
  EXPECT_THROW((void)(InstanceView(inst, {0, 4})), InvalidArgument);
  AssignmentInstance bad = inst;
  bad.time = linalg::Matrix(3, 6, 1.0);
  EXPECT_THROW((void)InstanceView(bad), InvalidArgument);
  EXPECT_THROW(bad.validate(), InvalidArgument);
}

TEST(InstanceViewTest, EveryKernelOnAViewEqualsItOnTheCopy) {
  BnbOptions budgeted_opts;
  budgeted_opts.max_nodes = 50;
  const BnbAssignmentSolver budgeted(budgeted_opts);
  const BnbAssignmentSolver exact;
  const GreedyAssignmentSolver greedy;
  std::size_t seeded = 0;
  for (std::uint64_t s = 1; s <= 40; ++s) {
    util::Xoshiro256 rng(s * 7 + 1);
    const bool coverage = s % 2 == 0;
    const AssignmentInstance inst =
        s % 3 == 0 ? testing::random_instance(2 + s % 6, 12, rng, true)
                   : tied_instance(2 + s % 6, 12, rng, coverage);
    const std::vector<std::size_t> rows = random_rows(inst, rng);
    SCOPED_TRACE("seed " + std::to_string(s) + ", " +
                 std::to_string(rows.size()) + " rows");
    const InstanceView view(inst, rows);
    const AssignmentInstance sub = copy_of(inst, rows);

    const TaskOrders orders(view);
    const TaskOrders sub_orders(sub);
    EXPECT_TRUE(orders == sub_orders);

    for (const auto order : {GreedyOptions::Order::RegretDescending,
                             GreedyOptions::Order::TimeDescending}) {
      const Assignment a = greedy_construct(view, orders, order);
      EXPECT_EQ(a, greedy_construct(sub, sub_orders, order));
      if (a.empty()) continue;
      ++seeded;
      Assignment on_view = a;
      Assignment on_copy = a;
      EXPECT_EQ(local_search(view, orders, on_view),
                local_search(sub, sub_orders, on_copy));
      EXPECT_EQ(on_view, on_copy);
      EXPECT_EQ(assignment_cost(view, on_view), assignment_cost(sub, on_copy));
      EXPECT_EQ(check_feasible(view, on_view), check_feasible(sub, on_copy));
    }
    // check_feasible's message on infeasible mappings too.
    for (int trial = 0; trial < 4; ++trial) {
      Assignment a(inst.num_tasks());
      for (std::size_t& g : a) g = rng.index(rows.size());
      EXPECT_EQ(check_feasible(view, a), check_feasible(sub, a));
      EXPECT_EQ(assignment_cost(view, a), assignment_cost(sub, a));
    }
    const IncumbentSeed seed = exact.seed(view, orders);
    const IncumbentSeed sub_seed = exact.seed(sub, sub_orders);
    EXPECT_EQ(seed.assignment, sub_seed.assignment);
    EXPECT_EQ(seed.cost, sub_seed.cost);

    for (const BnbAssignmentSolver* solver : {&budgeted, &exact}) {
      WarmStart warm;
      warm.orders = &orders;
      WarmStart sub_warm;
      sub_warm.orders = &sub_orders;
      expect_same_solution(solver->solve_view(view, warm),
                           solver->solve(sub, sub_warm));
      expect_same_solution(solver->solve_view(view, WarmStart{}),
                           solver->solve(sub));
    }
    // The default solve_view solves the materialized copy.
    WarmStart greedy_warm;
    greedy_warm.orders = &orders;
    expect_same_solution(greedy.solve_view(view, greedy_warm),
                         greedy.solve(sub, greedy_warm));

    // One more row removed: derived orders and the removal repair.
    if (rows.size() < 2) continue;
    const std::size_t removed_row = rng.index(rows.size());
    std::vector<std::size_t> child_rows = rows;
    child_rows.erase(child_rows.begin() +
                     static_cast<std::ptrdiff_t>(removed_row));
    const InstanceView child(inst, child_rows);
    const AssignmentInstance child_sub = copy_of(inst, child_rows);
    const TaskOrders child_orders = orders.without_row(child, removed_row);
    EXPECT_TRUE(child_orders ==
                sub_orders.without_row(child_sub, removed_row));
    EXPECT_TRUE(child_orders == TaskOrders(child_sub));
    // Built in handed buffers, empty or holding other orders.
    EXPECT_TRUE(child_orders ==
                orders.without_row(child, removed_row,
                                   TaskOrders::with_capacity(
                                       child_rows.size(), inst.num_tasks())));
    EXPECT_TRUE(child_orders ==
                orders.without_row(child, removed_row, TaskOrders(sub)));
    const AssignmentSolution parent = exact.solve(sub);
    if (!parent.has_assignment()) continue;
    Assignment parent_mapping(parent.assignment.size());
    for (std::size_t t = 0; t < parent_mapping.size(); ++t) {
      parent_mapping[t] = rows[parent.assignment[t]];
    }
    const RepairResult repaired =
        repair_for_removal(child, child_orders, child_rows, parent_mapping,
                           rows[removed_row]);
    const RepairResult want = repair_for_removal(
        child_sub, TaskOrders(child_sub), child_rows, parent_mapping,
        rows[removed_row]);
    EXPECT_EQ(repaired.ok, want.ok);
    EXPECT_EQ(repaired.assignment, want.assignment);
    EXPECT_EQ(repaired.cost, want.cost);
    EXPECT_EQ(repaired.moves, want.moves);
  }
  EXPECT_GT(seeded, 20u);
}

TEST(InstanceViewTest, StoppedSeedIsCancelledAndIgnored) {
  util::Xoshiro256 rng(21);
  const AssignmentInstance inst = testing::random_instance(5, 40, rng);
  const InstanceView view(inst, {0, 1, 3, 4});
  const TaskOrders orders(view);
  BnbOptions opts;
  opts.max_nodes = 30;  // truncated: the seed decides the answer
  const BnbAssignmentSolver solver(opts);
  std::stop_source stop;
  stop.request_stop();
  const IncumbentSeed cancelled = solver.seed(view, orders, stop.get_token());
  EXPECT_TRUE(cancelled.cancelled);
  EXPECT_TRUE(cancelled.assignment.empty());
  EXPECT_TRUE(greedy_construct(view, orders,
                               GreedyOptions::Order::RegretDescending,
                               stop.get_token())
                  .empty());
  // A stopped polish leaves its feasible entry assignment as it is.
  Assignment a = greedy_construct(view, orders,
                                  GreedyOptions::Order::RegretDescending);
  ASSERT_FALSE(a.empty());
  const Assignment entry = a;
  EXPECT_EQ(local_search(view, orders, a, opts.polish, stop.get_token()),
            assignment_cost(view, entry));
  EXPECT_EQ(a, entry);

  WarmStart own;
  own.orders = &orders;
  WarmStart handed = own;
  handed.seed = &cancelled;
  expect_same_solution(solver.solve_view(view, handed),
                       solver.solve_view(view, own));
}

}  // namespace
}  // namespace svo::ip
