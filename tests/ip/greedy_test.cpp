#include "ip/greedy.hpp"

#include <gtest/gtest.h>

#include "tests/ip/test_instances.hpp"

namespace svo::ip {
namespace {

TEST(GreedyConstructTest, ProducesCoverageSatisfyingAssignment) {
  util::Xoshiro256 rng(3);
  for (int trial = 0; trial < 25; ++trial) {
    const AssignmentInstance inst = testing::random_instance(4, 16, rng);
    const Assignment a =
        greedy_construct(inst, GreedyOptions::Order::RegretDescending);
    ASSERT_FALSE(a.empty());
    // (11)-(13) must hold (payment is not greedy_construct's concern).
    AssignmentInstance no_pay = inst;
    no_pay.payment = 1e18;
    EXPECT_EQ(check_feasible(no_pay, a), "");
  }
}

TEST(GreedyConstructTest, BothOrdersWork) {
  util::Xoshiro256 rng(5);
  const AssignmentInstance inst = testing::random_instance(3, 9, rng);
  EXPECT_FALSE(
      greedy_construct(inst, GreedyOptions::Order::RegretDescending).empty());
  EXPECT_FALSE(
      greedy_construct(inst, GreedyOptions::Order::TimeDescending).empty());
}

TEST(GreedyConstructTest, FailsWhenMoreGspsThanTasks) {
  util::Xoshiro256 rng(7);
  const AssignmentInstance inst = testing::random_instance(5, 3, rng);
  EXPECT_TRUE(
      greedy_construct(inst, GreedyOptions::Order::RegretDescending).empty());
}

TEST(GreedyConstructTest, FailsOnImpossibleDeadline) {
  AssignmentInstance inst;
  inst.cost = linalg::Matrix(2, 4, 1.0);
  inst.time = linalg::Matrix(2, 4, 5.0);
  inst.deadline = 4.0;
  inst.payment = 100.0;
  EXPECT_TRUE(
      greedy_construct(inst, GreedyOptions::Order::RegretDescending).empty());
}

TEST(GreedySolverTest, FeasibleResultRespectsAllConstraints) {
  util::Xoshiro256 rng(9);
  for (int trial = 0; trial < 25; ++trial) {
    const AssignmentInstance inst =
        testing::random_instance(3, 10, rng, /*tight=*/true);
    const AssignmentSolution sol = GreedyAssignmentSolver().solve(inst);
    if (sol.stats.status == AssignStatus::Feasible) {
      EXPECT_EQ(check_feasible(inst, sol.assignment), "");
      EXPECT_NEAR(sol.cost, assignment_cost(inst, sol.assignment), 1e-9);
    } else {
      EXPECT_EQ(sol.stats.status, AssignStatus::Unknown);  // heuristics never prove
    }
  }
}

TEST(GreedySolverTest, NeverClaimsOptimality) {
  util::Xoshiro256 rng(11);
  const AssignmentInstance inst = testing::random_instance(3, 8, rng);
  EXPECT_NE(GreedyAssignmentSolver().solve(inst).stats.status,
            AssignStatus::Optimal);
}

TEST(GreedySolverTest, PolishNeverWorsensCost) {
  util::Xoshiro256 rng(13);
  int compared = 0;
  for (int trial = 0; trial < 15; ++trial) {
    const AssignmentInstance inst = testing::random_instance(4, 12, rng);
    // The solver's unpolished construction: regret order, then time order.
    Assignment raw =
        greedy_construct(inst, GreedyOptions::Order::RegretDescending);
    if (raw.empty()) {
      raw = greedy_construct(inst, GreedyOptions::Order::TimeDescending);
    }
    const AssignmentSolution polished = GreedyAssignmentSolver().solve(inst);
    if (!raw.empty() && polished.has_assignment()) {
      EXPECT_LE(polished.cost, assignment_cost(inst, raw) + 1e-9);
      ++compared;
    }
  }
  EXPECT_GT(compared, 0);
}

}  // namespace
}  // namespace svo::ip
