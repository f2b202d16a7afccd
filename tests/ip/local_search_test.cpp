#include "ip/local_search.hpp"

#include <gtest/gtest.h>

#include "ip/greedy.hpp"
#include "tests/ip/test_instances.hpp"

namespace svo::ip {
namespace {

TEST(LocalSearchTest, NeverIncreasesCostAndKeepsFeasibility) {
  util::Xoshiro256 rng(21);
  for (int trial = 0; trial < 30; ++trial) {
    AssignmentInstance inst = testing::random_instance(4, 14, rng);
    inst.payment = 1e18;  // isolate (11)-(13)
    Assignment a =
        greedy_construct(inst, GreedyOptions::Order::TimeDescending);
    ASSERT_FALSE(a.empty());
    const double before = assignment_cost(inst, a);
    const double after = local_search(inst, a, {});
    EXPECT_LE(after, before + 1e-9);
    EXPECT_NEAR(after, assignment_cost(inst, a), 1e-9);
    EXPECT_EQ(check_feasible(inst, a), "");
  }
}

TEST(LocalSearchTest, FindsObviousRelocation) {
  // Task 1 starts on the expensive GSP with plenty of slack to move.
  AssignmentInstance inst;
  inst.cost = linalg::Matrix::from_rows({{1, 1}, {1, 50}});
  inst.time = linalg::Matrix::from_rows({{1, 1}, {1, 1}});
  inst.deadline = 10.0;
  inst.payment = 1e9;
  inst.require_all_gsps_used = false;
  Assignment a{0, 1};  // cost 51
  const double cost = local_search(inst, a, {});
  EXPECT_DOUBLE_EQ(cost, 2.0);
  EXPECT_EQ(a, (Assignment{0, 0}));
}

TEST(LocalSearchTest, RespectsCoverageWhenMoving) {
  // GSP 1 is uniformly expensive: relocating its lone task to the cheap
  // GSP 0 would improve cost but violate (13), and swapping does not help
  // (both columns cost the same on each GSP). Nothing may change.
  AssignmentInstance inst;
  inst.cost = linalg::Matrix::from_rows({{1, 1}, {50, 50}});
  inst.time = linalg::Matrix::from_rows({{1, 1}, {1, 1}});
  inst.deadline = 10.0;
  inst.payment = 1e9;
  inst.require_all_gsps_used = true;
  Assignment a{0, 1};
  const double cost = local_search(inst, a, {});
  EXPECT_DOUBLE_EQ(cost, 51.0);
  EXPECT_EQ(a, (Assignment{0, 1}));
}

TEST(LocalSearchTest, SwapPassFixesCrossedAssignment) {
  // Crossed assignment where moves are blocked by coverage but a swap
  // strictly improves: c = [[1, 9], [9, 1]].
  AssignmentInstance inst;
  inst.cost = linalg::Matrix::from_rows({{1, 9}, {9, 1}});
  inst.time = linalg::Matrix::from_rows({{1, 1}, {1, 1}});
  inst.deadline = 1.0;  // each GSP fits exactly one task
  inst.payment = 1e9;
  Assignment a{1, 0};  // cost 18
  LocalSearchOptions opts;
  opts.swap_sample_per_task = 0;  // exhaustive
  const double cost = local_search(inst, a, opts);
  EXPECT_DOUBLE_EQ(cost, 2.0);
  EXPECT_EQ(a, (Assignment{0, 1}));
}

TEST(LocalSearchTest, ExhaustiveAndSampledAgreeOnFeasibility) {
  util::Xoshiro256 rng(23);
  for (int trial = 0; trial < 10; ++trial) {
    AssignmentInstance inst = testing::random_instance(3, 10, rng);
    inst.payment = 1e18;
    Assignment a =
        greedy_construct(inst, GreedyOptions::Order::RegretDescending);
    ASSERT_FALSE(a.empty());
    Assignment b = a;
    LocalSearchOptions exhaustive;
    exhaustive.swap_sample_per_task = 0;
    LocalSearchOptions sampled;
    sampled.swap_sample_per_task = 16;
    const double ce = local_search(inst, a, exhaustive);
    const double cs = local_search(inst, b, sampled);
    EXPECT_EQ(check_feasible(inst, a), "");
    EXPECT_EQ(check_feasible(inst, b), "");
    // Exhaustive search explores a superset of swaps per pass; both must
    // be no worse than the common start, and usually close together.
    EXPECT_GT(ce, 0.0);
    EXPECT_GT(cs, 0.0);
  }
}

TEST(LocalSearchTest, RejectsInfeasibleEntry) {
  AssignmentInstance inst;
  inst.cost = linalg::Matrix(2, 2, 1.0);
  inst.time = linalg::Matrix(2, 2, 5.0);
  inst.deadline = 4.0;
  inst.payment = 100.0;
  Assignment a{0, 0};  // busts deadline and coverage
  EXPECT_THROW((void)local_search(inst, a, {}), InvalidArgument);
}

TEST(LocalSearchTest, AcceptsEntryThatBreaksOnlyThePaymentCap) {
  // (10) caps the objective, which local search only lowers: an entry
  // over the cap is polished, not rejected.
  AssignmentInstance inst;
  inst.cost = linalg::Matrix::from_rows({{1, 9}, {9, 1}});
  inst.time = linalg::Matrix::from_rows({{1, 1}, {1, 1}});
  inst.deadline = 10.0;
  inst.payment = 1.0;
  inst.require_all_gsps_used = false;
  Assignment a{1, 0};  // cost 18 > P
  ASSERT_EQ(check_feasible(inst, a).rfind("payment", 0), 0u);
  EXPECT_DOUBLE_EQ(local_search(inst, a, {}), 2.0);
  EXPECT_EQ(a, (Assignment{0, 1}));
}

}  // namespace
}  // namespace svo::ip
