/// Tests for ip/task_orders.hpp and ip/warm_start.hpp: task orders and
/// their derivation along a removal chain, the removal-repair step, and
/// the warm-started B&B. The load-bearing
/// property throughout: warm hints never change what an exact solve
/// returns — status and cost must match the cold solve bit for bit.
#include "ip/warm_start.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "ip/bnb.hpp"
#include "ip/greedy.hpp"
#include "tests/ip/seed_reference.hpp"
#include "tests/ip/test_instances.hpp"
#include "util/thread_pool.hpp"

namespace svo::ip {
namespace {

/// Restrict `inst` to all rows except `removed`; fills `rows` with the
/// surviving parent indices.
AssignmentInstance drop_row(const AssignmentInstance& inst,
                            std::size_t removed,
                            std::vector<std::size_t>* rows) {
  std::vector<bool> keep(inst.num_gsps(), true);
  keep[removed] = false;
  return inst.restrict_to(keep, rows);
}

/// Random instance whose costs are small integers, so many tasks tie on
/// cost and on regret: the tie-breaking rules are what is under test.
AssignmentInstance tied_instance(std::size_t k, std::size_t n,
                                 util::Xoshiro256& rng) {
  AssignmentInstance inst = testing::random_instance(k, n, rng);
  for (std::size_t g = 0; g < k; ++g) {
    for (std::size_t t = 0; t < n; ++t) {
      inst.cost(g, t) = static_cast<double>(rng.uniform_int(1, 4));
    }
  }
  return inst;
}

/// The orders by their definition: stable sorts of the instance itself.
void expect_sorted_definition(const AssignmentInstance& inst,
                              const TaskOrders& orders) {
  ASSERT_EQ(orders.num_gsps(), inst.num_gsps());
  ASSERT_EQ(orders.num_tasks(), inst.num_tasks());
  std::vector<double> regret(inst.num_tasks());
  for (std::size_t t = 0; t < inst.num_tasks(); ++t) {
    std::vector<std::size_t> expect(inst.num_gsps());
    std::iota(expect.begin(), expect.end(), std::size_t{0});
    std::stable_sort(expect.begin(), expect.end(),
                     [&](std::size_t a, std::size_t b) {
                       return inst.cost(a, t) < inst.cost(b, t);
                     });
    const std::vector<std::size_t> got(
        orders.gsp_order(t), orders.gsp_order(t) + inst.num_gsps());
    EXPECT_EQ(got, expect) << "task " << t;
    regret[t] = expect.size() > 1 ? inst.cost(expect[1], t) -
                                        inst.cost(expect[0], t)
                                  : 0.0;
  }
  EXPECT_EQ(orders.regret(), regret);
  std::vector<std::size_t> by_regret(inst.num_tasks());
  std::iota(by_regret.begin(), by_regret.end(), std::size_t{0});
  std::stable_sort(by_regret.begin(), by_regret.end(),
                   [&](std::size_t a, std::size_t b) {
                     return regret[a] > regret[b];
                   });
  EXPECT_EQ(orders.by_regret(), by_regret);
}

TEST(TaskOrdersTest, MatchesDirectStableSort) {
  util::Xoshiro256 rng(11);
  const AssignmentInstance inst = testing::random_instance(7, 13, rng);
  expect_sorted_definition(inst, TaskOrders(inst));
  for (const std::size_t k : {1, 2, 3, 8, 16}) {
    const AssignmentInstance inst = tied_instance(k, 40, rng);
    SCOPED_TRACE("k = " + std::to_string(k));
    expect_sorted_definition(inst, TaskOrders(inst));
  }
}

TEST(TaskOrdersTest, WithoutRowEqualsFreshBuild) {
  // Deriving a child's orders from its parent's must give exactly what
  // sorting the child gives — the bit-identity the warm B&B relies on.
  util::Xoshiro256 rng(12);
  const AssignmentInstance inst = testing::random_instance(6, 10, rng);
  const TaskOrders parent(inst);
  for (std::size_t removed = 0; removed < inst.num_gsps(); ++removed) {
    std::vector<std::size_t> rows;
    const AssignmentInstance sub = drop_row(inst, removed, &rows);
    EXPECT_TRUE(parent.without_row(sub, removed) == TaskOrders(sub))
        << "removed " << removed;
  }
}

TEST(TaskOrdersTest, RemovalChainsEqualFreshBuilds) {
  // Property: along random removal chains down to a single GSP, with
  // integer costs that force cost and regret ties, every derived
  // TaskOrders equals a fresh build field for field.
  for (const std::size_t k : {2, 3, 8, 16}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      util::Xoshiro256 rng(seed * 100 + k);
      AssignmentInstance inst = tied_instance(k, 60, rng);
      TaskOrders orders(inst);
      while (inst.num_gsps() > 1) {
        const std::size_t removed = rng.index(inst.num_gsps());
        std::vector<std::size_t> rows;
        AssignmentInstance sub = drop_row(inst, removed, &rows);
        TaskOrders derived = orders.without_row(sub, removed);
        const TaskOrders fresh(sub);
        SCOPED_TRACE("k = " + std::to_string(k) + " seed " +
                     std::to_string(seed) + " at " +
                     std::to_string(inst.num_gsps()) + " GSPs, removed " +
                     std::to_string(removed));
        ASSERT_EQ(derived.num_gsps(), fresh.num_gsps());
        for (std::size_t t = 0; t < sub.num_tasks(); ++t) {
          ASSERT_TRUE(std::equal(derived.gsp_order(t),
                                 derived.gsp_order(t) + sub.num_gsps(),
                                 fresh.gsp_order(t)))
              << "task " << t;
        }
        ASSERT_EQ(derived.regret(), fresh.regret());
        ASSERT_EQ(derived.by_regret(), fresh.by_regret());
        ASSERT_TRUE(derived == fresh);
        inst = std::move(sub);
        orders = std::move(derived);
      }
    }
  }
}

TEST(TaskOrdersTest, WithoutRowRejectsAMismatchedChild) {
  util::Xoshiro256 rng(13);
  const AssignmentInstance inst = testing::random_instance(4, 6, rng);
  const TaskOrders orders(inst);
  std::vector<std::size_t> rows;
  const AssignmentInstance sub = drop_row(inst, 1, &rows);
  EXPECT_THROW((void)orders.without_row(sub, 4), InvalidArgument);
  EXPECT_THROW((void)orders.without_row(inst, 1), InvalidArgument);
  const AssignmentInstance wider = testing::random_instance(4, 7, rng);
  EXPECT_THROW((void)orders.without_row(drop_row(wider, 1, &rows), 1),
               InvalidArgument);
}

TEST(TaskOrdersTest, RejectsMoreGspsThanSixteenBitRowsHold) {
  AssignmentInstance inst;
  inst.cost = linalg::Matrix(TaskOrders::kMaxGsps + 1, 1, 1.0);
  inst.time = linalg::Matrix(TaskOrders::kMaxGsps + 1, 1, 1.0);
  inst.deadline = 1.0;
  inst.payment = 1.0;
  ASSERT_EQ(inst.num_gsps(), 65536u);
  EXPECT_THROW((void)TaskOrders(inst), InvalidArgument);
}

TEST(TaskOrdersTest, PoolBuildEqualsInlineBuild) {
  // From kPoolMinCells cells the tasks are placed in blocks on the global
  // pool; on one of its workers the same build runs inline.
  for (const std::size_t k : {std::size_t{8}, std::size_t{16}}) {
    util::Xoshiro256 rng(k + 90);
    const AssignmentInstance inst =
        tied_instance(k, kPoolMinCells / k + 300, rng);
    SCOPED_TRACE("k = " + std::to_string(k));
    const TaskOrders pooled(inst);
    const TaskOrders inline_build =
        util::ThreadPool::global().submit([&] { return TaskOrders(inst); }).get();
    EXPECT_TRUE(pooled == inline_build);
    expect_sorted_definition(inst, pooled);
  }
}

TEST(TaskOrdersTest, RegretOrderSeedsLikeRegretDescendingGreedy) {
  // Greedy construction in RegretDescending order inserts the tasks in
  // by_regret() order: it must be the stable descending sort of the
  // regrets a row scan finds.
  for (const std::size_t k : {1, 2, 3, 8}) {
    util::Xoshiro256 rng(14 + k);
    for (const bool tied : {false, true}) {
      const AssignmentInstance inst = tied ? tied_instance(k, 30, rng)
                                           : testing::random_instance(k, 30, rng);
      EXPECT_EQ(TaskOrders(inst).by_regret(),
                testing::reference_regret_order(inst))
          << "k " << k << (tied ? " tied" : "");
    }
  }
}

TEST(RepairTest, KeepsSurvivorsAndReinsertsOrphans) {
  util::Xoshiro256 rng(21);
  const AssignmentInstance inst = testing::random_instance(5, 12, rng);
  const BnbAssignmentSolver solver;
  const AssignmentSolution parent = solver.solve(inst);
  ASSERT_TRUE(parent.has_assignment());

  const std::size_t removed = parent.assignment[0];  // a used GSP
  std::vector<std::size_t> rows;
  const AssignmentInstance sub = drop_row(inst, removed, &rows);
  const RepairResult r = repair_for_removal(sub, TaskOrders(sub), rows,
                                            parent.assignment, removed);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(check_feasible(sub, r.assignment).empty());
  EXPECT_DOUBLE_EQ(r.cost, assignment_cost(sub, r.assignment));
  EXPECT_GE(r.moves, 1u);  // at least the orphaned task moved
  // Surviving tasks keep their executor (in parent coordinates).
  for (std::size_t t = 0; t < inst.num_tasks(); ++t) {
    if (parent.assignment[t] != removed) {
      EXPECT_EQ(rows[r.assignment[t]], parent.assignment[t]) << "task " << t;
    }
  }
}

TEST(RepairTest, FailsCleanlyWhenNoGspCanAbsorb) {
  // Two GSPs, two tasks, deadline so tight each GSP can hold exactly the
  // task it started with: removing a GSP leaves its task homeless.
  AssignmentInstance inst;
  inst.cost = linalg::Matrix(2, 2, 1.0);
  inst.time = linalg::Matrix(2, 2);
  inst.time(0, 0) = 1.0;
  inst.time(0, 1) = 1.0;
  inst.time(1, 0) = 1.0;
  inst.time(1, 1) = 1.0;
  inst.deadline = 1.0;  // one task per GSP, never two
  inst.payment = 10.0;
  const Assignment parent = {0, 1};
  std::vector<std::size_t> rows;
  const AssignmentInstance sub = drop_row(inst, 1, &rows);
  const RepairResult r =
      repair_for_removal(sub, TaskOrders(sub), rows, parent, 1);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.assignment.empty());
}

TEST(RepairTest, RejectsMappingOntoUnknownRow) {
  util::Xoshiro256 rng(23);
  const AssignmentInstance inst = testing::random_instance(4, 6, rng);
  std::vector<std::size_t> rows;
  const AssignmentInstance sub = drop_row(inst, 3, &rows);
  Assignment parent(inst.num_tasks(), 0);
  parent[2] = 7;  // row that never existed
  const RepairResult r =
      repair_for_removal(sub, TaskOrders(sub), rows, parent, 3);
  EXPECT_FALSE(r.ok);
}

/// Warm and cold exact solves must agree bit for bit across random
/// instances and every removal choice.
TEST(WarmBnbTest, WarmEqualsColdOnEveryRemoval) {
  const BnbAssignmentSolver solver;  // default budget: exact at this size
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Xoshiro256 rng(seed);
    const AssignmentInstance inst =
        testing::random_instance(5, 11, rng, /*tight=*/seed % 2 == 0);
    const AssignmentSolution parent = solver.solve(inst);
    if (!parent.has_assignment()) continue;
    const TaskOrders parent_orders(inst);

    for (std::size_t removed = 0; removed < inst.num_gsps(); ++removed) {
      std::vector<std::size_t> rows;
      const AssignmentInstance sub = drop_row(inst, removed, &rows);

      const AssignmentSolution cold = solver.solve(sub);

      const TaskOrders orders = parent_orders.without_row(sub, removed);
      WarmStart warm;
      warm.orders = &orders;
      warm.reverification = true;
      const RepairResult r =
          repair_for_removal(sub, orders, rows, parent.assignment, removed);
      if (r.ok) {
        warm.incumbent = r.assignment;
        warm.incumbent_cost = r.cost;
        warm.repair_moves = r.moves;
      }
      const AssignmentSolution hot = solver.solve(sub, warm);

      EXPECT_EQ(hot.stats.status, cold.stats.status)
          << "seed " << seed << " removed " << removed;
      if (cold.has_assignment()) {
        EXPECT_EQ(hot.cost, cold.cost)  // bit-identical, not approximate
            << "seed " << seed << " removed " << removed;
        EXPECT_EQ(hot.assignment, cold.assignment);
      }
      EXPECT_LE(hot.stats.nodes, cold.stats.nodes);
    }
  }
}

TEST(WarmBnbTest, ReportsWarmStartTelemetry) {
  util::Xoshiro256 rng(31);
  const AssignmentInstance inst = testing::random_instance(5, 10, rng);
  const BnbAssignmentSolver solver;
  const AssignmentSolution parent = solver.solve(inst);
  ASSERT_TRUE(parent.has_assignment());

  const std::size_t removed = parent.assignment[0];
  std::vector<std::size_t> rows;
  const AssignmentInstance sub = drop_row(inst, removed, &rows);
  const RepairResult r = repair_for_removal(sub, TaskOrders(sub), rows,
                                            parent.assignment, removed);
  ASSERT_TRUE(r.ok);
  WarmStart warm;
  warm.incumbent = r.assignment;
  warm.incumbent_cost = r.cost;
  warm.repair_moves = r.moves;
  const AssignmentSolution hot = solver.solve(sub, warm);
  EXPECT_TRUE(hot.stats.warm_start_used);
  EXPECT_DOUBLE_EQ(hot.stats.incumbent_reused_cost, r.cost);
  EXPECT_EQ(hot.stats.repair_moves, r.moves);

  const AssignmentSolution cold = solver.solve(sub);
  EXPECT_FALSE(cold.stats.warm_start_used);
}

TEST(WarmBnbTest, IncoherentHintsAreIgnoredNotFatal) {
  util::Xoshiro256 rng(37);
  const AssignmentInstance inst = testing::random_instance(4, 8, rng);
  const AssignmentInstance other = testing::random_instance(6, 9, rng);
  const BnbAssignmentSolver solver;
  const TaskOrders other_orders(other);
  WarmStart warm;
  warm.orders = &other_orders;        // wrong shape
  warm.incumbent = Assignment(3, 0);  // wrong arity
  warm.incumbent_cost = 1.0;
  const AssignmentSolution hot = solver.solve(inst, warm);
  const AssignmentSolution cold = solver.solve(inst);
  EXPECT_EQ(hot.stats.status, cold.stats.status);
  EXPECT_EQ(hot.cost, cold.cost);
  EXPECT_FALSE(hot.stats.warm_start_used);
}

TEST(WarmBnbTest, HandedSeedEqualsTheSolversOwn) {
  // A seed computed ahead with seed() changes nothing, truncated or
  // proven; one that cannot be this instance's is ignored.
  BnbOptions opts;
  for (const std::size_t max_nodes : {std::size_t{40}, std::size_t{500'000}}) {
    opts.max_nodes = max_nodes;
    const BnbAssignmentSolver solver(opts);
    for (std::uint64_t s = 1; s <= 12; ++s) {
      util::Xoshiro256 rng(s + 500);
      const AssignmentInstance inst =
          testing::random_instance(2 + s % 6, 14, rng, s % 2 == 0);
      SCOPED_TRACE("seed " + std::to_string(s) + ", budget " +
                   std::to_string(max_nodes));
      const TaskOrders orders(inst);
      WarmStart own;
      own.orders = &orders;
      const AssignmentSolution want = solver.solve(inst, own);
      IncumbentSeed ahead = solver.seed(inst, orders);
      WarmStart handed = own;
      handed.seed = &ahead;
      for (int bad = 0; bad < 2; ++bad) {
        const AssignmentSolution got = solver.solve(inst, handed);
        EXPECT_EQ(got.stats.status, want.stats.status);
        EXPECT_EQ(got.stats.nodes, want.stats.nodes);
        EXPECT_EQ(got.cost, want.cost);
        EXPECT_EQ(got.assignment, want.assignment);
        // Next round: a row the instance lacks.
        ahead.assignment.assign(inst.num_tasks(), inst.num_gsps());
        ahead.cost = 0.0;
      }
    }
  }
}

TEST(WarmBnbTest, WarmBudgetCapsReVerificationOnly) {
  // warm_max_nodes caps only warm-hinted solves: cold solves keep the
  // full budget, a capped warm solve truncates but keeps the incumbent,
  // and a cap the exact solve fits inside is invisible.
  // Find an instance whose optimum is strictly cheaper than the
  // time-descending greedy seed: the improving leaf then sits below an
  // unpruned subtree, so a 1-node cap is guaranteed to truncate.
  AssignmentInstance inst;
  Assignment seed;
  double seed_cost = 0.0;
  AssignmentSolution cold;
  bool found = false;
  for (std::uint64_t s = 47; s < 80 && !found; ++s) {
    util::Xoshiro256 rng(s);
    inst = testing::random_instance(5, 12, rng, /*tight=*/true);
    seed = greedy_construct(inst, GreedyOptions::Order::TimeDescending);
    if (seed.empty()) continue;
    seed_cost = assignment_cost(inst, seed);
    if (seed_cost > inst.payment) continue;
    cold = BnbAssignmentSolver().solve(inst);
    found = cold.stats.status == AssignStatus::Optimal &&
            cold.cost < seed_cost - 1e-6;
  }
  ASSERT_TRUE(found);

  BnbOptions opts;
  opts.seed_with_greedy = false;  // the warm incumbent is the only seed
  opts.warm_max_nodes = 1;
  const BnbAssignmentSolver capped(opts);
  // Cold solves ignore the warm cap entirely.
  const AssignmentSolution still_cold = capped.solve(inst);
  EXPECT_EQ(still_cold.stats.status, AssignStatus::Optimal);
  EXPECT_EQ(still_cold.cost, cold.cost);

  WarmStart warm;
  warm.incumbent = seed;
  warm.incumbent_cost = seed_cost;
  const AssignmentSolution hot = capped.solve(inst, warm);
  EXPECT_EQ(hot.stats.status, AssignStatus::Feasible);  // truncated, honest
  EXPECT_LE(hot.stats.nodes, 1u);
  EXPECT_EQ(hot.cost, seed_cost);  // kept the incumbent, found no better
  EXPECT_EQ(hot.assignment, seed);

  // A cap the exact solve fits inside is invisible: bit-identical.
  opts.warm_max_nodes = 0;
  const AssignmentSolution uncapped = BnbAssignmentSolver(opts).solve(inst, warm);
  ASSERT_EQ(uncapped.stats.status, AssignStatus::Optimal);
  opts.warm_max_nodes = uncapped.stats.nodes + 10;
  const AssignmentSolution roomy = BnbAssignmentSolver(opts).solve(inst, warm);
  EXPECT_EQ(roomy.stats.status, AssignStatus::Optimal);
  EXPECT_EQ(roomy.stats.nodes, uncapped.stats.nodes);
  EXPECT_EQ(roomy.cost, cold.cost);
}

TEST(WarmStartTest, BaseSolverDefaultIgnoresHints) {
  util::Xoshiro256 rng(41);
  const AssignmentInstance inst = testing::random_instance(4, 8, rng);
  const GreedyAssignmentSolver greedy;
  const AssignmentSolver& base = greedy;
  WarmStart warm;  // empty hints
  const AssignmentSolution a = base.solve(inst, warm);
  const AssignmentSolution b = base.solve(inst);
  EXPECT_EQ(a.stats.status, b.stats.status);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.assignment, b.assignment);
}

TEST(WarmStartTest, GreedyReadsHandedOrders) {
  util::Xoshiro256 rng(43);
  const GreedyAssignmentSolver greedy;
  for (int i = 0; i < 6; ++i) {
    const AssignmentInstance inst =
        testing::random_instance(3 + i, 20, rng, i % 2 == 1);
    const AssignmentInstance other = testing::random_instance(2 + i, 20, rng);
    const AssignmentSolution cold = greedy.solve(inst);
    const TaskOrders orders(inst);
    const TaskOrders wrong_shape(other);
    for (const TaskOrders* o : {&orders, &wrong_shape}) {
      WarmStart warm;
      warm.orders = o;
      const AssignmentSolution got = greedy.solve(inst, warm);
      EXPECT_EQ(got.stats.status, cold.stats.status);
      EXPECT_EQ(got.cost, cold.cost);
      EXPECT_EQ(got.assignment, cold.assignment);
    }
  }
}

TEST(SolveStatsTest, AccumulateSumsAndLatches) {
  SolveStats total;
  SolveStats a;
  a.status = AssignStatus::Optimal;
  a.nodes = 10;
  SolveStats b;
  b.status = AssignStatus::Infeasible;
  b.nodes = 5;
  b.warm_start_used = true;
  b.incumbent_reused_cost = 3.5;
  b.repair_moves = 2;
  total.accumulate(a);
  total.accumulate(b);
  EXPECT_EQ(total.status, AssignStatus::Infeasible);  // last status wins
  EXPECT_EQ(total.nodes, 15u);
  EXPECT_TRUE(total.warm_start_used);
  EXPECT_DOUBLE_EQ(total.incumbent_reused_cost, 3.5);
  EXPECT_EQ(total.repair_moves, 2u);
}

}  // namespace
}  // namespace svo::ip
