/// The B&B seed read from TaskOrders against its row-order reference
/// (tests/ip/seed_reference.hpp): greedy insertion, the polish and the
/// removal repair must return the same mappings and the same costs, bit
/// for bit, on instances built to hit every tie rule — exact cost ties
/// (where slack decides, or the lowest row when c + 1e-12 rounds back
/// to c), costs 1e-13 apart (the insertion rule's near-tie fallback),
/// infinite costs, and coverage (13) on and off.
#include "tests/ip/seed_reference.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "ip/greedy.hpp"
#include "ip/task_orders.hpp"
#include "tests/ip/test_instances.hpp"

namespace svo::ip {
namespace {

enum class Costs { Uniform, IntegerTies, LargeTies, NearTies, WithInfinity };

constexpr Costs kAllCosts[] = {Costs::Uniform, Costs::IntegerTies,
                               Costs::LargeTies, Costs::NearTies,
                               Costs::WithInfinity};

const char* to_string(Costs c) {
  switch (c) {
    case Costs::Uniform: return "uniform";
    case Costs::IntegerTies: return "integer ties";
    case Costs::LargeTies: return "large ties";
    case Costs::NearTies: return "near ties";
    case Costs::WithInfinity: return "with infinity";
  }
  return "?";
}

AssignmentInstance make_instance(std::size_t k, std::size_t n, Costs costs,
                                 bool coverage, util::Xoshiro256& rng) {
  AssignmentInstance inst =
      testing::random_instance(k, n, rng, /*tight=*/rng.bernoulli(0.5));
  inst.require_all_gsps_used = coverage;
  inst.payment = std::numeric_limits<double>::infinity();
  for (std::size_t g = 0; g < k; ++g) {
    for (std::size_t t = 0; t < n; ++t) {
      double& c = inst.cost(g, t);
      switch (costs) {
        case Costs::Uniform:
          break;
        case Costs::IntegerTies:
          c = static_cast<double>(rng.uniform_int(1, 4));
          break;
        case Costs::LargeTies:  // ulp(c) > 2e-12: c + 1e-12 == c
          c = 1e5 * static_cast<double>(rng.uniform_int(1, 4));
          break;
        case Costs::NearTies:
          c = static_cast<double>(rng.uniform_int(1, 3)) +
              1e-13 * static_cast<double>(rng.uniform_int(0, 15));
          break;
        case Costs::WithInfinity:
          if (rng.bernoulli(0.2)) c = std::numeric_limits<double>::infinity();
          break;
      }
    }
  }
  return inst;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Every task count tried with `k` GSPs: fewer tasks than GSPs, as many,
/// and several times as many.
std::vector<std::size_t> task_counts(std::size_t k) {
  return {k > 1 ? k - 1 : 1, k, 3 * k + 5};
}

/// Calls `body(inst, label)` over k in {1, 2, 3, 8, 16, 64}, every cost
/// family, coverage on and off, and a few seeds each.
template <typename Body>
void for_each_instance(std::uint64_t seed, Body body) {
  for (const std::size_t k : {1, 2, 3, 8, 16, 64}) {
    for (const std::size_t n : task_counts(k)) {
      for (const Costs costs : kAllCosts) {
        for (const bool coverage : {true, false}) {
          util::Xoshiro256 rng(seed ^ (k << 20) ^ (n << 8));
          for (int rep = 0; rep < 3; ++rep) {
            const AssignmentInstance inst =
                make_instance(k, n, costs, coverage, rng);
            body(inst, std::to_string(k) + "x" + std::to_string(n) + " " +
                           to_string(costs) +
                           (coverage ? " coverage" : " no coverage") +
                           " rep " + std::to_string(rep));
          }
        }
      }
    }
  }
}

/// task t -> GSP t mod k: a start far from the cheap rows, so the
/// polish has relocations to make. Empty when it breaks (11) or (13).
Assignment round_robin(const AssignmentInstance& inst) {
  Assignment a(inst.num_tasks());
  for (std::size_t t = 0; t < a.size(); ++t) a[t] = t % inst.num_gsps();
  return check_feasible(inst, a).empty() ? a : Assignment{};
}

TEST(SeedReferenceTest, GreedyInsertionMatchesRowOrderScan) {
  std::size_t built = 0;
  for_each_instance(0x6eed, [&](const AssignmentInstance& inst,
                                const std::string& label) {
    SCOPED_TRACE(label);
    const Assignment regret =
        greedy_construct(inst, GreedyOptions::Order::RegretDescending);
    EXPECT_EQ(regret, testing::reference_greedy(
                          inst, testing::reference_regret_order(inst)));
    EXPECT_EQ(greedy_construct(inst, GreedyOptions::Order::TimeDescending),
              testing::reference_greedy(inst,
                                        testing::reference_time_order(inst)));
    built += regret.empty() ? 0 : 1;
  });
  EXPECT_GT(built, 300u);  // the comparisons are not all of empty seeds
}

TEST(SeedReferenceTest, RepairMatchesRowOrderReinsertion) {
  std::size_t repaired = 0;
  for_each_instance(0x4e9a, [&](const AssignmentInstance& inst,
                                const std::string& label) {
    const std::size_t k = inst.num_gsps();
    if (k < 2) return;
    Assignment parent = round_robin(inst);
    if (parent.empty()) {
      parent =
          testing::reference_greedy(inst, testing::reference_regret_order(inst));
    }
    if (parent.empty()) return;
    // Every removal for narrow pools, every seventh for k = 64.
    for (std::size_t removed = 0; removed < k; removed += k > 16 ? 7 : 1) {
      SCOPED_TRACE(label + " removed " + std::to_string(removed));
      std::vector<bool> keep(k, true);
      keep[removed] = false;
      std::vector<std::size_t> rows;
      const AssignmentInstance sub = inst.restrict_to(keep, &rows);
      const RepairResult got =
          repair_for_removal(sub, TaskOrders(sub), rows, parent, removed);
      const RepairResult want =
          testing::reference_repair(sub, rows, parent, removed);
      EXPECT_EQ(got.ok, want.ok);
      EXPECT_EQ(got.assignment, want.assignment);
      EXPECT_TRUE(same_bits(got.cost, want.cost))
          << got.cost << " vs " << want.cost;
      EXPECT_EQ(got.moves, want.moves);
      repaired += got.ok ? 1 : 0;
    }
  });
  EXPECT_GT(repaired, 300u);
}

/// Polish every start in `starts(inst)` with each of `options` through
/// the library and the reference; returns how many polishes moved tasks.
template <typename Starts>
std::size_t expect_polish_matches(
    std::uint64_t seed, const std::vector<LocalSearchOptions>& options,
    Starts starts) {
  std::size_t polished = 0;
  for_each_instance(seed, [&](const AssignmentInstance& inst,
                              const std::string& label) {
    const TaskOrders orders(inst);
    for (const Assignment& start : starts(inst)) {
      if (start.empty()) continue;
      for (const LocalSearchOptions& opts : options) {
        SCOPED_TRACE(label + " swap sample " +
                     std::to_string(opts.swap_sample_per_task));
        Assignment got = start;
        Assignment want = start;
        const double got_cost = local_search(inst, orders, got, opts);
        const double want_cost =
            testing::reference_local_search(inst, want, opts);
        EXPECT_EQ(got, want);
        EXPECT_TRUE(same_bits(got_cost, want_cost))
            << got_cost << " vs " << want_cost;
        polished += got != start ? 1 : 0;
      }
    }
  });
  return polished;
}

TEST(SeedReferenceTest, RelocationPassesMatchRowOrderScan) {
  // Relocations alone, whose passes are bounded: a relocation between
  // equal costs fails here, where the unbounded passes after the swaps
  // would loop forever.
  LocalSearchOptions moves_only;
  moves_only.max_swap_passes = 0;
  const std::size_t polished =
      expect_polish_matches(0x3e10, {moves_only}, [](const auto& inst) {
        return std::vector<Assignment>{round_robin(inst)};
      });
  EXPECT_GT(polished, 200u);
}

TEST(SeedReferenceTest, PolishMatchesRowOrderPasses) {
  LocalSearchOptions exhaustive;
  exhaustive.swap_sample_per_task = 0;
  const std::size_t polished = expect_polish_matches(
      0x9011, {LocalSearchOptions{}, exhaustive}, [](const auto& inst) {
        return std::vector<Assignment>{
            testing::reference_greedy(inst,
                                      testing::reference_regret_order(inst)),
            round_robin(inst)};
      });
  EXPECT_GT(polished, 300u);  // the polish did move tasks
}

TEST(SeedReferenceTest, InsertionBreaksExactTiesBySlackThenRow) {
  // One task, three GSPs of equal cost and a dearer fourth: the one with
  // the most slack left wins, and among equal slacks the lowest row. At a cost so large that
  // c + 1e-12 rounds back to c the row-order rule never compares slacks,
  // so the lowest fitting row wins.
  for (const double c : {5.0, 1e5}) {
    AssignmentInstance inst;
    inst.cost = linalg::Matrix::from_rows({{c}, {c}, {c}, {c + 1}});
    inst.time = linalg::Matrix::from_rows({{3}, {1}, {1}, {1}});
    inst.deadline = 4.0;
    inst.payment = 1e9;
    inst.require_all_gsps_used = false;
    const Assignment want = {c + 1e-12 > c ? std::size_t{1} : std::size_t{0}};
    EXPECT_EQ(greedy_construct(inst, GreedyOptions::Order::RegretDescending),
              want)
        << "cost " << c;
  }
}

}  // namespace
}  // namespace svo::ip
