/// Golden outputs of TvofMechanism::run on fixed Table I scenarios.
///
/// The expected values were recorded from the implementation in which
/// every B&B solve sorted its own task orders. Sharing those orders
/// across the iterations of Algorithm 1 (ip::TaskOrders, DESIGN.md §4c)
/// changes where preprocessing happens, never what is computed, so
/// every field pinned here — per-iteration coalition, status, nodes and
/// cost, the selected VO, its cost, a hash of the mapping and the next
/// draw of the mechanism RNG — must stay bit for bit the same.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <vector>

#include "core/tvof.hpp"
#include "ip/bnb.hpp"
#include "sim/scenario.hpp"

namespace svo::core {
namespace {

struct GoldenIteration {
  std::uint64_t coalition;
  ip::AssignStatus status;
  std::size_t nodes;
  double cost;
};

struct GoldenRun {
  std::size_t repetition;
  std::uint64_t selected;
  double cost;
  std::uint64_t mapping_hash;
  std::uint64_t rng_probe;
  std::vector<GoldenIteration> journal;
};

/// FNV-1a over the mapping entries.
std::uint64_t mapping_hash(const ip::Assignment& mapping) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::size_t g : mapping) {
    h ^= static_cast<std::uint64_t>(g);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Table I scenarios (repetitions 0-2) over `gsps` GSPs whose trace holds
/// programs of exactly `tasks` tasks.
void expect_golden(std::size_t gsps, std::size_t tasks,
                   const ip::BnbOptions& opts,
                   const std::vector<GoldenRun>& expected) {
  sim::ExperimentConfig cfg;
  cfg.gen.params.num_gsps = gsps;
  cfg.task_sizes = {tasks};
  cfg.trace.canonical_sizes = {static_cast<std::int64_t>(tasks)};
  const sim::ScenarioFactory factory(cfg);
  const ip::BnbAssignmentSolver solver(opts);
  const TvofMechanism tvof(solver);

  for (const GoldenRun& want : expected) {
    SCOPED_TRACE(std::to_string(gsps) + "x" + std::to_string(tasks) +
                 " repetition " + std::to_string(want.repetition));
    const sim::Scenario scn = factory.make(tasks, want.repetition);
    util::Xoshiro256 rng(scn.tvof_seed);
    const MechanismResult got =
        tvof.run(FormationRequest{scn.instance.assignment, scn.trust, rng});
    const std::uint64_t probe = rng();

    ASSERT_EQ(got.journal.size(), want.journal.size());
    for (std::size_t i = 0; i < want.journal.size(); ++i) {
      SCOPED_TRACE("iteration " + std::to_string(i));
      const IterationRecord& rec = got.journal[i];
      EXPECT_EQ(rec.coalition.bits(), want.journal[i].coalition);
      EXPECT_EQ(rec.stats.status, want.journal[i].status);
      EXPECT_EQ(rec.stats.nodes, want.journal[i].nodes);
      EXPECT_EQ(rec.cost, want.journal[i].cost);  // exact, not approximate
    }
    EXPECT_EQ(got.selected.bits(), want.selected);
    EXPECT_EQ(got.cost, want.cost);
    EXPECT_EQ(mapping_hash(got.mapping), want.mapping_hash);
    EXPECT_EQ(probe, want.rng_probe);
  }
}

/// The paper workload's node budgets: most solves stop at the budget,
/// so the greedy seed and the warm cap decide the answers.
ip::BnbOptions paper_budget() {
  ip::BnbOptions opts;
  opts.max_nodes = 20'000;
  opts.warm_max_nodes = 5'000;
  return opts;
}

constexpr auto kOpt = ip::AssignStatus::Optimal;
constexpr auto kFea = ip::AssignStatus::Feasible;
constexpr auto kInf = ip::AssignStatus::Infeasible;
constexpr auto kUnk = ip::AssignStatus::Unknown;

TEST(MechanismGoldenTest, TableIScenarios24x8) {
  // clang-format off
  expect_golden(8, 24, paper_budget(), {
       {0, 0xbeULL, 0x1.1622b1fd2dc36p+12, 0x158867a2dc45f3e3ULL, 0x7d871735329f8f62ULL,
        {{0xffULL, kOpt, 3741, 0x1.1314eb8efebf6p+12},
         {0xfeULL, kOpt, 2745, 0x1.1328021199318p+12},
         {0xbeULL, kFea, 5000, 0x1.1622b1fd2dc36p+12},
         {0x9eULL, kUnk, 5000, 0x0p+0}}},
       {1, 0xffULL, 0x1.226a9e64b4ff8p+12, 0x6b3c2776456a486ULL, 0xc84841e6971920d3ULL,
        {{0xffULL, kFea, 20000, 0x1.226a9e64b4ff8p+12},
         {0xfbULL, kFea, 5000, 0x1.30703fcb0b9a6p+12},
         {0xfaULL, kUnk, 5000, 0x0p+0}}},
       {2, 0xfdULL, 0x1.7873207923f9dp+12, 0xd71e1a8d65542109ULL, 0x1f2a14cd636ac4a2ULL,
        {{0xffULL, kFea, 20000, 0x1.72534872ad1d5p+12},
         {0xfdULL, kFea, 5000, 0x1.7873207923f9dp+12},
         {0xbdULL, kUnk, 5000, 0x0p+0}}},
  });
  // clang-format on
}

TEST(MechanismGoldenTest, TableIScenarios24x8DefaultBudget) {
  // The default 500k-node budget: searches run to proof (Optimal,
  // Infeasible) or burn the whole budget, warm solves included.
  // clang-format off
  expect_golden(8, 24, ip::BnbOptions{}, {
       {0, 0xbeULL, 0x1.15b23102362ebp+12, 0xd6bf8866b47953ULL, 0x7d871735329f8f62ULL,
        {{0xffULL, kOpt, 3741, 0x1.1314eb8efebf6p+12},
         {0xfeULL, kOpt, 2745, 0x1.1328021199318p+12},
         {0xbeULL, kOpt, 11239, 0x1.15b23102362ebp+12},
         {0x9eULL, kUnk, 500000, 0x0p+0}}},
       {1, 0xffULL, 0x1.222de6ac4efb1p+12, 0xf139d03957208be0ULL, 0xc84841e6971920d3ULL,
        {{0xffULL, kOpt, 50142, 0x1.222de6ac4efb1p+12},
         {0xfbULL, kFea, 500000, 0x1.2bd34dcb8fd5cp+12},
         {0xfaULL, kInf, 42124, 0x0p+0}}},
       {2, 0xfdULL, 0x1.74adab98e4b98p+12, 0xcf66e28ae4ce4d9eULL, 0x1f2a14cd636ac4a2ULL,
        {{0xffULL, kOpt, 389211, 0x1.72534872ad1d5p+12},
         {0xfdULL, kOpt, 496959, 0x1.74adab98e4b98p+12},
         {0xbdULL, kUnk, 500000, 0x0p+0}}},
  });
  // clang-format on
}

TEST(MechanismGoldenTest, TableIScenarios1024x16) {
  // clang-format off
  expect_golden(16, 1024, paper_budget(), {
       {0, 0x7fffULL, 0x1.0bdfa40c6abep+18, 0x2d7c7af346b1b405ULL, 0x25c28c4a2e47829fULL,
        {{0xffffULL, kFea, 20000, 0x1.0b945e292c5fdp+18},
         {0x7fffULL, kFea, 5000, 0x1.0bdfa40c6abep+18},
         {0x7ffeULL, kUnk, 5000, 0x0p+0}}},
       {1, 0xefbfULL, 0x1.0ae94f4812746p+18, 0xf0df579239a26104ULL, 0xc3206f2fb7e1ddc5ULL,
        {{0xffffULL, kFea, 20000, 0x1.09b2add1fb00ep+18},
         {0xefffULL, kFea, 5000, 0x1.0a7a6c25b465ep+18},
         {0xefbfULL, kFea, 5000, 0x1.0ae94f4812746p+18},
         {0xef3fULL, kUnk, 5000, 0x0p+0}}},
       {2, 0xdc08ULL, 0x1.10d8394c8a4adp+18, 0x622a0841cf3bf2b9ULL, 0x30508c5dae9bcff8ULL,
        {{0xffffULL, kFea, 20000, 0x1.0b875ab84f80dp+18},
         {0xfffdULL, kFea, 5000, 0x1.0bd2c23278d0bp+18},
         {0xdffdULL, kFea, 5000, 0x1.0bd2dec38043ap+18},
         {0xdf7dULL, kFea, 5000, 0x1.0bd7a2f341ccap+18},
         {0xdf3dULL, kFea, 5000, 0x1.0c3aab8e71e4ep+18},
         {0xdf3cULL, kFea, 5000, 0x1.0d1cbcb61ac82p+18},
         {0xdf2cULL, kFea, 5000, 0x1.0dcd0f6de3a68p+18},
         {0xdd2cULL, kFea, 5000, 0x1.0ebaf03f4330ap+18},
         {0xdd28ULL, kFea, 5000, 0x1.0ec6e412181f6p+18},
         {0xdc28ULL, kFea, 5000, 0x1.10a5497c475eap+18},
         {0xdc08ULL, kFea, 5000, 0x1.10d8394c8a4adp+18},
         {0xdc00ULL, kUnk, 5000, 0x0p+0}}},
  });
  // clang-format on
}


TEST(MechanismGoldenTest, TableIScenarios8192x16) {
  // Fig. 9's largest size with the perfbench budgets: every solve is
  // budget-bound, so the greedy seed and its polish decide each answer.
  // Recorded while the seed still scanned every GSP in row order.
  // clang-format off
  expect_golden(16, 8192, paper_budget(), {
       {0, 0xd291ULL, 0x1.155b2c2f295f9p+21, 0xd588fd3bfe901578ULL, 0xd769ad708a488f9bULL,
        {{0xffffULL, kFea, 20000, 0x1.13dd3951f1ce8p+21},
         {0xfffbULL, kFea, 5000, 0x1.1430546bf9a66p+21},
         {0xfefbULL, kFea, 5000, 0x1.143176c80b3fp+21},
         {0xdefbULL, kFea, 5000, 0x1.144489755ba7dp+21},
         {0xdef3ULL, kFea, 5000, 0x1.1447320be66acp+21},
         {0xded3ULL, kFea, 5000, 0x1.147ad791374b6p+21},
         {0xdad3ULL, kFea, 5000, 0x1.1489bac49cecp+21},
         {0xdad1ULL, kFea, 5000, 0x1.14b4d31dc2fb5p+21},
         {0xd2d1ULL, kFea, 5000, 0x1.14df372fa1fa7p+21},
         {0xd291ULL, kFea, 5000, 0x1.155b2c2f295f9p+21},
         {0xd211ULL, kUnk, 5000, 0x0p+0}}},
       {1, 0xfef7ULL, 0x1.1339bada64e6cp+21, 0x6f75de16d8aed18ULL, 0xe568e99e9210ecccULL,
        {{0xffffULL, kFea, 20000, 0x1.12f4b5ca671a1p+21},
         {0xfff7ULL, kFea, 5000, 0x1.132c95d39dc14p+21},
         {0xfef7ULL, kFea, 5000, 0x1.1339bada64e6cp+21},
         {0xf6f7ULL, kFea, 5000, 0x1.1413db8873a2cp+21},
         {0xf6f3ULL, kFea, 5000, 0x1.141b9e8ca086p+21},
         {0xf2f3ULL, kFea, 5000, 0x1.142860db9defbp+21},
         {0xf2e3ULL, kUnk, 5000, 0x0p+0}}},
       {2, 0x3458ULL, 0x1.1394cee483e32p+21, 0x8cd098de0ef19548ULL, 0x7cdce6c569a579b9ULL,
        {{0xffffULL, kFea, 20000, 0x1.11b0425c42192p+21},
         {0xfeffULL, kFea, 5000, 0x1.11e655109d70dp+21},
         {0xbeffULL, kFea, 5000, 0x1.11eb76cc8b59ep+21},
         {0xbedfULL, kFea, 5000, 0x1.123723c1e955cp+21},
         {0xbedeULL, kFea, 5000, 0x1.1249b7af5d35cp+21},
         {0xbedaULL, kFea, 5000, 0x1.1249bc1714145p+21},
         {0xbcdaULL, kFea, 5000, 0x1.1249c06d9e186p+21},
         {0xb4daULL, kFea, 5000, 0x1.128768daca43dp+21},
         {0x34daULL, kFea, 5000, 0x1.1288d18fba054p+21},
         {0x345aULL, kFea, 5000, 0x1.138626fb49ac1p+21},
         {0x3458ULL, kFea, 5000, 0x1.1394cee483e32p+21},
         {0x1458ULL, kUnk, 5000, 0x0p+0}}},
  });
  // clang-format on
}

}  // namespace
}  // namespace svo::core
