/// The storage contract of DESIGN.md §4i: the engine solves on CSR, and
/// CSR is an implementation detail — on random inputs it reproduces the
/// dense reference pipeline of tests/trust/dense_reference.hpp bit for
/// bit (standard, coalition and robust paths), and the attack-resilience
/// properties proven on dense matrices carry over. Plus the TrustGraph
/// identity/version/delta bookkeeping and the incremental
/// ReputationCache the streaming plane builds on.
#include "trust/reputation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/mechanism.hpp"
#include "core/tvof.hpp"
#include "ip/bnb.hpp"
#include "obs/trace.hpp"
#include "tests/ip/test_instances.hpp"
#include "tests/trust/dense_reference.hpp"
#include "trust/attack.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace svo::trust {
namespace {

using testing::dense_normalized;
using testing::dense_reputation;

void expect_bitwise_equal(const ReputationResult& a, const ReputationResult& b,
                          const char* label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(a.scores.size(), b.scores.size());
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.average, b.average);
  for (std::size_t i = 0; i < a.scores.size(); ++i) {
    EXPECT_EQ(a.scores[i], b.scores[i]) << "score " << i;
  }
}

TEST(TrustGraphSparseTest, NormalizedSparseMatchesDenseBitwise) {
  util::Xoshiro256 rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 2 + rng.index(50);
    const TrustGraph g = random_trust_graph(n, rng.uniform(0.05, 0.5), rng);
    const linalg::Matrix dense = dense_normalized(g);
    const linalg::Matrix sparse = g.normalized_sparse().to_dense();
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_EQ(sparse(i, j), dense(i, j)) << n << " " << i << " " << j;
      }
    }
    // Coalition restriction too.
    std::vector<std::size_t> members;
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.bernoulli(0.6)) members.push_back(i);
    }
    const linalg::Matrix dc = dense_normalized(g, members);
    const linalg::Matrix sc = g.normalized_sparse(members).to_dense();
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (std::size_t j = 0; j < members.size(); ++j) {
        EXPECT_EQ(sc(i, j), dc(i, j));
      }
    }
  }
}

TEST(TrustGraphSparseTest, RawSparseHoldsUnnormalizedTrust) {
  TrustGraph g(4);
  g.set_trust(0, 1, 2.5);
  g.set_trust(0, 2, 7.5);
  g.set_trust(3, 0, 0.25);
  const linalg::SparseMatrix raw = g.raw_sparse();
  EXPECT_EQ(raw.at(0, 1), 2.5);
  EXPECT_EQ(raw.at(0, 2), 7.5);
  EXPECT_EQ(raw.at(3, 0), 0.25);
  EXPECT_EQ(raw.nnz(), 3u);
  // Coalition restriction uses local indices; edges touching the
  // excluded member 3 are dropped.
  const linalg::SparseMatrix coalition = g.raw_sparse({0, 1, 2});
  EXPECT_EQ(coalition.at(0, 1), 2.5);
  EXPECT_EQ(coalition.at(0, 2), 7.5);
  EXPECT_EQ(coalition.nnz(), 2u);
}

/// The CSR engine agrees bitwise with the dense reference on every path:
/// full graph, coalition, and the robust (defended) pipeline under each
/// aggregation, with credibility weighting on and off and two quarantined
/// identities — serial and pooled.
TEST(DenseSparseEquivalenceTest, AllPathsBitIdentical) {
  util::Xoshiro256 rng(4242);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 3 + rng.index(48);
    const TrustGraph g = random_trust_graph(n, rng.uniform(0.08, 0.4), rng);

    ReputationOptions o;
    ReputationOptions pooled;
    pooled.power.threads = 3;  // pooled path must agree too

    expect_bitwise_equal(dense_reputation(g, o), ReputationEngine(o).compute(g),
                         "full graph");
    expect_bitwise_equal(dense_reputation(g, o),
                         ReputationEngine(pooled).compute(g),
                         "full graph, pooled");

    std::vector<std::size_t> members;
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.bernoulli(0.5)) members.push_back(i);
    }
    expect_bitwise_equal(dense_reputation(g, members, o),
                         ReputationEngine(o).compute(g, members), "coalition");

    o.robust.enabled = true;
    o.robust.fresh = {0, n / 2};
    for (const bool credibility : {true, false}) {
      for (const RowAggregation agg :
           {RowAggregation::Sum, RowAggregation::TrimmedMean,
            RowAggregation::MedianOfMeans}) {
        o.robust.credibility_weighting = credibility;
        o.robust.aggregation = agg;
        expect_bitwise_equal(dense_reputation(g, o),
                             ReputationEngine(o).compute(g),
                             "robust full graph");
        expect_bitwise_equal(dense_reputation(g, members, o),
                             ReputationEngine(o).compute(g, members),
                             "robust coalition");
      }
    }
  }
}

TEST(TrustGraphVersionTest, VersionCountsEffectiveMutationsOnly) {
  TrustGraph g(4);
  EXPECT_EQ(g.version(), 0u);
  g.set_trust(0, 1, 0.5);
  EXPECT_EQ(g.version(), 1u);
  g.set_trust(0, 1, 0.5);  // same value: no-op
  EXPECT_EQ(g.version(), 1u);
  g.set_trust(0, 1, 0.75);
  EXPECT_EQ(g.version(), 2u);
  g.set_trust(2, 3, 0.0);  // removing an absent edge: no-op
  EXPECT_EQ(g.version(), 2u);
  g.set_trust(0, 1, 0.0);  // removal counts
  EXPECT_EQ(g.version(), 3u);

  const auto delta = g.edges_changed_since(1);
  ASSERT_TRUE(delta.has_value());
  ASSERT_EQ(delta->size(), 2u);
  EXPECT_EQ((*delta)[0], (std::pair<std::size_t, std::size_t>{0, 1}));
  EXPECT_EQ((*delta)[1], (std::pair<std::size_t, std::size_t>{0, 1}));
  // Asking at (or past) the current version yields an empty delta.
  EXPECT_TRUE(g.edges_changed_since(3).has_value());
  EXPECT_TRUE(g.edges_changed_since(3)->empty());
  EXPECT_TRUE(g.edges_changed_since(99)->empty());
}

TEST(TrustGraphVersionTest, BoundedLogReportsWindowLoss) {
  TrustGraph g(3);
  // Alternate values so every set_trust is effective: > 1024 changes
  // overflow the bounded log and drop its oldest half.
  for (int k = 0; k < 1500; ++k) {
    g.set_trust(0, 1, 0.25 + 0.5 * (k % 2));
  }
  EXPECT_EQ(g.version(), 1500u);
  EXPECT_FALSE(g.edges_changed_since(0).has_value());  // window lost
  const auto recent = g.edges_changed_since(1499);
  ASSERT_TRUE(recent.has_value());
  EXPECT_EQ(recent->size(), 1u);
}

TEST(TrustGraphVersionTest, CopyGetsFreshUidMoveStealsIt) {
  TrustGraph g(3);
  g.set_trust(0, 1, 0.5);
  const std::uint64_t uid = g.uid();

  const TrustGraph copy(g);
  EXPECT_NE(copy.uid(), uid);          // fresh identity
  EXPECT_EQ(copy.version(), g.version());
  EXPECT_EQ(copy.trust(0, 1), 0.5);

  TrustGraph moved(std::move(g));
  EXPECT_EQ(moved.uid(), uid);  // identity travels with the content
  EXPECT_EQ(moved.trust(0, 1), 0.5);
  EXPECT_NE(g.uid(), uid);  // NOLINT(bugprone-use-after-move): reset contract
  EXPECT_EQ(g.size(), 0u);
}

TEST(ReputationCacheTest, ExactHitIsBitIdenticalAndSkipsRecompute) {
  util::Xoshiro256 rng(808);
  const TrustGraph g = random_sparse_trust_graph(300, 6, rng);
  ReputationCache cache;
  ReputationOptions o;
  o.cache = &cache;
  const ReputationEngine engine(o);

  const ReputationResult first = engine.compute(g);
  EXPECT_EQ(cache.stats().cold_starts, 1u);
  const ReputationResult second = engine.compute(g);
  EXPECT_EQ(cache.stats().exact_hits, 1u);
  expect_bitwise_equal(first, second, "exact hit");

  // And identical to a cache-less engine: the cache is invisible.
  expect_bitwise_equal(ReputationEngine().compute(g), first,
                       "cacheless equivalence");
}

/// Tracing on: an exact hit ran no power iteration, so it must count
/// only as a cache hit — the reputation counters keep matching the work
/// the sparse kernel actually did.
TEST(ReputationCacheTest, ExactHitRecordsNoComputeWork) {
  obs::Recorder& recorder = obs::Recorder::instance();
  recorder.clear();
  recorder.enable();
  util::Xoshiro256 rng(909);
  const TrustGraph g = random_sparse_trust_graph(200, 5, rng);
  ReputationCache cache;
  ReputationOptions o;
  o.cache = &cache;
  const ReputationEngine engine(o);
  (void)engine.compute(g);  // cold
  (void)engine.compute(g);  // exact hit
  obs::MetricRegistry& m = recorder.metrics();
  const std::uint64_t reputation_iterations =
      m.counter("trust.reputation.power_iterations").value();
  const std::uint64_t kernel_iterations =
      m.counter("linalg.sparse_power.iterations").value();
  const std::uint64_t computes = m.counter("trust.reputation.computes").value();
  const std::uint64_t hits = m.counter("trust.reputation.cache_exact_hits").value();
  recorder.disable();
  recorder.clear();

  EXPECT_EQ(cache.stats().exact_hits, 1u);
  EXPECT_GT(kernel_iterations, 0u);
  EXPECT_EQ(reputation_iterations, kernel_iterations);
  EXPECT_EQ(computes, 1u);
  EXPECT_EQ(hits, 1u);
}

TEST(ReputationCacheTest, SmallDeltaWarmStartsLargeDeltaColdStarts) {
  util::Xoshiro256 rng(606);
  TrustGraph g = random_sparse_trust_graph(2000, 10, rng);
  ReputationCache cache;
  ReputationOptions o;
  o.cache = &cache;
  o.warm_max_delta = 16;
  const ReputationEngine engine(o);

  const ReputationResult cold = engine.compute(g);
  ASSERT_TRUE(cold.converged);

  // Perturb a handful of edges: warm start, fewer iterations, same
  // fixed point within tolerance.
  for (std::size_t k = 0; k < 8; ++k) {
    g.set_trust(k, k + 1, 0.9);
  }
  const ReputationResult warm = engine.compute(g);
  EXPECT_EQ(cache.stats().warm_starts, 1u);
  EXPECT_LT(warm.iterations, cold.iterations);
  EXPECT_GT(cache.stats().iterations_saved, 0u);
  double drift = 0.0;
  for (std::size_t i = 0; i < warm.scores.size(); ++i) {
    drift += std::abs(warm.scores[i] - cold.scores[i]);
  }
  EXPECT_LT(drift, 0.05);  // 8 edges out of ~20k barely move the vector

  // A delta past warm_max_delta cold-starts.
  for (std::size_t k = 0; k < 40; ++k) {
    g.set_trust(100 + k, 200 + k, 0.5);
  }
  (void)engine.compute(g);
  EXPECT_EQ(cache.stats().cold_starts, 2u);
}

TEST(ReputationCacheTest, OptionsChangeAndForeignGraphMiss) {
  util::Xoshiro256 rng(123);
  const TrustGraph g = random_sparse_trust_graph(200, 5, rng);
  const TrustGraph other = random_sparse_trust_graph(200, 5, rng);
  ReputationCache cache;
  ReputationOptions o;
  o.cache = &cache;
  (void)ReputationEngine(o).compute(g);
  // Different graph object: the uid mismatch forces a cold start.
  (void)ReputationEngine(o).compute(other);
  EXPECT_EQ(cache.stats().cold_starts, 2u);
  EXPECT_EQ(cache.stats().exact_hits, 0u);
  // Changed power options: fingerprint mismatch, cold again.
  o.power.epsilon = 1e-6;
  (void)ReputationEngine(o).compute(other);
  EXPECT_EQ(cache.stats().cold_starts, 3u);

  cache.clear();
  EXPECT_EQ(cache.stats().cold_starts, 0u);
}

TEST(ReputationCacheTest, RobustPipelineRejectsCache) {
  ReputationCache cache;
  ReputationOptions o;
  o.cache = &cache;
  o.robust.enabled = true;
  const TrustGraph g(4);
  EXPECT_THROW((void)ReputationEngine(o).compute(g), InvalidArgument);
}

/// TVOF's removal rule (lowest reputation, ties within 1e-12 broken
/// uniformly at random) applied to the dense reference's coalition
/// reputations instead of the engine's.
class DenseReferenceTvof final : public core::VoFormationMechanism {
 public:
  using VoFormationMechanism::VoFormationMechanism;
  [[nodiscard]] std::string name() const override { return "TVOF-dense"; }

 protected:
  [[nodiscard]] std::size_t choose_removal(
      const TrustGraph& trust, const std::vector<std::size_t>& members,
      const std::vector<double>& /*scores*/,
      util::Xoshiro256& rng) const override {
    const std::vector<double> scores =
        dense_reputation(trust, members, config().reputation).scores;
    double lowest = std::numeric_limits<double>::infinity();
    for (const double s : scores) lowest = std::min(lowest, s);
    std::vector<std::size_t> ties;
    for (std::size_t i = 0; i < scores.size(); ++i) {
      if (scores[i] <= lowest + 1e-12) ties.push_back(i);
    }
    return ties[ties.size() == 1 ? 0 : rng.index(ties.size())];
  }
};

/// Mechanism-level acceptance: TVOF driven by the dense reference's
/// reputations yields a bit-identical VO, cost, journal and RNG probe —
/// the CSR storage cannot leak into mechanism outcomes.
TEST(DenseSparseEquivalenceTest, MechanismOutcomesBitIdentical) {
  const ip::BnbAssignmentSolver solver;
  for (const std::uint64_t seed : {5u, 29u, 71u}) {
    util::Xoshiro256 setup(seed);
    const ip::AssignmentInstance instance =
        ip::testing::random_instance(8, 16, setup);
    const TrustGraph trust = random_trust_graph(8, 0.4, setup);

    const DenseReferenceTvof dense_mech(solver, {});
    const core::TvofMechanism sparse_mech(solver);
    util::Xoshiro256 rng_dense(seed * 17 + 1);
    util::Xoshiro256 rng_sparse(seed * 17 + 1);
    const core::MechanismResult d =
        dense_mech.run(core::FormationRequest{instance, trust, rng_dense});
    const core::MechanismResult s =
        sparse_mech.run(core::FormationRequest{instance, trust, rng_sparse});

    EXPECT_EQ(s.success, d.success);
    EXPECT_EQ(s.selected.bits(), d.selected.bits());
    EXPECT_EQ(s.mapping, d.mapping);
    EXPECT_EQ(s.cost, d.cost);
    EXPECT_EQ(s.value, d.value);
    EXPECT_EQ(s.global_reputation,
              dense_reputation(trust, sparse_mech.config().reputation).scores);
    ASSERT_EQ(s.journal.size(), d.journal.size());
    EXPECT_GT(s.journal.size(), 2u);  // several removals were compared
    for (std::size_t i = 0; i < d.journal.size(); ++i) {
      EXPECT_EQ(s.journal[i].coalition.bits(), d.journal[i].coalition.bits());
      EXPECT_EQ(s.journal[i].cost, d.journal[i].cost);
      EXPECT_EQ(s.journal[i].removed_gsp, d.journal[i].removed_gsp);
    }
    // Both consumed the RNG identically (probe the next draw).
    EXPECT_EQ(rng_dense(), rng_sparse());
  }
}

/// The attack harness holds on the CSR engine: the defended engine scores
/// each attacked graph bit-identically to the dense reference, so every
/// resilience property proven on dense matrices transfers verbatim.
TEST(DenseSparseEquivalenceTest, AttackHarnessTransfersToSparseBackend) {
  for (const AttackType type :
       {AttackType::Badmouthing, AttackType::BallotStuffing,
        AttackType::Collusion, AttackType::Sybil}) {
    SCOPED_TRACE(static_cast<int>(type));
    util::Xoshiro256 rng(2718);
    TrustGraph g = random_trust_graph(24, 0.3, rng);
    AttackScenario s;
    s.type = type;
    s.attacker_fraction = 0.25;
    s.intensity = 0.9;
    s.seed = 99;
    const AttackInjector injector(s, 24);
    (void)injector.apply(g, 0);

    ReputationOptions o;
    o.robust.enabled = true;
    o.robust.fresh = injector.fresh_identities(0, 2);
    expect_bitwise_equal(dense_reputation(g, o), ReputationEngine(o).compute(g),
                         "defended attacked graph");
  }
}

TEST(RandomSparseTrustGraphTest, ProducesBoundedDegreePositiveWeights) {
  util::Xoshiro256 rng(1);
  const TrustGraph g = random_sparse_trust_graph(500, 7, rng);
  EXPECT_EQ(g.size(), 500u);
  EXPECT_GT(g.graph().edge_count(), 0u);
  std::size_t max_deg = 0;
  for (std::size_t i = 0; i < 500; ++i) {
    max_deg = std::max(max_deg, g.graph().out_degree(i));
    for (const graph::Edge& e : g.graph().out_edges(i)) {
      EXPECT_GT(e.weight, 0.0);
      EXPECT_NE(e.to, i);
    }
  }
  EXPECT_LE(max_deg, 7u);
  EXPECT_THROW((void)random_sparse_trust_graph(1, 3, rng), InvalidArgument);
  EXPECT_THROW((void)random_sparse_trust_graph(5, 0, rng), InvalidArgument);
}

}  // namespace
}  // namespace svo::trust
