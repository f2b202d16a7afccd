#include "trust/robust.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "tests/trust/dense_reference.hpp"
#include "trust/attack.hpp"
#include "trust/reputation.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace svo::trust {
namespace {

/// Random graph where every GSP rates at least one other (no dangling
/// rows), so literal and neutral-robust operators agree bit for bit even
/// with damping > 0 (the dangling-mass term is the one place their
/// floating-point grouping differs).
TrustGraph no_dangling_graph(std::size_t m, util::Xoshiro256& rng) {
  TrustGraph g(m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      if (i != j && rng.uniform(0.0, 1.0) < 0.6) {
        g.set_trust(i, j, rng.uniform(0.05, 1.0));
      }
    }
    const std::size_t fallback = (i + 1) % m;
    if (g.trust(i, fallback) == 0.0) g.set_trust(i, fallback, 0.5);
  }
  return g;
}

void expect_scores_identical(const ReputationResult& a,
                             const ReputationResult& b) {
  ASSERT_EQ(a.scores.size(), b.scores.size());
  for (std::size_t i = 0; i < a.scores.size(); ++i) {
    EXPECT_EQ(a.scores[i], b.scores[i]) << "score " << i;  // exact
  }
  EXPECT_EQ(a.average, b.average);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
}

TEST(RobustOptionsTest, ValidateRejectsBadKnobs) {
  RobustOptions o;
  EXPECT_NO_THROW(o.validate());
  o.credibility_strength = -1.0;
  EXPECT_THROW(o.validate(), InvalidArgument);
  o = RobustOptions{};
  o.trim_fraction = 0.5;
  EXPECT_THROW(o.validate(), InvalidArgument);
  o = RobustOptions{};
  o.mom_buckets = 0;
  EXPECT_THROW(o.validate(), InvalidArgument);
  o = RobustOptions{};
  o.quarantine_prior = 0.0;
  EXPECT_THROW(o.validate(), InvalidArgument);
  o.quarantine_prior = 1.5;
  EXPECT_THROW(o.validate(), InvalidArgument);
}

TEST(RobustEquivalenceTest, DefensesOffIsBitIdenticalToLiteral) {
  // The ISSUE's hard requirement: with robust.enabled == false the
  // engine must produce the exact literal pipeline output no matter how
  // the other defense knobs are set.
  util::Xoshiro256 rng(17);
  for (int trial = 0; trial < 5; ++trial) {
    const TrustGraph g = random_trust_graph(12, 0.3, rng);
    const ReputationEngine literal;  // default options, robust absent
    ReputationOptions opts;
    opts.robust.enabled = false;
    opts.robust.credibility_strength = 42.0;
    opts.robust.aggregation = RowAggregation::MedianOfMeans;
    opts.robust.quarantine_prior = 0.01;
    opts.robust.fresh = {0, 3, 7};
    const ReputationEngine off(opts);
    expect_scores_identical(literal.compute(g), off.compute(g));
    const std::vector<std::size_t> coalition = {0, 2, 3, 5, 9, 11};
    expect_scores_identical(literal.compute(g, coalition),
                            off.compute(g, coalition));
    // And both must equal the raw linalg kernel on the same matrix.
    const linalg::PowerMethodResult pm =
        linalg::power_method(testing::dense_normalized(g), {});
    const ReputationResult r = off.compute(g);
    ASSERT_EQ(r.scores.size(), pm.eigenvector.size());
    for (std::size_t i = 0; i < r.scores.size(); ++i) {
      EXPECT_EQ(r.scores[i], pm.eigenvector[i]);
    }
  }
}

TEST(RobustEquivalenceTest, NeutralDefensesMatchLiteralBitwise) {
  // enabled = true but every layer neutralized (no credibility, plain
  // Sum, nothing quarantined): the robust operator must reproduce the
  // literal fixed point exactly on dangling-free graphs.
  util::Xoshiro256 rng(23);
  ReputationOptions opts;
  opts.robust.enabled = true;
  opts.robust.credibility_weighting = false;
  opts.robust.aggregation = RowAggregation::Sum;
  opts.robust.fresh.clear();
  const ReputationEngine robust_engine(opts);
  const ReputationEngine literal;
  for (int trial = 0; trial < 5; ++trial) {
    const TrustGraph g = no_dangling_graph(10, rng);
    expect_scores_identical(literal.compute(g), robust_engine.compute(g));
    const std::vector<std::size_t> coalition = {1, 2, 4, 6, 7, 9};
    // Coalition restriction can reintroduce dangling rows; this one
    // cannot be avoided in general, so compare with damping 0 where the
    // groupings coincide exactly.
    ReputationOptions zero = opts;
    zero.power.damping = 0.0;
    ReputationOptions zero_literal;
    zero_literal.power.damping = 0.0;
    expect_scores_identical(
        ReputationEngine(zero_literal).compute(g, coalition),
        ReputationEngine(zero).compute(g, coalition));
  }
}

TEST(RobustPowerMethodTest, UnitWeightsSumMatchesLinalgKernel) {
  util::Xoshiro256 rng(31);
  const TrustGraph g = no_dangling_graph(8, rng);
  const linalg::PowerMethodOptions power;
  const linalg::PowerMethodResult lit =
      linalg::power_method(testing::dense_normalized(g), power);
  const linalg::PowerMethodResult rob =
      robust_power_method(g.normalized_sparse(), std::vector<double>(8, 1.0),
                          power, RowAggregation::Sum, 0.2, 3);
  ASSERT_EQ(lit.eigenvector.size(), rob.eigenvector.size());
  for (std::size_t i = 0; i < lit.eigenvector.size(); ++i) {
    EXPECT_EQ(lit.eigenvector[i], rob.eigenvector[i]);
  }
  EXPECT_EQ(lit.iterations, rob.iterations);
  EXPECT_EQ(lit.converged, rob.converged);
}

TEST(RobustPowerMethodTest, ValidatesInputs) {
  util::Xoshiro256 rng(1);
  const TrustGraph g = no_dangling_graph(4, rng);
  const linalg::SparseMatrix a = g.normalized_sparse();
  const linalg::PowerMethodOptions power;
  // Wrong weight count.
  EXPECT_THROW((void)robust_power_method(a, std::vector<double>(3, 1.0),
                                         power, RowAggregation::Sum, 0.2, 3),
               InvalidArgument);
  // Out-of-range weight.
  EXPECT_THROW((void)robust_power_method(a, std::vector<double>(4, 1.5),
                                         power, RowAggregation::Sum, 0.2, 3),
               InvalidArgument);
  EXPECT_THROW((void)robust_power_method(a, std::vector<double>(4, 0.0),
                                         power, RowAggregation::Sum, 0.2, 3),
               InvalidArgument);
  // Bad trim fraction / bucket count.
  EXPECT_THROW((void)robust_power_method(a, std::vector<double>(4, 1.0),
                                         power, RowAggregation::TrimmedMean,
                                         0.7, 3),
               InvalidArgument);
  EXPECT_THROW((void)robust_power_method(a, std::vector<double>(4, 1.0),
                                         power, RowAggregation::MedianOfMeans,
                                         0.2, 0),
               InvalidArgument);
}

TEST(ConsensusOpinionsTest, MedianOfClampedReports) {
  TrustGraph g(4);
  g.set_trust(0, 3, 0.2);
  g.set_trust(1, 3, 0.4);
  g.set_trust(2, 3, 5.0);  // clamps to 1.0
  const std::vector<double> c = consensus_opinions(g.raw_sparse());
  ASSERT_EQ(c.size(), 4u);
  EXPECT_DOUBLE_EQ(c[3], 0.4);  // median of {0.2, 0.4, 1.0}
  // Nobody rates members 0-2: consensus undefined.
  EXPECT_TRUE(std::isnan(c[0]));
  EXPECT_TRUE(std::isnan(c[1]));
  EXPECT_TRUE(std::isnan(c[2]));
}

TEST(RaterCredibilityTest, DeviantRaterLosesWeight) {
  // Three honest raters agree member 4 is ~0.8; the slanderer reports
  // 0.05 and must end up with strictly less credibility.
  TrustGraph g(5);
  g.set_trust(0, 4, 0.8);
  g.set_trust(1, 4, 0.8);
  g.set_trust(2, 4, 0.8);
  g.set_trust(3, 4, 0.05);
  const linalg::SparseMatrix raw = g.raw_sparse();
  const std::vector<double> w = rater_credibility(raw, 6.0);
  ASSERT_EQ(w.size(), 5u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GT(w[i], w[3]);
    EXPECT_NEAR(w[i], 1.0, 1e-9);  // zero deviation from consensus
  }
  EXPECT_LT(w[3], 0.1);  // exp(-6 * 0.75) ~= 0.011
  EXPECT_DOUBLE_EQ(w[4], 1.0);  // rates nobody: keeps full weight
  // strength = 0 neutralizes the layer entirely.
  for (const double v : rater_credibility(raw, 0.0)) {
    EXPECT_DOUBLE_EQ(v, 1.0);
  }
}

TEST(QuarantineTest, FreshIdentityIsDemoted) {
  util::Xoshiro256 rng(7);
  const TrustGraph g = no_dangling_graph(8, rng);
  ReputationOptions base;
  base.robust.enabled = true;
  base.robust.credibility_weighting = false;
  base.robust.aggregation = RowAggregation::Sum;
  ReputationOptions quarantined = base;
  quarantined.robust.quarantine_prior = 0.1;
  quarantined.robust.fresh = {2};
  const ReputationResult plain = ReputationEngine(base).compute(g);
  const ReputationResult q = ReputationEngine(quarantined).compute(g);
  ASSERT_EQ(q.scores.size(), 8u);
  EXPECT_LT(q.scores[2], plain.scores[2]);
  double sum = 0.0;
  for (const double s : q.scores) {
    EXPECT_GE(s, 0.0);
    sum += s;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);  // renormalized after demotion
  // Fresh ids outside the coalition are ignored, not an error.
  ReputationOptions outside = quarantined;
  outside.robust.fresh = {7};
  const std::vector<std::size_t> coalition = {0, 1, 2, 3};
  EXPECT_NO_THROW(
      (void)ReputationEngine(outside).compute(g, coalition));
}

TEST(RankCorruptionTest, EndpointsAndTies) {
  const std::vector<double> ref = {0.4, 0.3, 0.2, 0.1};
  EXPECT_DOUBLE_EQ(rank_corruption(ref, ref), 0.0);
  EXPECT_DOUBLE_EQ(rank_corruption(ref, {0.1, 0.2, 0.3, 0.4}), 1.0);
  // Ties in the reference carry no order: nothing to corrupt.
  EXPECT_DOUBLE_EQ(rank_corruption({0.5, 0.5}, {0.9, 0.1}), 0.0);
  // A pair collapsed to a tie in `other` counts as a full inversion.
  EXPECT_DOUBLE_EQ(rank_corruption({0.6, 0.4}, {0.5, 0.5}), 1.0);
  // One of six ordered pairs inverted.
  EXPECT_NEAR(rank_corruption(ref, {0.4, 0.3, 0.1, 0.2}), 1.0 / 6.0, 1e-12);
  EXPECT_THROW((void)rank_corruption({1.0}, {1.0, 2.0}), InvalidArgument);
  EXPECT_DOUBLE_EQ(rank_corruption({}, {}), 0.0);
}

TEST(RobustDefenseTest, CollusionRingDemotedRelativeToLiteral) {
  // The headline property: under a ballot-stuffing + badmouthing ring,
  // the defended engine's ranking stays closer to the honest ranking
  // than the literal engine's does.
  util::Xoshiro256 rng(2026);
  const std::size_t m = 12;
  TrustGraph honest(m);
  // Informative honest graph: everyone roughly agrees on a quality
  // gradient (GSP id / m), with small noise.
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      if (i == j) continue;
      const double quality = 0.15 + 0.8 * static_cast<double>(j) /
                                        static_cast<double>(m);
      honest.set_trust(i, j, quality + rng.uniform(-0.05, 0.05));
    }
  }
  AttackScenario s;
  s.type = AttackType::Collusion;
  s.attacker_fraction = 0.3;
  s.intensity = 0.9;
  s.seed = 5;
  const AttackInjector inj(s, m);
  TrustGraph attacked = honest;
  (void)inj.apply(attacked, 0);

  const ReputationEngine literal;
  ReputationOptions defended;
  defended.robust.enabled = true;
  const ReputationEngine robust_engine(defended);

  const std::vector<double> truth = literal.compute(honest).scores;
  const double literal_corruption =
      rank_corruption(truth, literal.compute(attacked).scores);
  const double robust_corruption =
      rank_corruption(truth, robust_engine.compute(attacked).scores);
  EXPECT_LT(robust_corruption, literal_corruption);
  EXPECT_GT(literal_corruption, 0.2);  // the attack actually bites
}

}  // namespace
}  // namespace svo::trust
