#include "trust/reputation.hpp"

#include <gtest/gtest.h>

#include "obs/trace.hpp"

namespace svo::trust {
namespace {

TEST(ReputationEngineTest, SymmetricRingIsUniform) {
  TrustGraph g(4);
  for (std::size_t i = 0; i < 4; ++i) {
    g.set_trust(i, (i + 1) % 4, 1.0);
    g.set_trust(i, (i + 3) % 4, 1.0);
  }
  const ReputationEngine engine;
  const ReputationResult r = engine.compute(g);
  ASSERT_TRUE(r.converged);
  for (const double s : r.scores) EXPECT_NEAR(s, 0.25, 1e-6);
  EXPECT_NEAR(r.average, 0.25, 1e-9);
}

TEST(ReputationEngineTest, HighlyTrustedGspScoresHighest) {
  // Everyone trusts G0 much more than the others.
  TrustGraph g(4);
  for (std::size_t i = 1; i < 4; ++i) {
    g.set_trust(i, 0, 10.0);
    g.set_trust(i, (i % 3) + 1 == i ? ((i + 1) % 4) : ((i % 3) + 1), 1.0);
  }
  g.set_trust(0, 1, 1.0);
  const ReputationEngine engine;
  const ReputationResult r = engine.compute(g);
  ASSERT_TRUE(r.converged);
  for (std::size_t i = 1; i < 4; ++i) EXPECT_GT(r.scores[0], r.scores[i]);
}

TEST(ReputationEngineTest, ScoresSumToOne) {
  util::Xoshiro256 rng(5);
  const TrustGraph g = random_trust_graph(16, 0.1, rng);
  const ReputationEngine engine;
  const ReputationResult r = engine.compute(g);
  double sum = 0.0;
  for (const double s : r.scores) {
    EXPECT_GE(s, 0.0);
    sum += s;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_NEAR(r.average, 1.0 / 16.0, 1e-9);
}

TEST(ReputationEngineTest, CoalitionRestrictionChangesScores) {
  // G2 is the only member trusting G1; once G2 is outside the coalition,
  // G1's standing must drop relative to G0.
  TrustGraph g(3);
  g.set_trust(0, 1, 1.0);
  g.set_trust(1, 0, 5.0);
  g.set_trust(2, 1, 10.0);
  const ReputationEngine engine;
  const ReputationResult full = engine.compute(g);
  const ReputationResult pair = engine.compute(g, {0, 1});
  ASSERT_EQ(pair.scores.size(), 2u);
  // Within the pair, mutual normalized trust is symmetric -> equal-ish;
  // in the full graph G1 receives extra mass from G2.
  const double rel_full = full.scores[1] / full.scores[0];
  const double rel_pair = pair.scores[1] / pair.scores[0];
  EXPECT_GT(rel_full, rel_pair);
}

TEST(ReputationEngineTest, EmptyCoalitionIsEmptyResult) {
  TrustGraph g(3);
  const ReputationEngine engine;
  const ReputationResult r = engine.compute(g, {});
  EXPECT_TRUE(r.scores.empty());
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.average, 0.0);
}

TEST(ReputationEngineTest, SingletonCoalition) {
  TrustGraph g(3);
  g.set_trust(0, 1, 1.0);
  const ReputationEngine engine;
  const ReputationResult r = engine.compute(g, {1});
  ASSERT_EQ(r.scores.size(), 1u);
  EXPECT_NEAR(r.scores[0], 1.0, 1e-9);
}

TEST(ReputationEngineTest, EdgelessGraphIsUniform) {
  TrustGraph g(5);
  const ReputationEngine engine;
  const ReputationResult r = engine.compute(g);
  for (const double s : r.scores) EXPECT_NEAR(s, 0.2, 1e-9);
}

TEST(ReputationEngineTest, PaperLiteralModeDampingZero) {
  // damping = 0 reproduces Algorithm 2 exactly (modulo normalization).
  TrustGraph g(3);
  g.set_trust(0, 1, 1.0);
  g.set_trust(1, 2, 1.0);
  g.set_trust(2, 0, 1.0);
  g.set_trust(0, 2, 1.0);
  ReputationOptions opts;
  opts.power.damping = 0.0;
  const ReputationEngine engine(opts);
  const ReputationResult r = engine.compute(g);
  ASSERT_TRUE(r.converged);
  double sum = 0.0;
  for (const double s : r.scores) sum += s;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ReputationEngineTest, NonConvergenceIsReportedNotHidden) {
  // 0 -> {1, 2}, {1, 2} -> 0 is periodic with period 2: undamped, the
  // iterate flips between uniform and (2/3, 1/6, 1/6) forever.
  TrustGraph g(3);
  g.set_trust(0, 1, 1.0);
  g.set_trust(0, 2, 1.0);
  g.set_trust(1, 0, 1.0);
  g.set_trust(2, 0, 1.0);
  ReputationOptions opts;
  opts.power.damping = 0.0;
  opts.power.max_iterations = 50;

  obs::Recorder& recorder = obs::Recorder::instance();
  recorder.clear();
  recorder.enable();
  const ReputationResult r = ReputationEngine(opts).compute(g);
  const std::uint64_t nonconverged =
      recorder.metrics().counter("trust.reputation.nonconverged").value();
  recorder.disable();
  recorder.clear();

  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 50u);
  ASSERT_EQ(r.scores.size(), 3u);
  double sum = 0.0;
  for (const double s : r.scores) sum += s;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_EQ(nonconverged, 1u);
}

TEST(AverageReputationTest, MatchesEq7) {
  EXPECT_DOUBLE_EQ(average_reputation({0.2, 0.4}), 0.3);
  EXPECT_DOUBLE_EQ(average_reputation({}), 0.0);
}

}  // namespace
}  // namespace svo::trust
