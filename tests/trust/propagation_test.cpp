#include "trust/propagation.hpp"

#include <gtest/gtest.h>

namespace svo::trust {
namespace {

/// 0 -> 1 -> 2 chain plus a weak direct 0 -> 2 edge.
TrustGraph chain_with_shortcut() {
  TrustGraph g(3);
  g.set_trust(0, 1, 0.9);
  g.set_trust(1, 2, 0.8);
  g.set_trust(0, 2, 0.1);
  return g;
}

TEST(PropagationTest, ProductBestPathBeatsWeakDirectEdge) {
  const TrustGraph g = chain_with_shortcut();
  PropagationOptions opts;  // Product + BestPath
  const auto t = propagate_trust(g, 0, 2, opts);
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 0.9 * 0.8, 1e-12);  // indirect path wins over 0.1
}

TEST(PropagationTest, MinimumConcatenation) {
  const TrustGraph g = chain_with_shortcut();
  PropagationOptions opts;
  opts.concatenation = Concatenation::Minimum;
  const auto t = propagate_trust(g, 0, 2, opts);
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 0.8, 1e-12);  // weakest link of the strong path
}

TEST(PropagationTest, ProbabilisticOrCombinesPaths) {
  const TrustGraph g = chain_with_shortcut();
  PropagationOptions opts;
  opts.aggregation = Aggregation::ProbabilisticOr;
  const auto t = propagate_trust(g, 0, 2, opts);
  ASSERT_TRUE(t.has_value());
  // Two simple paths: direct (0.1) and via 1 (0.72).
  EXPECT_NEAR(*t, 1.0 - (1.0 - 0.1) * (1.0 - 0.72), 1e-12);
}

TEST(PropagationTest, HopLimitCutsLongPaths) {
  TrustGraph g(4);
  g.set_trust(0, 1, 1.0);
  g.set_trust(1, 2, 1.0);
  g.set_trust(2, 3, 1.0);
  PropagationOptions opts;
  opts.max_hops = 2;
  EXPECT_FALSE(propagate_trust(g, 0, 3, opts).has_value());
  opts.max_hops = 3;
  const auto t = propagate_trust(g, 0, 3, opts);
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 1.0, 1e-12);
}

TEST(PropagationTest, NoPathGivesNullopt) {
  TrustGraph g(3);
  g.set_trust(0, 1, 0.5);
  EXPECT_FALSE(propagate_trust(g, 1, 0, {}).has_value());
  EXPECT_FALSE(propagate_trust(g, 2, 1, {}).has_value());
}

TEST(PropagationTest, WeightsAboveOneClamped) {
  TrustGraph g(3);
  g.set_trust(0, 1, 5.0);  // raw trust can exceed 1
  g.set_trust(1, 2, 0.5);
  const auto t = propagate_trust(g, 0, 2, {});
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 1.0 * 0.5, 1e-12);
}

TEST(PropagationTest, CyclesDoNotInflateTrust) {
  // 0 <-> 1 cycle plus 1 -> 2: the cycle must not let the product-based
  // DP diverge or a DFS loop forever.
  TrustGraph g(3);
  g.set_trust(0, 1, 0.9);
  g.set_trust(1, 0, 0.9);
  g.set_trust(1, 2, 0.5);
  PropagationOptions best;
  best.max_hops = 6;
  const auto t1 = propagate_trust(g, 0, 2, best);
  ASSERT_TRUE(t1.has_value());
  EXPECT_NEAR(*t1, 0.9 * 0.5, 1e-12);
  PropagationOptions por;
  por.aggregation = Aggregation::ProbabilisticOr;
  por.max_hops = 6;
  const auto t2 = propagate_trust(g, 0, 2, por);
  ASSERT_TRUE(t2.has_value());
  EXPECT_NEAR(*t2, 0.45, 1e-12);  // only one *simple* path exists
}

TEST(PropagationTest, ValidatesArguments) {
  TrustGraph g(2);
  EXPECT_THROW((void)propagate_trust(g, 0, 0, {}), InvalidArgument);
  EXPECT_THROW((void)propagate_trust(g, 0, 5, {}), InvalidArgument);
  PropagationOptions bad;
  bad.max_hops = 0;
  EXPECT_THROW((void)propagate_trust(g, 0, 1, bad), InvalidArgument);
}

TEST(PropagatedMatrixTest, MatchesPairwiseQueries) {
  TrustGraph g(4);
  g.set_trust(0, 1, 0.7);
  g.set_trust(1, 2, 0.6);
  g.set_trust(2, 3, 0.9);
  g.set_trust(3, 0, 0.4);
  for (const Aggregation agg :
       {Aggregation::BestPath, Aggregation::ProbabilisticOr}) {
    PropagationOptions opts;
    opts.aggregation = agg;
    const linalg::Matrix m = propagated_matrix(g, opts);
    for (std::size_t s = 0; s < 4; ++s) {
      EXPECT_DOUBLE_EQ(m(s, s), 0.0);
      for (std::size_t t = 0; t < 4; ++t) {
        if (s == t) continue;
        const auto q = propagate_trust(g, s, t, opts);
        EXPECT_DOUBLE_EQ(m(s, t), q.value_or(0.0));
      }
    }
  }
}

}  // namespace
}  // namespace svo::trust
