#include "trust/trust_graph.hpp"

#include <gtest/gtest.h>

namespace svo::trust {
namespace {

TEST(TrustGraphTest, SetAndGetTrust) {
  TrustGraph g(3);
  g.set_trust(0, 1, 0.8);
  EXPECT_DOUBLE_EQ(g.trust(0, 1), 0.8);
  EXPECT_DOUBLE_EQ(g.trust(1, 0), 0.0);  // asymmetric
}

TEST(TrustGraphTest, ZeroTrustRemovesEdge) {
  TrustGraph g(2);
  g.set_trust(0, 1, 0.5);
  g.set_trust(0, 1, 0.0);
  EXPECT_DOUBLE_EQ(g.trust(0, 1), 0.0);
  EXPECT_EQ(g.graph().edge_count(), 0u);
}

TEST(TrustGraphTest, SelfTrustRejected) {
  TrustGraph g(2);
  EXPECT_THROW(g.set_trust(1, 1, 0.5), InvalidArgument);
}

TEST(TrustGraphTest, NegativeTrustRejected) {
  TrustGraph g(2);
  EXPECT_THROW(g.set_trust(0, 1, -0.1), InvalidArgument);
}

TEST(TrustGraphTest, NormalizedMatrixRowsSumToOneOrZero) {
  TrustGraph g(3);
  g.set_trust(0, 1, 2.0);
  g.set_trust(0, 2, 6.0);
  g.set_trust(1, 0, 1.0);
  const linalg::SparseMatrix a = g.normalized_sparse();
  EXPECT_DOUBLE_EQ(a.at(0, 1), 0.25);  // eq. (1)
  EXPECT_DOUBLE_EQ(a.at(0, 2), 0.75);
  EXPECT_DOUBLE_EQ(a.at(1, 0), 1.0);
  // GSP 2 trusts nobody: an empty (all-zero) row.
  EXPECT_TRUE(a.row(2).empty());
}

TEST(TrustGraphTest, CoalitionNormalizationExcludesOutsiders) {
  // G0 trusts G1 (1.0) and G2 (3.0). Restricted to {G0, G1}, the trust
  // toward the outsider G2 must vanish and a_01 renormalizes to 1.
  TrustGraph g(3);
  g.set_trust(0, 1, 1.0);
  g.set_trust(0, 2, 3.0);
  g.set_trust(1, 0, 2.0);
  const linalg::SparseMatrix a = g.normalized_sparse({0, 1});
  EXPECT_EQ(a.rows(), 2u);
  EXPECT_DOUBLE_EQ(a.at(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(a.at(1, 0), 1.0);
}

TEST(TrustGraphTest, CoalitionMembersMustBeSortedUnique) {
  TrustGraph g(3);
  EXPECT_THROW((void)g.normalized_sparse({1, 0}), InvalidArgument);
  EXPECT_THROW((void)g.normalized_sparse({0, 0}), InvalidArgument);
  EXPECT_THROW((void)g.normalized_sparse({0, 7}), InvalidArgument);
}

TEST(TrustGraphTest, RecordInteractionEwma) {
  TrustGraph g(2);
  g.set_trust(0, 1, 0.5);
  g.record_interaction(0, 1, 1.0, 0.4);
  EXPECT_NEAR(g.trust(0, 1), 0.7, 1e-12);
  g.record_interaction(0, 1, 0.0, 0.5);
  EXPECT_NEAR(g.trust(0, 1), 0.35, 1e-12);
}

TEST(TrustGraphTest, RecordInteractionCreatesTrustFromScratch) {
  TrustGraph g(2);
  g.record_interaction(0, 1, 1.0, 0.3);
  EXPECT_NEAR(g.trust(0, 1), 0.3, 1e-12);
}

TEST(TrustGraphTest, RecordInteractionValidatesArgs) {
  TrustGraph g(2);
  EXPECT_THROW(g.record_interaction(0, 1, 1.5), InvalidArgument);
  EXPECT_THROW(g.record_interaction(0, 1, 0.5, 0.0), InvalidArgument);
}

TEST(RandomTrustGraphTest, SizeAndDeterminism) {
  util::Xoshiro256 a(3);
  util::Xoshiro256 b(3);
  const TrustGraph ga = random_trust_graph(16, 0.1, a);
  const TrustGraph gb = random_trust_graph(16, 0.1, b);
  EXPECT_EQ(ga.size(), 16u);
  EXPECT_EQ(ga.graph().edge_count(), gb.graph().edge_count());
}

}  // namespace
}  // namespace svo::trust
