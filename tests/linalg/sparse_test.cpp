/// CSR SparseMatrix semantics plus the headline sparse_power_method
/// contract: bit-identical to the dense engine on the same matrix, at
/// any thread count, and warm-startable (DESIGN.md §4i).
#include "linalg/sparse.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "linalg/power_method.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace svo::linalg {
namespace {

Matrix random_row_stochastic(std::size_t n, double density,
                             util::Xoshiro256& rng) {
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && rng.bernoulli(density)) a(i, j) = rng.uniform(0.1, 1.0);
    }
    auto row = a.row(i);
    (void)normalize_l1(row);  // dangling rows stay zero
  }
  return a;
}

TEST(SparseMatrixTest, FromTripletsSumsDuplicatesAndDropsZeros) {
  const SparseMatrix m = SparseMatrix::from_triplets(
      3, 4,
      {{0, 2, 1.5}, {0, 2, 0.5}, {1, 0, 3.0}, {2, 1, 2.0}, {2, 1, -2.0}});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.nnz(), 2u);  // duplicate summed, cancelling pair dropped
  EXPECT_EQ(m.at(0, 2), 2.0);
  EXPECT_EQ(m.at(1, 0), 3.0);
  EXPECT_EQ(m.at(2, 1), 0.0);
  EXPECT_EQ(m.at(0, 0), 0.0);
  EXPECT_TRUE(m.row(2).empty());
  EXPECT_DOUBLE_EQ(m.fill_ratio(), 2.0 / 12.0);
}

TEST(SparseMatrixTest, RowsAreColumnSorted) {
  const SparseMatrix m = SparseMatrix::from_triplets(
      2, 5, {{0, 4, 1.0}, {0, 1, 2.0}, {0, 3, 3.0}});
  const SparseMatrix::RowView r = m.row(0);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r.cols[0], 1u);
  EXPECT_EQ(r.cols[1], 3u);
  EXPECT_EQ(r.cols[2], 4u);
  EXPECT_EQ(r.values[0], 2.0);
  EXPECT_EQ(r.values[1], 3.0);
  EXPECT_EQ(r.values[2], 1.0);
}

TEST(SparseMatrixTest, ValidatesTriplets) {
  EXPECT_THROW(SparseMatrix::from_triplets(2, 2, {{2, 0, 1.0}}),
               InvalidArgument);
  EXPECT_THROW(SparseMatrix::from_triplets(2, 2, {{0, 2, 1.0}}),
               InvalidArgument);
  EXPECT_THROW(
      SparseMatrix::from_triplets(
          2, 2, {{0, 1, std::numeric_limits<double>::infinity()}}),
      InvalidArgument);
  EXPECT_THROW(SparseMatrix::from_triplets(
                   2, 2, {{0, 1, std::numeric_limits<double>::quiet_NaN()}}),
               InvalidArgument);
  EXPECT_THROW((void)SparseMatrix().row(0), InvalidArgument);
  EXPECT_THROW((void)SparseMatrix().at(0, 0), InvalidArgument);
}

TEST(SparseMatrixTest, DenseRoundTripIsExact) {
  util::Xoshiro256 rng(42);
  for (int trial = 0; trial < 5; ++trial) {
    const Matrix dense = random_row_stochastic(12, 0.3, rng);
    const SparseMatrix sparse = SparseMatrix::from_dense(dense);
    const Matrix back = sparse.to_dense();
    for (std::size_t i = 0; i < 12; ++i) {
      for (std::size_t j = 0; j < 12; ++j) {
        EXPECT_EQ(back(i, j), dense(i, j));
      }
    }
  }
}

TEST(SparseMatrixTest, TransposedPreservesEntriesAndSortsBySource) {
  util::Xoshiro256 rng(7);
  const Matrix dense = random_row_stochastic(10, 0.4, rng);
  const SparseMatrix t = SparseMatrix::from_dense(dense).transposed();
  EXPECT_EQ(t.rows(), 10u);
  for (std::size_t j = 0; j < 10; ++j) {
    const SparseMatrix::RowView r = t.row(j);
    for (std::size_t k = 0; k < r.size(); ++k) {
      EXPECT_EQ(r.values[k], dense(r.cols[k], j));
      if (k > 0) EXPECT_LT(r.cols[k - 1], r.cols[k]);
    }
  }
}

TEST(SparseMatrixTest, MultiplyMatchesDense) {
  util::Xoshiro256 rng(11);
  const Matrix dense = random_row_stochastic(9, 0.5, rng);
  const SparseMatrix sparse = SparseMatrix::from_dense(dense);
  std::vector<double> x(9);
  for (double& v : x) v = rng.uniform(0.0, 1.0);
  const std::vector<double> y = sparse.multiply(x);
  const std::vector<double> yt = sparse.multiply_transposed(x);
  for (std::size_t i = 0; i < 9; ++i) {
    double expect = 0.0;
    double expect_t = 0.0;
    for (std::size_t j = 0; j < 9; ++j) {
      expect += dense(i, j) * x[j];
      expect_t += dense(j, i) * x[j];
    }
    EXPECT_NEAR(y[i], expect, 1e-12);
    EXPECT_NEAR(yt[i], expect_t, 1e-12);
  }
  EXPECT_THROW((void)sparse.multiply(std::vector<double>(8)),
               DimensionMismatch);
  EXPECT_THROW((void)sparse.multiply_transposed(std::vector<double>(8)),
               DimensionMismatch);
}

/// The load-bearing property for the CSR-only trust engine: identical
/// eigenvectors — bitwise — to the dense engine, including iteration
/// counts, over random matrices, dangling rows, damping choices, and
/// pool thread counts.
TEST(SparsePowerMethodTest, BitIdenticalToDenseEngine) {
  util::Xoshiro256 rng(2024);
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t n = 2 + rng.index(40);
    const Matrix dense = random_row_stochastic(n, rng.uniform(0.05, 0.6), rng);
    const SparseMatrix sparse = SparseMatrix::from_dense(dense);
    for (const double damping : {0.0, 0.15}) {
      PowerMethodOptions opts;
      opts.damping = damping;
      const PowerMethodResult want = power_method(dense, opts);
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        opts.threads = threads;
        const PowerMethodResult got = sparse_power_method(sparse, opts);
        ASSERT_EQ(got.iterations, want.iterations);
        EXPECT_EQ(got.converged, want.converged);
        EXPECT_FALSE(got.warm_started);
        ASSERT_EQ(got.eigenvector.size(), want.eigenvector.size());
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(got.eigenvector[i], want.eigenvector[i])
              << "n=" << n << " damping=" << damping
              << " threads=" << threads << " i=" << i;
        }
      }
    }
  }
}

/// Above the pooling threshold (2048 rows) the gather spmv splits rows
/// across workers; each y_j is still one serial gather over its column,
/// so 1, 2 and 4 threads agree bit for bit.
TEST(SparsePowerMethodTest, ThreadCountIsInvisible) {
  util::Xoshiro256 rng(4096);
  const std::size_t n = 4096;
  const std::size_t degree = 8;
  std::vector<Triplet> triplets;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 97 == 0) continue;  // dangling row
    const std::size_t first = triplets.size();
    double sum = 0.0;
    for (std::size_t k = 0; k < degree; ++k) {
      const std::size_t j = rng.index(n);
      if (j == i) continue;
      triplets.push_back({i, j, rng.uniform(0.1, 1.0)});
      sum += triplets.back().value;
    }
    for (std::size_t k = first; k < triplets.size(); ++k) {
      triplets[k].value /= sum;  // duplicates sum to their share
    }
  }
  const SparseMatrix a = SparseMatrix::from_triplets(n, n, std::move(triplets));
  PowerMethodOptions opts;
  const PowerMethodResult serial = sparse_power_method(a, opts);
  ASSERT_TRUE(serial.converged);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    opts.threads = threads;
    const PowerMethodResult pooled = sparse_power_method(a, opts);
    EXPECT_EQ(pooled.iterations, serial.iterations);
    EXPECT_EQ(pooled.converged, serial.converged);
    EXPECT_EQ(pooled.eigenvector, serial.eigenvector) << "threads=" << threads;
  }
}

TEST(SparsePowerMethodTest, EmptyAndValidation) {
  const PowerMethodResult empty = sparse_power_method(SparseMatrix());
  EXPECT_TRUE(empty.converged);
  EXPECT_TRUE(empty.eigenvector.empty());

  EXPECT_THROW((void)sparse_power_method(
                   SparseMatrix::from_triplets(2, 3, {{0, 1, 1.0}})),
               InvalidArgument);  // non-square
  EXPECT_THROW((void)sparse_power_method(
                   SparseMatrix::from_triplets(2, 2, {{0, 1, -1.0}})),
               InvalidArgument);  // negative entry
}

TEST(SparsePowerMethodTest, WarmStartConvergesToSameFixedPointFaster) {
  util::Xoshiro256 rng(5150);
  const std::size_t n = 400;
  std::vector<Triplet> triplets;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t t = 0; t < 8; ++t) {
      const std::size_t j = rng.index(n);
      if (j != i) triplets.push_back({i, j, rng.uniform(0.1, 1.0)});
    }
  }
  const SparseMatrix a = SparseMatrix::from_triplets(n, n, triplets);
  PowerMethodOptions opts;
  opts.epsilon = 1e-10;
  const PowerMethodResult cold = sparse_power_method(a, opts);
  ASSERT_TRUE(cold.converged);

  // Restarting at the converged vector terminates (nearly) immediately
  // and flags the warm start.
  const PowerMethodResult warm =
      sparse_power_method(a, opts, cold.eigenvector);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_TRUE(warm.converged);
  EXPECT_LT(warm.iterations, cold.iterations / 2);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(warm.eigenvector[i], cold.eigenvector[i], opts.epsilon);
  }
}

TEST(SparsePowerMethodTest, WarmStartValidation) {
  const SparseMatrix a =
      SparseMatrix::from_triplets(2, 2, {{0, 1, 1.0}, {1, 0, 1.0}});
  EXPECT_THROW(
      (void)sparse_power_method(a, {}, std::vector<double>{1.0}),
      InvalidArgument);  // size mismatch
  EXPECT_THROW(
      (void)sparse_power_method(a, {}, std::vector<double>{1.0, -0.5}),
      InvalidArgument);  // negative
  EXPECT_THROW(
      (void)sparse_power_method(a, {}, std::vector<double>{0.0, 0.0}),
      InvalidArgument);  // zero sum
  EXPECT_THROW(
      (void)sparse_power_method(
          a, {}, std::vector<double>{std::nan(""), 1.0}),
      InvalidArgument);  // non-finite
}

TEST(SparsePowerMethodTest, ZeroSumIterateFallsBackToUniform) {
  // Undamped, every entry the smallest subnormal: each product
  // (1/3) * denorm_min rounds to zero, so A^T x sums to zero on the
  // first iteration and the iterate cannot be normalised.
  const double tiny = std::numeric_limits<double>::denorm_min();
  std::vector<Triplet> triplets;
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) triplets.push_back({i, j, tiny});
  }
  const SparseMatrix a = SparseMatrix::from_triplets(3, 3, triplets);
  ASSERT_EQ(a.nnz(), 9u);
  PowerMethodOptions opts;
  opts.damping = 0.0;
  const std::vector<double> uniform(3, 1.0 / 3.0);
  const PowerMethodResult sparse = sparse_power_method(a, opts);
  EXPECT_FALSE(sparse.converged);
  EXPECT_EQ(sparse.iterations, 1u);
  EXPECT_EQ(sparse.eigenvector, uniform);
  // The dense engine takes the same fallback.
  const PowerMethodResult dense = power_method(a.to_dense(), opts);
  EXPECT_FALSE(dense.converged);
  EXPECT_EQ(dense.iterations, 1u);
  EXPECT_EQ(dense.eigenvector, uniform);
}

}  // namespace
}  // namespace svo::linalg
