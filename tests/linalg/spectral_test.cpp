#include "linalg/spectral.hpp"

#include <gtest/gtest.h>

#include "linalg/power_method.hpp"
#include "util/rng.hpp"

namespace svo::linalg {
namespace {

TEST(ResidualTest, ExactEigenpairHasZeroResidual) {
  // A^T x = x for the stationary distribution of a stochastic matrix.
  const Matrix a = Matrix::from_rows({{0.9, 0.1}, {0.5, 0.5}});
  const std::vector<double> pi{5.0 / 6.0, 1.0 / 6.0};
  EXPECT_NEAR(left_eigenpair_residual(a, pi, 1.0), 0.0, 1e-12);
}

TEST(ResidualTest, WrongEigenvalueHasPositiveResidual) {
  const Matrix a = Matrix::from_rows({{0.9, 0.1}, {0.5, 0.5}});
  const std::vector<double> pi{5.0 / 6.0, 1.0 / 6.0};
  EXPECT_GT(left_eigenpair_residual(a, pi, 0.5), 0.1);
}

TEST(ResidualTest, CertifiesPowerMethodOutput) {
  // End-to-end: the power method's result must have a small residual
  // under the damped operator's dominant eigenvalue estimate... for the
  // undamped case on an irreducible stochastic matrix, lambda = 1.
  util::Xoshiro256 rng(3);
  Matrix a(6, 6);
  for (std::size_t i = 0; i < 6; ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < 6; ++j) {
      a(i, j) = rng.uniform(0.1, 1.0);
      sum += a(i, j);
    }
    for (std::size_t j = 0; j < 6; ++j) a(i, j) /= sum;
  }
  PowerMethodOptions opts;
  opts.damping = 0.0;
  opts.epsilon = 1e-13;
  const PowerMethodResult r = power_method(a, opts);
  ASSERT_TRUE(r.converged);
  EXPECT_LT(left_eigenpair_residual(a, r.eigenvector, 1.0), 1e-9);
}

TEST(ResidualTest, SizeChecks) {
  const Matrix a = Matrix::identity(2);
  const std::vector<double> wrong(3, 1.0);
  EXPECT_THROW((void)left_eigenpair_residual(a, wrong, 1.0),
               DimensionMismatch);
  EXPECT_THROW((void)left_eigenpair_residual(Matrix(2, 3), wrong, 1.0),
               InvalidArgument);
}

}  // namespace
}  // namespace svo::linalg
