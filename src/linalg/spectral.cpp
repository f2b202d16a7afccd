#include "linalg/spectral.hpp"

#include <cmath>

namespace svo::linalg {

double left_eigenpair_residual(const Matrix& a, std::span<const double> x,
                               double lambda) {
  detail::require(a.rows() == a.cols(),
                  "left_eigenpair_residual: matrix must be square");
  if (x.size() != a.rows()) {
    throw DimensionMismatch("left_eigenpair_residual: size mismatch");
  }
  const std::vector<double> ax = a.multiply_transposed(x);
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    acc += std::abs(ax[i] - lambda * x[i]);
  }
  return acc;
}

}  // namespace svo::linalg
