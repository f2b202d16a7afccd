/// \file spectral.hpp
/// Spectral diagnostics for the reputation engine: the eigenpair
/// residual that verifies a posteriori that the power method returned a
/// genuine eigenvector (the eq. (6) certificate).
#pragma once

#include "linalg/matrix.hpp"

namespace svo::linalg {

/// Residual ||A^T x - lambda x||_1 of a claimed left eigenpair — the
/// quantity that certifies a reputation vector. Sizes must agree.
[[nodiscard]] double left_eigenpair_residual(const Matrix& a,
                                             std::span<const double> x,
                                             double lambda);

}  // namespace svo::linalg
