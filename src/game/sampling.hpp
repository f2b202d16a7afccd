/// \file sampling.hpp
/// Monte-Carlo Shapley value (Castro et al.-style permutation sampling),
/// usable at the paper's m = 16 where the exact O(2^m) computation needs
/// 65k IP solves.
#pragma once

#include "game/payoff.hpp"
#include "util/rng.hpp"

namespace svo::game {

/// Result of sampled Shapley estimation.
struct SampledShapley {
  /// Estimated values, one per player.
  std::vector<double> value;
  /// Per-player standard error of the estimate (sigma / sqrt(samples)).
  std::vector<double> standard_error;
  /// Permutations drawn.
  std::size_t permutations = 0;
};

/// Estimate the Shapley value by sampling `permutations` random player
/// orders; each permutation contributes one marginal vector. Unbiased;
/// error shrinks as 1/sqrt(permutations). Requires m in [1, 64] and
/// permutations >= 1. Deterministic in `rng`.
[[nodiscard]] SampledShapley shapley_value_sampled(std::size_t m,
                                                   const ValueOracle& v,
                                                   std::size_t permutations,
                                                   util::Xoshiro256& rng);

}  // namespace svo::game
