#include "game/sampling.hpp"

#include <cmath>
#include <numeric>

namespace svo::game {

SampledShapley shapley_value_sampled(std::size_t m, const ValueOracle& v,
                                     std::size_t permutations,
                                     util::Xoshiro256& rng) {
  detail::require(m > 0 && m <= Coalition::kMaxPlayers,
                  "shapley_value_sampled: m must be in [1,64]");
  detail::require(permutations >= 1,
                  "shapley_value_sampled: need at least one permutation");

  SampledShapley out;
  out.permutations = permutations;
  std::vector<double> sum(m, 0.0);
  std::vector<double> sum_sq(m, 0.0);

  std::vector<std::size_t> order(m);
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t p = 0; p < permutations; ++p) {
    rng.shuffle(order);
    Coalition prefix;
    double prev = v(prefix);  // v(empty) — oracles must handle it
    for (const std::size_t player : order) {
      prefix = prefix.with(player);
      const double curr = v(prefix);
      const double marginal = curr - prev;
      sum[player] += marginal;
      sum_sq[player] += marginal * marginal;
      prev = curr;
    }
  }
  out.value.resize(m);
  out.standard_error.resize(m);
  const double n = static_cast<double>(permutations);
  for (std::size_t i = 0; i < m; ++i) {
    out.value[i] = sum[i] / n;
    const double var =
        permutations > 1
            ? std::max(0.0, (sum_sq[i] - sum[i] * sum[i] / n) / (n - 1.0))
            : 0.0;
    out.standard_error[i] = std::sqrt(var / n);
  }
  return out;
}

}  // namespace svo::game
