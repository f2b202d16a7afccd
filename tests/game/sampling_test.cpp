#include "game/sampling.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace svo::game {
namespace {

double glove_game(Coalition s) {
  const double left = s.contains(0) ? 1.0 : 0.0;
  const double right =
      (s.contains(1) ? 1.0 : 0.0) + (s.contains(2) ? 1.0 : 0.0);
  return std::min(left, right);
}

TEST(SampledShapleyTest, ConvergesToExactOnGloveGame) {
  util::Xoshiro256 rng(17);
  const SampledShapley est = shapley_value_sampled(3, glove_game, 20'000, rng);
  EXPECT_NEAR(est.value[0], 2.0 / 3.0, 0.02);
  EXPECT_NEAR(est.value[1], 1.0 / 6.0, 0.02);
  EXPECT_NEAR(est.value[2], 1.0 / 6.0, 0.02);
}

TEST(SampledShapleyTest, EveryPermutationVectorIsEfficient) {
  // Each permutation telescopes to v(grand) - v(empty), so the estimate
  // is *exactly* efficient for any sample size.
  util::Xoshiro256 rng(19);
  const auto v = [](Coalition s) {
    const double n = static_cast<double>(s.size());
    return n * n + (s.contains(2) ? 3.0 : 0.0);
  };
  const SampledShapley est = shapley_value_sampled(5, v, 17, rng);
  double sum = 0.0;
  for (const double x : est.value) sum += x;
  EXPECT_NEAR(sum, v(Coalition::all(5)), 1e-9);
}

TEST(SampledShapleyTest, DummyPlayerGetsZeroWithZeroError) {
  const auto v = [](Coalition s) {
    return (s.contains(0) && s.contains(1)) ? 10.0 : 0.0;
  };
  util::Xoshiro256 rng(23);
  const SampledShapley est = shapley_value_sampled(4, v, 500, rng);
  EXPECT_DOUBLE_EQ(est.value[3], 0.0);
  EXPECT_DOUBLE_EQ(est.standard_error[3], 0.0);
}

TEST(SampledShapleyTest, StandardErrorShrinksWithSamples) {
  const auto v = [](Coalition s) {
    return static_cast<double>(s.size() * s.size());
  };
  util::Xoshiro256 rng_a(29);
  util::Xoshiro256 rng_b(29);
  const SampledShapley small = shapley_value_sampled(6, v, 100, rng_a);
  const SampledShapley large = shapley_value_sampled(6, v, 10'000, rng_b);
  // Average SE must drop roughly like 1/sqrt(100x) = 10x; assert > 3x.
  double se_small = 0.0;
  double se_large = 0.0;
  for (std::size_t i = 0; i < 6; ++i) {
    se_small += small.standard_error[i];
    se_large += large.standard_error[i];
  }
  EXPECT_GT(se_small, 3.0 * se_large);
}

TEST(SampledShapleyTest, ValidatesArguments) {
  const auto v = [](Coalition) { return 0.0; };
  util::Xoshiro256 rng(1);
  EXPECT_THROW((void)shapley_value_sampled(0, v, 10, rng), InvalidArgument);
  EXPECT_THROW((void)shapley_value_sampled(3, v, 0, rng), InvalidArgument);
}

}  // namespace
}  // namespace svo::game
