/// \file dense_reference.hpp
/// Dense reference implementation of the reputation pipeline, for tests
/// only. The library solves on CSR; these are the paper's literal k x k
/// layouts — the eq. (1) matrix, the robust layer's consensus and
/// credibility passes, and the weighted robust power iteration — written
/// as plain double loops over the dense matrix. The CSR engine must match
/// them bit for bit (tests/trust/sparse_reputation_test.cpp), so they pin
/// every reputation path to an independent, obviously-correct twin.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numeric>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/power_method.hpp"
#include "trust/reputation.hpp"
#include "trust/robust.hpp"
#include "trust/trust_graph.hpp"

namespace svo::trust::testing {

inline std::vector<std::size_t> all_members(const TrustGraph& g) {
  std::vector<std::size_t> all(g.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  return all;
}

/// Eq. (1) on the subgraph induced by `members` (strictly increasing):
/// a_ij = u_ij / sum_k u_ik, normalized inside the coalition. Rows of
/// members who trust no other member stay all-zero.
inline linalg::Matrix dense_normalized(
    const TrustGraph& g, const std::vector<std::size_t>& members) {
  const std::size_t c = members.size();
  linalg::Matrix a(c, c);
  for (std::size_t i = 0; i < c; ++i) {
    for (std::size_t j = 0; j < c; ++j) {
      if (i != j) a(i, j) = g.trust(members[i], members[j]);
    }
    auto row = a.row(i);
    (void)linalg::normalize_l1(row);
  }
  return a;
}

inline linalg::Matrix dense_normalized(const TrustGraph& g) {
  return dense_normalized(g, all_members(g));
}

inline double clamp01(double v) { return std::min(1.0, std::max(0.0, v)); }

inline double median_inplace(std::vector<double>& v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Per-member median of the other members' clamped u > 0 reports; NaN
/// where nobody reports.
inline std::vector<double> dense_consensus_opinions(
    const TrustGraph& g, const std::vector<std::size_t>& members) {
  const std::size_t c = members.size();
  std::vector<double> consensus(c, std::numeric_limits<double>::quiet_NaN());
  std::vector<double> reports;
  for (std::size_t j = 0; j < c; ++j) {
    reports.clear();
    for (std::size_t i = 0; i < c; ++i) {
      if (i == j) continue;
      const double u = g.trust(members[i], members[j]);
      if (u > 0.0) reports.push_back(clamp01(u));
    }
    if (!reports.empty()) consensus[j] = median_inplace(reports);
  }
  return consensus;
}

/// exp(-strength * mean |clamp(u_ij) - consensus_j|) per rater.
inline std::vector<double> dense_rater_credibility(
    const TrustGraph& g, const std::vector<std::size_t>& members,
    double strength) {
  const std::size_t c = members.size();
  const std::vector<double> consensus = dense_consensus_opinions(g, members);
  std::vector<double> weights(c, 1.0);
  for (std::size_t i = 0; i < c; ++i) {
    double deviation = 0.0;
    std::size_t rated = 0;
    for (std::size_t j = 0; j < c; ++j) {
      if (i == j || std::isnan(consensus[j])) continue;
      const double u = g.trust(members[i], members[j]);
      if (u <= 0.0) continue;
      deviation += std::abs(clamp01(u) - consensus[j]);
      ++rated;
    }
    if (rated > 0) {
      weights[i] = std::exp(-strength * deviation / static_cast<double>(rated));
    }
  }
  return weights;
}

/// Weighted, robustly aggregated power iteration over the dense matrix:
/// for every trustee j, gather w_i x_i a_ij over the non-dangling raters
/// i with a_ij > 0 (rater-ascending), aggregate, damp, L1-normalize.
inline linalg::PowerMethodResult dense_robust_power_method(
    const linalg::Matrix& a, const std::vector<double>& weights,
    const linalg::PowerMethodOptions& power, RowAggregation aggregation,
    double trim_fraction, std::size_t mom_buckets) {
  linalg::PowerMethodResult result;
  const std::size_t n = a.rows();
  if (n == 0) {
    result.converged = true;
    return result;
  }
  std::vector<bool> dangling(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) row_sum += a(i, j);
    dangling[i] = (row_sum <= 0.0);
  }

  const double d = power.damping;
  std::vector<double> x(n, 1.0 / static_cast<double>(n));
  std::vector<double> y(n, 0.0);
  std::vector<double> contributions;
  for (std::size_t it = 0; it < power.max_iterations; ++it) {
    double dangling_mass = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (dangling[i]) dangling_mass += weights[i] * x[i];
    }
    for (std::size_t j = 0; j < n; ++j) {
      contributions.clear();
      for (std::size_t i = 0; i < n; ++i) {
        if (dangling[i] || a(i, j) <= 0.0) continue;
        contributions.push_back(weights[i] * x[i] * a(i, j));
      }
      double agg = 0.0;
      switch (aggregation) {
        case RowAggregation::Sum:
          for (const double v : contributions) agg += v;
          break;
        case RowAggregation::TrimmedMean:
          agg = linalg::trimmed_sum(contributions, trim_fraction);
          break;
        case RowAggregation::MedianOfMeans:
          agg = linalg::median_of_means_sum(contributions, mom_buckets);
          break;
      }
      y[j] = (1.0 - d) * (agg + dangling_mass / static_cast<double>(n)) +
             d / static_cast<double>(n);
    }
    result.eigenvalue = linalg::norm_l1(y);
    if (!linalg::normalize_l1(y)) {
      std::fill(y.begin(), y.end(), 1.0 / static_cast<double>(n));
      result.iterations = it + 1;
      result.converged = false;
      result.eigenvector = std::move(y);
      return result;
    }
    const double delta = linalg::distance_l1(y, x);
    x.swap(y);
    result.iterations = it + 1;
    if (delta < power.epsilon) {
      result.converged = true;
      break;
    }
  }
  result.eigenvector = std::move(x);
  return result;
}

/// The whole ReputationEngine::compute(g, members) pipeline on dense
/// storage: the literal power method when `opts.robust.enabled` is false,
/// otherwise credibility weights, quarantine of fresh identities (rater
/// weight and final score times the prior, then renormalized) and the
/// robust iteration. `opts.cache` is ignored.
inline ReputationResult dense_reputation(
    const TrustGraph& g, const std::vector<std::size_t>& members,
    const ReputationOptions& opts) {
  ReputationResult r;
  if (members.empty()) {
    r.converged = true;
    return r;
  }
  const linalg::Matrix a = dense_normalized(g, members);
  linalg::PowerMethodResult pm;
  std::vector<std::size_t> fresh_pos;
  if (!opts.robust.enabled) {
    pm = linalg::power_method(a, opts.power);
  } else {
    const RobustOptions& robust = opts.robust;
    std::vector<double> weights(members.size(), 1.0);
    if (robust.credibility_weighting) {
      weights = dense_rater_credibility(g, members,
                                        robust.credibility_strength);
    }
    for (const std::size_t id : robust.fresh) {
      const auto it = std::find(members.begin(), members.end(), id);
      if (it == members.end()) continue;
      const auto p = static_cast<std::size_t>(it - members.begin());
      fresh_pos.push_back(p);
      weights[p] *= robust.quarantine_prior;
    }
    pm = dense_robust_power_method(a, weights, opts.power, robust.aggregation,
                                   robust.trim_fraction, robust.mom_buckets);
  }
  r.scores = pm.eigenvector;
  r.iterations = pm.iterations;
  r.converged = pm.converged;
  if (!fresh_pos.empty()) {
    double sum = 0.0;
    for (const std::size_t p : fresh_pos) {
      r.scores[p] *= opts.robust.quarantine_prior;
    }
    for (const double s : r.scores) sum += s;
    if (sum > 0.0) {
      for (double& s : r.scores) s /= sum;
    }
  }
  r.average = average_reputation(r.scores);
  return r;
}

inline ReputationResult dense_reputation(const TrustGraph& g,
                                         const ReputationOptions& opts) {
  return dense_reputation(g, all_members(g), opts);
}

}  // namespace svo::trust::testing
