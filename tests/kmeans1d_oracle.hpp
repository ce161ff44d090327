// Exact 1-D k-means by dynamic programming (Wang & Song, R Journal 2011
// style, O(k n²) with prefix sums): the test oracle for the heuristic
// solvers. The general problem is NP-hard (§1 of the paper, refs [8][9]),
// but on the line it is easy, so test_kmeans holds Lloyd's cost against
// this optimum.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "kmeans/lloyd.hpp"

namespace ekm::test {
namespace detail {

// Weighted SSE of the sorted range [i, j] around its weighted mean,
// computed from prefix sums in O(1):
//   sse(i, j) = sum w x² - (sum w x)² / sum w.
struct PrefixSums {
  std::vector<double> w;    // prefix of weights
  std::vector<double> wx;   // prefix of w * x
  std::vector<double> wxx;  // prefix of w * x²

  explicit PrefixSums(std::span<const double> xs, std::span<const double> ws) {
    const std::size_t n = xs.size();
    w.assign(n + 1, 0.0);
    wx.assign(n + 1, 0.0);
    wxx.assign(n + 1, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      w[i + 1] = w[i] + ws[i];
      wx[i + 1] = wx[i] + ws[i] * xs[i];
      wxx[i + 1] = wxx[i] + ws[i] * xs[i] * xs[i];
    }
  }

  [[nodiscard]] double sse(std::size_t i, std::size_t j) const {  // [i, j]
    const double mass = w[j + 1] - w[i];
    if (mass <= 0.0) return 0.0;
    const double sum = wx[j + 1] - wx[i];
    const double sq = wxx[j + 1] - wxx[i];
    return std::max(0.0, sq - sum * sum / mass);
  }

  [[nodiscard]] double mean(std::size_t i, std::size_t j) const {
    const double mass = w[j + 1] - w[i];
    return mass > 0.0 ? (wx[j + 1] - wx[i]) / mass : 0.0;
  }
};

}  // namespace detail

/// Exact optimal k-means of weighted scalars. Returns optimal centers
/// (ascending), the optimal cost, and the assignment (by sorted order of
/// the input: contiguous clusters). O(k n²) time, O(k n) memory.
inline KMeansResult kmeans_1d_exact(std::span<const double> values,
                                    std::span<const double> weights,
                                    std::size_t k) {
  EKM_EXPECTS(!values.empty());
  EKM_EXPECTS(values.size() == weights.size());
  EKM_EXPECTS(k >= 1);
  const std::size_t n = values.size();
  const std::size_t kk = std::min(k, n);

  // Sort by value, carrying weights and original indices.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return values[a] < values[b]; });
  std::vector<double> xs(n);
  std::vector<double> ws(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = values[order[i]];
    ws[i] = weights[order[i]];
    EKM_EXPECTS_MSG(ws[i] >= 0.0, "negative weight");
  }
  const detail::PrefixSums ps(xs, ws);

  // dp[c][j] = optimal cost of clustering xs[0..j] into c+1 clusters;
  // cut[c][j] = first index of the last cluster in that optimum.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> dp(kk, std::vector<double>(n, kInf));
  std::vector<std::vector<std::size_t>> cut(kk, std::vector<std::size_t>(n, 0));
  for (std::size_t j = 0; j < n; ++j) dp[0][j] = ps.sse(0, j);
  for (std::size_t c = 1; c < kk; ++c) {
    for (std::size_t j = c; j < n; ++j) {
      for (std::size_t i = c; i <= j; ++i) {
        const double cand = dp[c - 1][i - 1] + ps.sse(i, j);
        if (cand < dp[c][j]) {
          dp[c][j] = cand;
          cut[c][j] = i;
        }
      }
    }
  }

  // Backtrack cluster boundaries.
  std::vector<std::pair<std::size_t, std::size_t>> ranges(kk);
  std::size_t j = n - 1;
  for (std::size_t c = kk; c-- > 0;) {
    const std::size_t i = (c == 0) ? 0 : cut[c][j];
    ranges[c] = {i, j};
    if (c > 0) j = i - 1;
  }

  KMeansResult res;
  res.cost = dp[kk - 1][n - 1];
  res.centers = Matrix(kk, 1);
  res.assignment.assign(n, 0);
  for (std::size_t c = 0; c < kk; ++c) {
    res.centers(c, 0) = ps.mean(ranges[c].first, ranges[c].second);
    for (std::size_t p = ranges[c].first; p <= ranges[c].second; ++p) {
      res.assignment[order[p]] = c;
    }
  }
  res.iterations = 1;
  return res;
}

/// Unweighted convenience overload.
inline KMeansResult kmeans_1d_exact(std::span<const double> values,
                                    std::size_t k) {
  const std::vector<double> ones(values.size(), 1.0);
  return kmeans_1d_exact(values, ones, k);
}

}  // namespace ekm::test
