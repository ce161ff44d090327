// Exhaustive-search k-means: the exact optimum of a tiny instance, the
// test oracle test_kmeans holds Lloyd's cost against in any dimension
// (kmeans1d_oracle.hpp covers large instances on the line). It tries
// all k^n assignments, so n and k must stay tiny.
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "common/expects.hpp"
#include "data/dataset.hpp"
#include "kmeans/lloyd.hpp"
#include "linalg/matrix.hpp"

namespace ekm::test {

/// Exhaustive-search optimum of k-means on `data`; requires k^n <= 2^22,
/// enforced via EKM_EXPECTS. A cluster left empty keeps a zero center.
inline KMeansResult kmeans_brute_force(const Dataset& data, std::size_t k) {
  EKM_EXPECTS(k >= 1 && !data.empty());
  const std::size_t n = data.size();
  const std::size_t d = data.dim();
  const double combos =
      std::pow(static_cast<double>(k), static_cast<double>(n));
  EKM_EXPECTS_MSG(combos <= double(1 << 22),
                  "instance too large for brute force");

  // The weighted centroids of an assignment.
  const auto centroids = [&](const std::vector<std::size_t>& assign) {
    Matrix centers(k, d);
    std::vector<double> w(k, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      w[assign[i]] += data.weight(i);
      auto p = data.point(i);
      auto c = centers.row(assign[i]);
      for (std::size_t j = 0; j < d; ++j) c[j] += data.weight(i) * p[j];
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (w[c] > 0.0) {
        auto row = centers.row(c);
        for (std::size_t j = 0; j < d; ++j) row[j] /= w[c];
      }
    }
    return centers;
  };

  std::vector<std::size_t> assign(n, 0);
  std::vector<std::size_t> best_assign;
  double best_cost = std::numeric_limits<double>::infinity();
  // Enumerate all k^n assignments via an odometer.
  while (true) {
    const Matrix centers = centroids(assign);
    double cost = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      cost += data.weight(i) *
              squared_distance(data.point(i), centers.row(assign[i]));
    }
    if (cost < best_cost) {
      best_cost = cost;
      best_assign = assign;
    }
    std::size_t pos = 0;
    while (pos < n && ++assign[pos] == k) {
      assign[pos] = 0;
      ++pos;
    }
    if (pos == n) break;
  }

  KMeansResult res;
  res.centers = centroids(best_assign);
  res.assignment = std::move(best_assign);
  res.cost = best_cost;
  return res;
}

}  // namespace ekm::test
