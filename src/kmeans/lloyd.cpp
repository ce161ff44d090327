#include "kmeans/lloyd.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>

#include "common/parallel.hpp"
#include "common/sampling.hpp"
#include "kmeans/assign.hpp"

namespace ekm {
namespace {

// Points per reduction chunk in the update step. Fixed grain: the chunk
// grid (and hence the summation order) is independent of the thread
// count, keeping lloyd() bitwise-deterministic under EKM_THREADS.
constexpr std::size_t kUpdateGrain = 2048;
// Caps on the update-step scratch: at most this many chunks, and at most
// this many scratch doubles overall (each chunk owns a k·(d+1) block, so
// for large k·d the chunk count shrinks further). Both bounds depend
// only on the problem shape, never on the thread count.
constexpr std::size_t kMaxUpdateChunks = 256;
constexpr std::size_t kUpdateScratchDoubles = std::size_t(1) << 23;  // 64 MB

}  // namespace

Matrix kmeanspp_seed(const Dataset& data, std::size_t k, Rng& rng) {
  EKM_EXPECTS(k >= 1 && !data.empty());
  const std::size_t n = data.size();
  const std::size_t d = data.dim();
  Matrix centers(std::min(k, n), d);

  // First center ∝ weight. sample_from_prefix replaces the old O(n)
  // subtract-scan per draw with prefix sums + binary search.
  std::vector<double> cum(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += data.weight(i);
    cum[i] = total;
  }
  EKM_EXPECTS_MSG(total > 0.0, "all weights are zero");
  const std::size_t first = sample_from_prefix(cum, rng);
  std::copy(data.point(first).begin(), data.point(first).end(),
            centers.row(0).begin());

  // Maintain squared distance to the nearest chosen center. Point norms
  // are invariant across the seeding loop.
  const std::vector<double> point_norms = row_sq_norms(data.points());
  std::vector<double> d2(n, std::numeric_limits<double>::infinity());
  update_min_sq_dist(data.points(), centers.row_range(0, 1), d2, point_norms);

  for (std::size_t c = 1; c < centers.rows(); ++c) {
    total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      total += data.weight(i) * d2[i];
      cum[i] = total;
    }
    std::size_t next;
    if (total <= 0.0) {
      // All mass already covered (duplicate points): any point works.
      std::uniform_int_distribution<std::size_t> unif(0, n - 1);
      next = unif(rng);
    } else {
      next = sample_from_prefix(cum, rng);
    }
    std::copy(data.point(next).begin(), data.point(next).end(),
              centers.row(c).begin());
    update_min_sq_dist(data.points(), centers.row_range(c, c + 1), d2,
                       point_norms);
  }
  return centers;
}

KMeansResult lloyd(const Dataset& data, Matrix initial_centers,
                   const KMeansOptions& opts) {
  EKM_EXPECTS(!data.empty());
  EKM_EXPECTS(initial_centers.cols() == data.dim());
  const std::size_t n = data.size();
  const std::size_t k = initial_centers.rows();
  const std::size_t d = data.dim();

  KMeansResult res;
  res.centers = std::move(initial_centers);
  res.assignment.assign(n, 0);
  std::vector<double> sq_dist(n, 0.0);
  double prev_cost = std::numeric_limits<double>::infinity();

  // Point norms are invariant across iterations; computed once.
  const std::vector<double> point_norms = row_sq_norms(data.points());

  std::vector<double> cluster_weight(k, 0.0);
  Matrix sums(k, d);
  // Per-chunk accumulation slots for the update sums, merged in chunk
  // order below so the result is thread-count-independent. The grain
  // grows with n to cap the chunk count (and the k·d scratch per chunk);
  // it still depends only on n, never on the thread count.
  const std::size_t max_chunks = std::clamp<std::size_t>(
      kUpdateScratchDoubles / (k * d + k), 1, kMaxUpdateChunks);
  const std::size_t update_grain =
      std::max(kUpdateGrain, (n + max_chunks - 1) / max_chunks);
  const std::size_t chunks = parallel_chunk_count(n, update_grain);
  std::vector<double> part_sums(chunks * k * d, 0.0);
  std::vector<double> part_weight(chunks * k, 0.0);

  bool converged = false;
  for (int it = 0; it < opts.max_iters; ++it) {
    // One pass over the points: assignment, deterministic ordered cost
    // and the update step's per-chunk weighted sums.
    const double cost =
        assign_and_accumulate(data, res.centers, point_norms, update_grain,
                              res.assignment, sq_dist, part_sums, part_weight);
    res.cost = cost;
    res.iterations = it + 1;

    if (std::isfinite(prev_cost) &&
        prev_cost - cost <= opts.rel_tol * std::max(prev_cost, 1e-300)) {
      converged = true;  // this pass's sums are not needed
      break;
    }
    prev_cost = cost;

    // Update step: fold the chunk sums in chunk order.
    std::fill(cluster_weight.begin(), cluster_weight.end(), 0.0);
    std::fill(sums.flat().begin(), sums.flat().end(), 0.0);
    for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
      const double* psums = part_sums.data() + chunk * k * d;
      const double* pweight = part_weight.data() + chunk * k;
      for (std::size_t c = 0; c < k; ++c) cluster_weight[c] += pweight[c];
      auto sf = sums.flat();
      for (std::size_t x = 0; x < k * d; ++x) sf[x] += psums[x];
    }

    for (std::size_t c = 0; c < k; ++c) {
      if (cluster_weight[c] > 0.0) {
        auto s = sums.row(c);
        auto ctr = res.centers.row(c);
        for (std::size_t j = 0; j < d; ++j) ctr[j] = s[j] / cluster_weight[c];
      } else {
        // Empty cluster: reseat the center on the point farthest from its
        // assigned center (distances from the assignment step; standard
        // repair, keeps k centers meaningful).
        double worst = -1.0;
        std::size_t worst_i = 0;
        for (std::size_t i = 0; i < n; ++i) {
          if (data.weight(i) > 0.0 && sq_dist[i] > worst) {
            worst = sq_dist[i];
            worst_i = i;
          }
        }
        std::copy(data.point(worst_i).begin(), data.point(worst_i).end(),
                  res.centers.row(c).begin());
        // Consume the point so a second empty cluster in the same
        // iteration reseats on a different one instead of duplicating.
        sq_dist[worst_i] = 0.0;
      }
    }
  }

  // A converged loop broke before touching the centers, so its last pass
  // already holds their assignment and cost. Otherwise the loop updated
  // the centers after its last pass: refresh both.
  if (!converged) {
    res.cost =
        assign_and_cost(data, res.centers, res.assignment, {}, point_norms);
  }
  return res;
}

KMeansResult kmeans(const Dataset& data, const KMeansOptions& opts) {
  EKM_EXPECTS(opts.k >= 1);
  EKM_EXPECTS(!data.empty());

  KMeansResult best;
  best.cost = std::numeric_limits<double>::infinity();
  const int restarts = std::max(1, opts.restarts);
  for (int r = 0; r < restarts; ++r) {
    Rng rng = make_rng(opts.seed, static_cast<std::uint64_t>(r));
    Matrix seeds = kmeanspp_seed(data, opts.k, rng);
    KMeansResult res = lloyd(data, std::move(seeds), opts);
    if (res.cost < best.cost) best = std::move(res);
  }
  return best;
}

KMeansResult kmeans_brute_force(const Dataset& data, std::size_t k) {
  EKM_EXPECTS(k >= 1 && !data.empty());
  const std::size_t n = data.size();
  const std::size_t d = data.dim();
  double combos = std::pow(static_cast<double>(k), static_cast<double>(n));
  EKM_EXPECTS_MSG(combos <= double(1 << 22), "instance too large for brute force");

  std::vector<std::size_t> assign(n, 0);
  std::vector<std::size_t> best_assign;
  double best_cost = std::numeric_limits<double>::infinity();

  // Enumerate all k^n assignments via an odometer.
  while (true) {
    // Centroids of the current assignment.
    Matrix centers(k, d);
    std::vector<double> w(k, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      w[assign[i]] += data.weight(i);
      auto p = data.point(i);
      auto c = centers.row(assign[i]);
      for (std::size_t j = 0; j < d; ++j) c[j] += data.weight(i) * p[j];
    }
    bool feasible = true;
    for (std::size_t c = 0; c < k; ++c) {
      if (w[c] > 0.0) {
        auto row = centers.row(c);
        for (std::size_t j = 0; j < d; ++j) row[j] /= w[c];
      }
    }
    if (feasible) {
      double cost = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        cost +=
            data.weight(i) * squared_distance(data.point(i), centers.row(assign[i]));
      }
      if (cost < best_cost) {
        best_cost = cost;
        best_assign = assign;
      }
    }
    // Advance odometer.
    std::size_t pos = 0;
    while (pos < n && ++assign[pos] == k) {
      assign[pos] = 0;
      ++pos;
    }
    if (pos == n) break;
  }

  // Rebuild the optimal centers from the best assignment.
  KMeansResult res;
  res.assignment = best_assign;
  res.cost = best_cost;
  res.centers = Matrix(k, d);
  std::vector<double> w(k, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    w[best_assign[i]] += data.weight(i);
    auto p = data.point(i);
    auto c = res.centers.row(best_assign[i]);
    for (std::size_t j = 0; j < d; ++j) c[j] += data.weight(i) * p[j];
  }
  for (std::size_t c = 0; c < k; ++c) {
    if (w[c] > 0.0) {
      auto row = res.centers.row(c);
      for (std::size_t j = 0; j < d; ++j) row[j] /= w[c];
    }
  }
  return res;
}

}  // namespace ekm
