// Weighted Lloyd's algorithm with k-means++ seeding.
//
// This is the `kmeans(S', w, k)` oracle the server runs in Algorithms
// 1–4 (the paper's theorems assume an optimal solver; in practice — as in
// the paper's own experiments — a seeded Lloyd with restarts is used, and
// the approximation guarantees degrade gracefully by the solver's own
// factor).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "data/dataset.hpp"
#include "kmeans/cost.hpp"
#include "linalg/matrix.hpp"

namespace ekm {

struct KMeansOptions {
  std::size_t k = 2;
  int max_iters = 100;         ///< Lloyd iterations per restart
  double rel_tol = 1e-7;       ///< stop when cost improves less than this
  int restarts = 5;            ///< independent k-means++ seedings, in lock step
  std::uint64_t seed = 42;     ///< master seed (restart r uses stream r)
};

struct KMeansResult {
  Matrix centers;                    ///< k x d
  double cost = 0.0;                 ///< weighted cost of the best run
  std::vector<std::size_t> assignment;
  int iterations = 0;                ///< Lloyd iterations of the best run
};

/// One seeded Lloyd run from the given initial centers: the one-restart
/// case of kmeans()'s Lloyd.
[[nodiscard]] KMeansResult lloyd(const Dataset& data, Matrix initial_centers,
                                 const KMeansOptions& opts);

/// Full solver: `restarts` independent (seed, k-means++) runs, the first
/// strictly cheapest kept. The restarts advance in lock step: each pass
/// over the points (a seeding round's d² refresh, or a Lloyd iteration)
/// serves every restart still running, and a restart that converges
/// leaves at once. From 7 centers and 4096 points up, each restart keeps
/// Hamerly's lower bounds across its Lloyd passes, and a pass skips the
/// center scan for every point they prove keeps its center; the pass
/// also carries its per-chunk update sums and re-adds only those whose
/// members changed, in the same order. Restart r draws only from stream
/// r of `seed`, and every restart's arithmetic is what it would be
/// alone, so the result is bit-identical to running the restarts one
/// after another, without bounds, at any EKM_THREADS.
/// Requires 1 <= k; if k >= number of distinct points the result places
/// a center on every point (zero cost).
[[nodiscard]] KMeansResult kmeans(const Dataset& data, const KMeansOptions& opts);

}  // namespace ekm
