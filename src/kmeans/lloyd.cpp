#include "kmeans/lloyd.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <random>
#include <span>

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
// this many scratch doubles overall (each chunk owns a k·(d+1) block per
// restart, so for large k·d the chunk count and the restarts per pass
// shrink further). Both bounds depend only on the problem shape, never
// on the thread count.
constexpr std::size_t kMaxUpdateChunks = 256;
constexpr std::size_t kUpdateScratchDoubles = std::size_t(1) << 23;  // 64 MB
// Restarts advanced in lock step, so that one pass over the points
// serves them all. Eight one-center seeding sets fill one 8-lane tile.
// Every restart in a group holds its n-point state at once, so the cap
// also bounds that memory.
constexpr std::size_t kMaxLockStep = 8;
// From this many centers and points up the fused pass keeps Hamerly's
// bounds (assign_and_accumulate; docs/performance.md, "Bounds-pruned
// Lloyd pass", has the sweep). A skipped point still costs its
// own-center cell and its bound state. At 4 centers that ate the saving:
// the bounds lost or tied at most d swept. From 5 they won at every d up
// to 384. At d = 784, where the swept runs stopped after 4 to 6
// passes, they lost at 5 and 6 centers and tied or won from 7.
// Below 4096 points they tied or saved a few milliseconds, so small
// solves keep the plain pass and hold no bound arrays.
constexpr std::size_t kBoundsMinCenters = 7;
constexpr std::size_t kBoundsMinPoints = 4096;

// The update step's chunk grain for n points and k centers in d
// dimensions: kUpdateGrain, growing with n only to cap the chunk count
// (and the k·(d+1) scratch per chunk). It never depends on the thread
// count or on how many restarts share a pass.
std::size_t update_grain(std::size_t n, std::size_t k, std::size_t d) {
  const std::size_t max_chunks = std::clamp<std::size_t>(
      kUpdateScratchDoubles / (k * d + k), 1, kMaxUpdateChunks);
  return std::max(kUpdateGrain, (n + max_chunks - 1) / max_chunks);
}

// Restarts per lock-step group: their update scratch, one k·(d+1) block
// per restart and chunk, stays under kUpdateScratchDoubles.
std::size_t lock_step_cap(std::size_t n, std::size_t k, std::size_t d) {
  const std::size_t chunks = parallel_chunk_count(n, update_grain(n, k, d));
  return std::clamp<std::size_t>(
      kUpdateScratchDoubles / (chunks * k * (d + 1)), 1, kMaxLockStep);
}

// k-means++ seeding of one restart per stream in `rngs`, in lock step:
// in round c each restart draws its c-th center from its own stream, as
// it would alone, then one pass refreshes every restart's d².
std::vector<Matrix> seed_lock_step(const Dataset& data, std::size_t k,
                                   std::span<Rng> rngs,
                                   std::span<const double> point_norms) {
  const std::size_t n = data.size();
  const std::size_t d = data.dim();
  const std::size_t runs = rngs.size();
  const std::size_t m = std::min(k, n);
  std::vector<Matrix> centers(runs, Matrix(m, d));

  // First centers ∝ weight, drawn by prefix sums and binary search.
  std::vector<double> cum(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += data.weight(i);
    cum[i] = total;
  }
  EKM_EXPECTS_MSG(total > 0.0, "all weights are zero");

  // d2[r·n + i]: point i's squared distance to restart r's nearest
  // chosen center. `newest` row r is restart r's center of this round.
  std::vector<double> d2(runs * n, std::numeric_limits<double>::infinity());
  Matrix newest(runs, d);
  for (std::size_t c = 0; c < m; ++c) {
    for (std::size_t r = 0; r < runs; ++r) {
      std::size_t next;
      if (c == 0) {
        next = sample_from_prefix(cum, rngs[r]);
      } else {
        total = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          total += data.weight(i) * d2[r * n + i];
          cum[i] = total;
        }
        if (total <= 0.0) {
          // All mass already covered (duplicate points): any point works.
          std::uniform_int_distribution<std::size_t> unif(0, n - 1);
          next = unif(rngs[r]);
        } else {
          next = sample_from_prefix(cum, rngs[r]);
        }
      }
      const auto point = data.point(next);
      std::copy(point.begin(), point.end(), centers[r].row(c).begin());
      std::copy(point.begin(), point.end(), newest.row(r).begin());
    }
    // Nothing reads the d² after the last round.
    if (c + 1 < m) {
      update_min_sq_dist(data.points(), newest, d2, point_norms, runs);
    }
  }
  return centers;
}

// Lloyd from each of `initial` (k x d each), in lock step: each
// iteration is one pass over the points for every run still live. A run
// that passes the tolerance test leaves at once; runs still live after
// max_iters get a final refresh. Above the bounds gate, each run keeps
// Hamerly's bounds across its passes. Each run's arithmetic is what it
// would be alone.
std::vector<KMeansResult> lloyd_lock_step(
    const Dataset& data, std::vector<Matrix> initial,
    const KMeansOptions& opts, std::span<const double> point_norms) {
  const std::size_t n = data.size();
  const std::size_t d = data.dim();
  const std::size_t k = initial.front().rows();
  const std::size_t runs = initial.size();
  // Per-chunk accumulation slots for the update sums, merged in chunk
  // order below so the result is thread-count-independent. Bounded
  // passes carry them from one pass to the next (assign_and_accumulate).
  const std::size_t grain = update_grain(n, k, d);
  const std::size_t chunks = parallel_chunk_count(n, grain);

  std::vector<KMeansResult> res(runs);
  std::vector<double> prev_cost(runs, std::numeric_limits<double>::infinity());
  for (std::size_t r = 0; r < runs; ++r) res[r].centers = std::move(initial[r]);
  // live[s] is the run in set s of the next pass. The pass scratch is
  // sized for every run; once runs leave, a pass uses its prefix.
  std::vector<std::size_t> live(runs);
  std::iota(live.begin(), live.end(), std::size_t{0});
  std::vector<std::size_t> index(runs * n);
  std::vector<double> sq_dist(runs * n);
  std::vector<double> part_sums(chunks * runs * k * d);
  std::vector<double> part_weight(chunks * runs * k);
  std::vector<double> cluster_weight(k);
  Matrix sums(k, d);
  // Hamerly's bounds: per run and point a lower bound on the distance to
  // every center but its own, and per run and center its drift since the
  // last pass. Both live in the run's slot, and move with its
  // assignment and carried chunk sums when runs leave; kept_slot[t] is
  // the slot that the t-th kept run held in the pass.
  const bool bounded = k >= kBoundsMinCenters && n >= kBoundsMinPoints;
  std::vector<double> lower(bounded ? runs * n : 0, 0.0);
  std::vector<double> drift(bounded ? runs * k : 0, 0.0);
  std::vector<std::size_t> kept_slot(runs);

  for (int it = 0; it < opts.max_iters && !live.empty(); ++it) {
    const std::size_t sets = live.size();
    Matrix stacked(sets * k, d);
    for (std::size_t s = 0; s < sets; ++s) {
      const auto from = res[live[s]].centers.flat();
      std::copy(from.begin(), from.end(), stacked.row_ptr(s * k));
    }
    // One pass over the points: per run, assignment, deterministic
    // ordered cost and the update step's per-chunk weighted sums.
    const std::vector<double> costs = assign_and_accumulate(
        data, stacked, sets, point_norms, grain,
        std::span(index).first(sets * n), std::span(sq_dist).first(sets * n),
        std::span(part_sums).first(chunks * sets * k * d),
        std::span(part_weight).first(chunks * sets * k),
        std::span(lower).first(bounded ? sets * n : 0),
        std::span(drift).first(bounded ? sets * k : 0));

    std::size_t kept = 0;
    for (std::size_t s = 0; s < sets; ++s) {
      const std::size_t r = live[s];
      KMeansResult& run = res[r];
      const double cost = costs[s];
      run.cost = cost;
      run.iterations = it + 1;
      const auto assigned = std::span(index).subspan(s * n, n);
      const double prev = prev_cost[r];
      if (std::isfinite(prev) &&
          prev - cost <= opts.rel_tol * std::max(prev, 1e-300)) {
        // Converged: the centers have not moved since this pass, which
        // already holds their assignment and cost. Its sums are not
        // needed, and the run leaves the batch.
        run.assignment.assign(assigned.begin(), assigned.end());
        continue;
      }
      prev_cost[r] = cost;

      // Update step: fold the run's chunk sums in chunk order.
      std::fill(cluster_weight.begin(), cluster_weight.end(), 0.0);
      std::fill(sums.flat().begin(), sums.flat().end(), 0.0);
      for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
        const std::size_t slot = chunk * sets + s;
        const double* psums = part_sums.data() + slot * k * d;
        const double* pweight = part_weight.data() + slot * k;
        for (std::size_t c = 0; c < k; ++c) cluster_weight[c] += pweight[c];
        auto sf = sums.flat();
        for (std::size_t x = 0; x < k * d; ++x) sf[x] += psums[x];
      }

      double* dist = sq_dist.data() + s * n;
      for (std::size_t c = 0; c < k; ++c) {
        if (cluster_weight[c] > 0.0) {
          auto sum = sums.row(c);
          auto ctr = run.centers.row(c);
          for (std::size_t j = 0; j < d; ++j) {
            ctr[j] = sum[j] / cluster_weight[c];
          }
        } else {
          // Empty cluster: reseat the center on the point farthest from
          // its assigned center (distances from the assignment step;
          // standard repair, keeps k centers meaningful).
          double worst = -1.0;
          std::size_t worst_i = 0;
          for (std::size_t i = 0; i < n; ++i) {
            if (data.weight(i) > 0.0 && dist[i] > worst) {
              worst = dist[i];
              worst_i = i;
            }
          }
          std::copy(data.point(worst_i).begin(), data.point(worst_i).end(),
                    run.centers.row(c).begin());
          // Consume the point so a second empty cluster in the same
          // iteration reseats on a different one instead of duplicating.
          dist[worst_i] = 0.0;
        }
      }
      if (bounded) {
        for (std::size_t c = 0; c < k; ++c) {
          drift[kept * k + c] =
              center_drift(stacked.row(s * k + c), run.centers.row(c));
        }
      }
      kept_slot[kept] = s;
      live[kept++] = r;
    }
    if (bounded && kept < sets) {
      // Slot kept_slot[t] becomes slot t, and chunk sums slot (chunk,
      // kept_slot[t]) of this pass's layout becomes (chunk, t) of the
      // next one. In ascending order no slot is written before it is read.
      for (std::size_t t = 0; t < kept; ++t) {
        const std::size_t src = kept_slot[t];
        if (src == t) continue;
        std::copy_n(index.begin() + src * n, n, index.begin() + t * n);
        std::copy_n(lower.begin() + src * n, n, lower.begin() + t * n);
      }
      for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
        for (std::size_t t = 0; t < kept; ++t) {
          const std::size_t src = chunk * sets + kept_slot[t];
          const std::size_t dst = chunk * kept + t;
          if (src == dst) continue;
          std::copy_n(part_sums.begin() + src * k * d, k * d,
                      part_sums.begin() + dst * k * d);
          std::copy_n(part_weight.begin() + src * k, k,
                      part_weight.begin() + dst * k);
        }
      }
    }
    live.resize(kept);
  }

  // Runs still live stopped at max_iters, and the loop updated their
  // centers after the last pass: refresh assignment and cost.
  for (const std::size_t r : live) {
    res[r].assignment.resize(n);
    res[r].cost = assign_and_cost(data, res[r].centers, res[r].assignment,
                                  {}, point_norms);
  }
  return res;
}

}  // namespace

KMeansResult lloyd(const Dataset& data, Matrix initial_centers,
                   const KMeansOptions& opts) {
  EKM_EXPECTS(!data.empty());
  EKM_EXPECTS(initial_centers.rows() >= 1 &&
              initial_centers.cols() == data.dim());
  std::vector<Matrix> initial;
  initial.push_back(std::move(initial_centers));
  return std::move(lloyd_lock_step(data, std::move(initial), opts,
                                   row_sq_norms(data.points()))
                       .front());
}

KMeansResult kmeans(const Dataset& data, const KMeansOptions& opts) {
  EKM_EXPECTS(opts.k >= 1);
  EKM_EXPECTS(!data.empty());
  // Point norms are invariant across seeding and every Lloyd pass.
  const std::vector<double> point_norms = row_sq_norms(data.points());
  const auto restarts = static_cast<std::size_t>(std::max(1, opts.restarts));
  const std::size_t group = lock_step_cap(
      data.size(), std::min(opts.k, data.size()), data.dim());

  KMeansResult best;
  best.cost = std::numeric_limits<double>::infinity();
  for (std::size_t r0 = 0; r0 < restarts; r0 += group) {
    std::vector<Rng> rngs;
    for (std::size_t r = r0; r < std::min(restarts, r0 + group); ++r) {
      rngs.push_back(make_rng(opts.seed, r));
    }
    std::vector<KMeansResult> runs =
        lloyd_lock_step(data, seed_lock_step(data, opts.k, rngs, point_norms),
                        opts, point_norms);
    // The first strictly cheapest run, in restart order.
    for (KMeansResult& res : runs) {
      if (res.cost < best.cost) best = std::move(res);
    }
  }
  return best;
}

}  // namespace ekm
