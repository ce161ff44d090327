// Batched nearest-center assignment — the shared distance kernel under
// every stage of the pipeline (k-means++ seeding, bicriteria rounds,
// Lloyd iterations, sensitivity scoring, final evaluation).
//
// The naive per-point scan walks n·k squared_distance calls, each a
// single-accumulator subtract-multiply chain. This kernel instead uses
//
//   d²(p, c) = ‖p‖² + ‖c‖² − 2⟨p, c⟩
//
// with row norms cached once per call and the ⟨p, c⟩ block computed
// GEMM-style: centers blocked 8 at a time with independent accumulators
// so the FMA chains pipeline, points tiled so a tile of centers stays in
// L1. Point tiles map onto the common/parallel.hpp chunk grid, so results
// are bitwise-identical for every EKM_THREADS value:
//   - each point's winner is computed from a scan over centers in fixed
//     ascending order (ties keep the lowest index, like the naive scan);
//   - weighted-cost reductions fold per-tile partials in tile order.
//
// The identity can go slightly negative under cancellation; distances are
// clamped to >= 0. Values differ from the subtract-form by O(eps·‖p‖‖c‖),
// which is why agreement tests compare assignments, not raw bits.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "data/dataset.hpp"
#include "linalg/matrix.hpp"

namespace ekm {

/// Per-point nearest-center index and squared distance.
struct BatchAssignment {
  std::vector<std::size_t> index;
  std::vector<double> sq_dist;
};

/// Assigns every row of `points` to its nearest row of `centers`.
[[nodiscard]] BatchAssignment assign_batch(const Matrix& points,
                                           const Matrix& centers);

/// In-place variant. `index` and `sq_dist` may each be empty (skipped) or
/// exactly points.rows() long. `point_sq_norms` as in assign_and_cost.
void assign_batch_into(const Matrix& points, const Matrix& centers,
                       std::span<std::size_t> index,
                       std::span<double> sq_dist,
                       std::span<const double> point_sq_norms = {});

/// Assignment plus the weighted cost sum_i w_i · d²(p_i, nearest), with a
/// deterministic ordered reduction. `index`/`sq_dist` as above.
/// `point_sq_norms` (empty, or one ‖p_i‖² per point from row_sq_norms)
/// lets iterative callers skip the O(n·d) norm pass — point data is
/// immutable across Lloyd iterations.
[[nodiscard]] double assign_and_cost(const Dataset& data,
                                     const Matrix& centers,
                                     std::span<std::size_t> index,
                                     std::span<double> sq_dist = {},
                                     std::span<const double> point_sq_norms = {});

/// ‖row‖² per row (parallel); the cacheable input to assign_and_cost.
[[nodiscard]] std::vector<double> row_sq_norms(const Matrix& m);

/// d2[i] = min(d2[i], min_c d²(points.row(i), centers.row(c))) — the
/// refresh step of D²-seeding and bicriteria rounds. d2 entries may be
/// +infinity (first round). `point_sq_norms` as in assign_and_cost —
/// seeding loops call this once per (small) center batch, so skipping
/// the O(n·d) norm pass roughly halves their refresh cost.
void update_min_sq_dist(const Matrix& points, const Matrix& centers,
                        std::span<double> d2,
                        std::span<const double> point_sq_norms = {});

}  // namespace ekm
