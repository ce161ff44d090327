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
// so the FMA chains pipeline, and points register-blocked 4 at a time so
// each center-tile row load feeds four points. Point tiles map onto the
// common/parallel.hpp chunk grid, so results are bitwise-identical for
// every EKM_THREADS value:
//   - each point's winner is computed from a scan over centers in fixed
//     ascending order (ties keep the lowest index, like the naive scan);
//     a call may scan several equal sets of centers at once (lock-step
//     k-means restarts), each set with its own scan, so a set's results
//     do not depend on the sets packed beside it;
//   - weighted-cost reductions fold per-tile partials in tile order.
// Lloyd's fused pass can also keep Hamerly's lower bounds, which let it
// skip the scan for points that provably keep their center; a skipped
// point's d² comes from the same per-cell chain, so the bits hold. Its
// per-chunk update sums carry from pass to pass, and only those whose
// members changed are summed again, in the same order.
//
// The identity can go slightly negative under cancellation; distances are
// clamped to >= 0. Values differ from the subtract-form by O(eps·‖p‖‖c‖),
// which is why agreement tests against the naive scan compare
// assignments, not raw bits; the contract table in tests/test_assign.cpp
// holds the kernel and Lloyd bit for bit to per-cell loops of this
// kernel's own arithmetic.
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

/// Lloyd's pass for `sets` center sets at once, in one read of the
/// points: `centers` stacks the sets' k rows each, set s in rows
/// [s·k, s·k + k). For each set the pass computes assign_and_cost's
/// assignment, distances and cost plus the update step's per-cluster
/// sums. `index` and `sq_dist` hold sets·n entries, set s's at
/// [s·n, s·n + n). The sums are kept per chunk of the grid over [0, n)
/// with `grain` points per chunk: the partial of chunk g, set s and
/// cluster c is Σ w_i·p_i in chunk_sums[((g·sets + s)·k + c)·d, +d) and
/// Σ w_i in chunk_weights[(g·sets + s)·k + c], each one chain from +0
/// over the chunk's points assigned to c, in ascending point order and
/// skipping zero weights; the spans hold parallel_chunk_count(n, grain)
/// chunks. `point_sq_norms` is n long. Returns one cost per set. Each
/// set's outputs are bit-identical to an assign_and_cost call on its k
/// centers alone followed by a separate per-chunk sum: a center's
/// distances do not depend on the sets packed beside it.
///
/// With `lower` (sets·n) and `drift` (sets·k) the pass uses Hamerly's
/// bounds and keeps the same bits. lower[s·n + i] is 0, or a lower bound
/// on the distance from point i to every center of set s other than
/// index[s·n + i], as the centers stood at the previous pass; drift[s·k
/// + c] bounds how far center c of set s has moved since (center_drift).
/// A point whose bound proves that its center cannot change gets only its
/// own-center d²; the others get the full scan, and the pass leaves a
/// bound on the current centers in `lower`. A zero bound skips nothing
/// and reads nothing of `index`, so a first pass passes zeros.
///
/// Without bounds the pass writes every partial. A bounded pass carries
/// them: where every point of chunk g has a nonzero bound in set s, the
/// chunk's partials of set s must hold what the previous pass over the
/// same data and grain left for the assignment in `index`, and the pass
/// rewrites only those of clusters that a point of nonzero weight joined
/// or left. The others keep their members, so they already hold the
/// chain a rewrite would compute. Where some point has a zero bound, the
/// chunk's partials of that set are all written, and their previous
/// contents are not read. A caller that drops sets between passes moves
/// each kept set's partials to its new slot, with its `index` and
/// `lower`.
[[nodiscard]] std::vector<double> assign_and_accumulate(
    const Dataset& data, const Matrix& centers, std::size_t sets,
    std::span<const double> point_sq_norms, std::size_t grain,
    std::span<std::size_t> index, std::span<double> sq_dist,
    std::span<double> chunk_sums, std::span<double> chunk_weights,
    std::span<double> lower = {}, std::span<const double> drift = {});

/// An upper bound on the exact distance ‖to − from‖, covering the
/// rounding of its own computation: the drift of a center between two
/// bounded assign_and_accumulate passes.
[[nodiscard]] double center_drift(std::span<const double> from,
                                  std::span<const double> to);

/// ‖row‖² per row (parallel); the cacheable input to assign_and_cost.
[[nodiscard]] std::vector<double> row_sq_norms(const Matrix& m);

/// d2[i] = min(d2[i], min_c d²(points.row(i), centers.row(c))) — the
/// refresh step of D²-seeding and bicriteria rounds. d2 entries may be
/// +infinity (first round). `point_sq_norms` as in assign_and_cost —
/// seeding loops call this once per (small) center batch, so skipping
/// the O(n·d) norm pass roughly halves their refresh cost. With `sets`
/// > 1, `centers` stacks that many equal groups of rows and `d2` holds
/// one running minimum per group, group s's at [s·n, s·n + n): the
/// lock-step seeding of several k-means++ restarts in one pass.
void update_min_sq_dist(const Matrix& points, const Matrix& centers,
                        std::span<double> d2,
                        std::span<const double> point_sq_norms = {},
                        std::size_t sets = 1);

}  // namespace ekm
