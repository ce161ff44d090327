// Thin / truncated singular value decomposition and Moore–Penrose
// pseudoinverse.
//
// Roles in the reproduction:
//  * `thin_svd` — the "exact SVD" used by FSS (Theorem 3.2) and by each
//    data source in disPCA (§5.1, step 1). Cost O(nd * min(n,d)),
//    matching the complexity the paper charges those algorithms with.
//  * `truncated_svd` — convenience wrapper keeping the top-t triple.
//  * `randomized_svd` — Halko-style sketch SVD; not used by the paper's
//    algorithms (that would change their complexity) but provided for the
//    ablation bench comparing exact vs sketched PCA inside FSS.
//  * `pseudoinverse` — Π⁺ for lifting k-means centers back through a
//    linear DR map (π⁻¹ in Algorithms 1–4, via the Moore–Penrose inverse
//    as discussed under Table 1 of the paper).
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "linalg/matrix.hpp"

namespace ekm {

/// A = U diag(sigma) V^T with U: n x r, sigma: r, V: d x r, where
/// r = min(n, d) (thin) or the requested truncation rank.
/// Singular values are non-negative and sorted descending.
struct Svd {
  Matrix u;
  std::vector<double> sigma;
  Matrix v;

  /// Number of retained components.
  [[nodiscard]] std::size_t rank() const { return sigma.size(); }

  /// Reconstructs U diag(sigma) V^T (for tests / lift-backs).
  [[nodiscard]] Matrix reconstruct() const;

  /// Keeps only the top-t components (t <= rank()).
  void truncate(std::size_t t);
};

/// Thin SVD via the Gram-matrix route: eigendecompose A^T A (d <= n) or
/// A A^T (n < d) and recover the other factor. Accurate for the dominant
/// part of the spectrum, which is all k-means PCA needs; components with
/// sigma below ~1e-8 * sigma_max are orthogonalized rather than divided.
[[nodiscard]] Svd thin_svd(const Matrix& a);

/// Top-t SVD. Computes the thin SVD and truncates.
[[nodiscard]] Svd truncated_svd(const Matrix& a, std::size_t t);

/// Randomized range-finder SVD (Halko–Martinsson–Tropp): rank + oversample
/// Gaussian sketch, `power_iters` subspace iterations, small exact SVD.
[[nodiscard]] Svd randomized_svd(const Matrix& a, std::size_t rank, Rng& rng,
                                 std::size_t oversample = 8,
                                 int power_iters = 2);

/// Moore–Penrose pseudoinverse via thin SVD. Components with singular
/// value <= rcond * sigma_max are treated as zero.
[[nodiscard]] Matrix pseudoinverse(const Matrix& a, double rcond = 1e-12);

/// Thin Householder QR; returns Q (n x min(n,d)) with orthonormal columns.
[[nodiscard]] Matrix householder_q(const Matrix& a);

/// disPCA's associative summary merge (§5.1 step 2): appends the rows
/// Y_i = Σ_i^(t1) V_i^(t1)^T of one local SVD summary — row j is
/// sigma_row(0, j) · (column j of v)^T — onto the stacked Y matrix.
/// The server folds summaries through it in ascending source order. A
/// summary with an empty sigma row contributes nothing.
void append_pca_summary(Matrix& y, const Matrix& sigma_row, const Matrix& v);

}  // namespace ekm
