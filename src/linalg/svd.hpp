// Thin / truncated singular value decomposition and Moore–Penrose
// pseudoinverse.
//
// Roles in the reproduction:
//  * `thin_svd` — the full "exact SVD" FSS uses (Theorem 3.2, through
//    `pca_project`). Cost O(nd * min(n,d)), matching the complexity the
//    paper charges FSS with.
//  * `truncated_svd` — the exact top-t path: the same Gram route, but it
//    solves only the t largest eigenpairs (`eigen_symmetric_top`) and
//    forms only the t kept columns of the other factor. Each data source
//    in disPCA (§5.1, step 1) and the server's merge use it; it is exact
//    to roundoff and in the same O(nd * min(n,d)) class, not a sketch.
//  * `pseudoinverse` — Π⁺ for lifting k-means centers back through a
//    linear DR map (π⁻¹ in Algorithms 1–4, via the Moore–Penrose inverse
//    as discussed under Table 1 of the paper).
#pragma once

#include <vector>

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

/// Top-min(t, n, d) SVD by the same Gram route, solving only the kept
/// eigenpairs: the leading columns of thin_svd's factors and values to
/// roundoff (signs may differ), with the same zero-sigma fill-in.
[[nodiscard]] Svd truncated_svd(const Matrix& a, std::size_t t);

/// Moore–Penrose pseudoinverse via thin SVD. Components with singular
/// value <= rcond * sigma_max are treated as zero.
[[nodiscard]] Matrix pseudoinverse(const Matrix& a, double rcond = 1e-12);

/// disPCA's associative summary merge (§5.1 step 2): appends the rows
/// Y_i = Σ_i^(t1) V_i^(t1)^T of one local SVD summary — row j is
/// sigma_row(0, j) · (column j of v)^T — onto the stacked Y matrix.
/// The server folds summaries through it in ascending source order. A
/// summary with an empty sigma row contributes nothing.
void append_pca_summary(Matrix& y, const Matrix& sigma_row, const Matrix& v);

}  // namespace ekm
