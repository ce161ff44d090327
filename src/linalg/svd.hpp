// Truncated singular value decomposition and Moore–Penrose
// pseudoinverse.
//
// Roles in the reproduction:
//  * `truncated_svd` — the exact top-t SVD by the Gram route: it solves
//    only the t largest eigenpairs of A^T A or A A^T
//    (`eigen_symmetric_top`, in the Gram's own storage) and forms only
//    the t kept columns of the other factor, and a tall matrix's U only
//    for callers that read it. FSS (Theorem 3.2, through `pca_project`),
//    each data source in disPCA (§5.1, step 1) and the server's merge
//    read Σ and V only; `pseudoinverse` takes both factors. It is exact
//    to roundoff and costs O(nd * min(n, d)), the complexity the
//    paper charges FSS with; it is not a sketch.
//  * `pseudoinverse` — Π⁺ for lifting k-means centers back through a
//    linear DR map (π⁻¹ in Algorithms 1–4, via the Moore–Penrose inverse
//    as discussed under Table 1 of the paper), from the full
//    t = min(n, d) truncated SVD.
#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace ekm {

/// The rank-r SVD U diag(sigma) V^T of A with U: n x r, sigma: r,
/// V: d x r: A itself to roundoff when r = min(n, d), else its best
/// rank-r approximation. Singular values are non-negative and sorted
/// descending. U is empty when the caller asked for V only.
struct Svd {
  Matrix u;
  std::vector<double> sigma;
  Matrix v;

  /// Number of retained components.
  [[nodiscard]] std::size_t rank() const { return sigma.size(); }
};

/// The factors a truncated_svd caller reads besides sigma.
enum class SvdFactors {
  kUAndV,  ///< both
  kV,      ///< V only; `u` is left empty
};

/// Top-min(t, n, d) SVD via the Gram-matrix route: the t largest
/// eigenpairs of A^T A (d <= n) or A A^T (n < d) give V (or U) and
/// sigma^2, and the other factor's t columns follow. Accurate for the
/// dominant part of the spectrum, which is all k-means PCA needs:
/// components with sigma^2 at the Gram's noise floor,
/// 32 * eps * min(n, d) * sigma_max^2, become exact zeros, and their
/// other-factor columns are orthonormalized rather than divided.
/// With SvdFactors::kV a tall A (d <= n) skips U = A V Sigma^{-1}, an
/// n x d x t product, and seeds no fill-in generator; a wide one still
/// forms V from U. Either way sigma and V are those of the full call,
/// bit for bit.
[[nodiscard]] Svd truncated_svd(const Matrix& a, std::size_t t,
                                SvdFactors factors = SvdFactors::kUAndV);

/// Moore–Penrose pseudoinverse from truncated_svd(a, min(n, d)).
/// Components with singular value <= 1e-12 * sigma_max are treated as
/// zero.
[[nodiscard]] Matrix pseudoinverse(const Matrix& a);

/// disPCA's associative summary merge (§5.1 step 2): appends the rows
/// Y_i = Σ_i^(t1) V_i^(t1)^T of one local SVD summary — row j is
/// sigma_row(0, j) · (column j of v)^T — onto the stacked Y matrix.
/// The server folds summaries through it in ascending source order. A
/// summary with an empty sigma row contributes nothing.
void append_pca_summary(Matrix& y, const Matrix& sigma_row, const Matrix& v);

}  // namespace ekm
