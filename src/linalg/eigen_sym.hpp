// Symmetric eigendecomposition.
//
// PCA for FSS (§3.3 / Theorem 3.2) and disPCA (§5.1) reduce to the
// eigendecomposition of a Gram matrix A^T A (or A A^T, whichever is
// smaller). Both solvers start from a Householder tridiagonalization and
// are O(d^3), deterministic and exact to roundoff — the "exact SVD" cost
// profile the paper charges FSS and BKLW with (complexity
// O(nd * min(n, d)) in Table 2):
//
//  * `eigen_symmetric` — every eigenpair: tridiagonalization with the
//    transform accumulated, then implicit-shift QL with eigenvector
//    accumulation (EISPACK tred2/tql2). `thin_svd`, and through it
//    `pca_project` (FSS) and `pseudoinverse` (lift-back), use it.
//  * `eigen_symmetric_top` — only the t largest pairs, as LAPACK's dsyevx
//    does: the reflectors are kept instead of Q, inverse iteration on the
//    tridiagonal gives the t wanted vectors, and only those are
//    back-transformed. `truncated_svd`, and through it disPCA's local
//    SVDs and server merge, use it; t ≪ d there, so the O(d^3)
//    eigenvector work (accumulating Q, rotating all d vectors) shrinks
//    to O(d^2 t). Above d = 128 the reduction is LAPACK's blocked dsytrd
//    (panels of 32 columns, each followed by one symmetric rank-2k update
//    of the trailing block on the product kernel, with the panel matvecs
//    split over the thread pool), and Sturm-count bisection (dstebz)
//    gives only the t wanted eigenvalues of each unreduced block. Up to
//    d = 128 it reduces one column at a time and takes every eigenvalue
//    by values-only QL. Both are deterministic at any EKM_THREADS.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace ekm {

/// Eigendecomposition of a symmetric matrix: A = V diag(values) V^T.
/// `values` are sorted in DESCENDING order; column j of `vectors` is the
/// unit eigenvector for values[j].
struct SymmetricEigen {
  std::vector<double> values;
  Matrix vectors;  // d x (number of pairs), eigenvectors in columns
};

/// Computes all eigenpairs of a symmetric matrix. The strictly lower
/// triangle is ignored (the matrix is symmetrized from the upper part).
/// Throws invariant_error if the QL iteration fails to converge (does not
/// happen for well-formed symmetric input).
[[nodiscard]] SymmetricEigen eigen_symmetric(const Matrix& a);

/// The t algebraically largest eigenpairs of a symmetric matrix (t <= d),
/// values descending and vectors d x t. Symmetrizes like
/// eigen_symmetric and agrees with it to roundoff; each vector's sign is
/// deterministic but need not match eigen_symmetric's.
[[nodiscard]] SymmetricEigen eigen_symmetric_top(const Matrix& a,
                                                 std::size_t t);

/// Cyclic Jacobi eigensolver — slower (O(d^3) per sweep) but with better
/// relative accuracy for small matrices; no library code calls it, and
/// the tests use it as an oracle independent of the Householder solvers.
[[nodiscard]] SymmetricEigen eigen_symmetric_jacobi(const Matrix& a,
                                                    int max_sweeps = 64);

}  // namespace ekm
