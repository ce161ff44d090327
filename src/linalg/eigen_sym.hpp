// Symmetric eigendecomposition.
//
// PCA for FSS (§3.3 / Theorem 3.2) and disPCA (§5.1) reduce to the
// eigendecomposition of a Gram matrix A^T A (or A A^T, whichever is
// smaller), and the pseudoinverse of a JL map to that of its d' x d'
// Gram. One solver serves all three: `eigen_symmetric_top` computes the
// t largest pairs as LAPACK's dsyevx does. It is O(d^3), deterministic
// and exact to roundoff, the "exact SVD" cost profile the paper charges
// FSS and BKLW with (complexity O(nd * min(n, d)) in Table 2):
//
//  * the input is symmetrized and reduced in its own storage, so a Gram
//    moved in costs no n x n workspace;
//  * a matrix whose largest entry lies outside dsyevx's safe range is
//    first scaled into it by a power of two, and its values are scaled
//    back at the end, so the Gram of data scaled by up to about 1e±150
//    solves as accurately as the unscaled one;
//  * a Householder tridiagonalization that keeps the reflectors instead
//    of accumulating Q. Above d = 128 it is LAPACK's blocked dsytrd
//    (panels of 32 columns, each followed by one symmetric rank-2k
//    update of the trailing block on the product kernel, with the panel
//    matvecs split over the thread pool); up to d = 128 it reduces one
//    column at a time;
//  * the eigenvalues of each unreduced block of T: above d = 128 only the
//    t wanted ones, by Sturm-count bisection (dstebz); up to d = 128 all
//    of them, by values-only QL;
//  * inverse iteration on the tridiagonal for the t wanted vectors
//    (dstein), and a back-transform of only those through the
//    reflectors, so the eigenvector work is O(d^2 t).
//
// Every step is deterministic at any EKM_THREADS.
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

/// All eigenpairs of a symmetric matrix: eigen_symmetric_top(a, a.rows()).
/// The benchmark harness times it on each shard's Gram.
[[nodiscard]] SymmetricEigen eigen_symmetric(const Matrix& a);

/// The t algebraically largest eigenpairs of a symmetric matrix (t <= d),
/// values descending and vectors d x t, of (a + a^T) / 2, so tiny
/// asymmetries from Gram accumulation cannot matter. Each vector's sign
/// is deterministic. Throws invariant_error if values-only QL fails to
/// converge (does not happen for well-formed symmetric input).
/// The solver works in `a`'s storage: a caller that moves its matrix in
/// (truncated_svd moves the Gram it forms) spares an n x n workspace,
/// and one that passes an lvalue pays a copy, with the same result.
[[nodiscard]] SymmetricEigen eigen_symmetric_top(Matrix a, std::size_t t);

}  // namespace ekm
