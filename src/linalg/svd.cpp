#include "linalg/svd.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.hpp"
#include "linalg/eigen_sym.hpp"

namespace ekm {
namespace {

// Gram–Schmidt re-orthonormalization of column j of `m` against columns
// [0, j); used to fill in factor columns for (near-)zero singular values.
void orthonormalize_column(Matrix& m, std::size_t j, Rng& rng) {
  const std::size_t n = m.rows();
  std::normal_distribution<double> dist;
  for (int attempt = 0; attempt < 8; ++attempt) {
    if (attempt > 0) {
      for (std::size_t i = 0; i < n; ++i) m(i, j) = dist(rng);
    }
    for (std::size_t c = 0; c < j; ++c) {
      double proj = 0.0;
      for (std::size_t i = 0; i < n; ++i) proj += m(i, c) * m(i, j);
      for (std::size_t i = 0; i < n; ++i) m(i, j) -= proj * m(i, c);
    }
    double nrm = 0.0;
    for (std::size_t i = 0; i < n; ++i) nrm += m(i, j) * m(i, j);
    nrm = std::sqrt(nrm);
    if (nrm > 1e-12) {
      for (std::size_t i = 0; i < n; ++i) m(i, j) /= nrm;
      return;
    }
  }
  // Degenerate only if j >= rank of the whole space; leave the column zero.
}

// Smallest Gram eigenvalue distinguishable from rounding noise:
// eigen_symmetric_top (tridiagonalization, then values-only QL up to
// dim 128 and Sturm-count bisection above, with inverse iteration for
// the top-t vectors) resolves eigenvalues to O(dim·eps·λmax), so
// anything below that is noise and its square root must be reported as
// an exact zero (σ below √eps·σmax is unresolvable through A^T A by
// construction).
double gram_noise_floor(double lambda_max, std::size_t dim) {
  return 32.0 * std::numeric_limits<double>::epsilon() *
         static_cast<double>(std::max<std::size_t>(dim, 1)) * lambda_max;
}

}  // namespace

Svd truncated_svd(const Matrix& a, std::size_t t, SvdFactors factors) {
  EKM_EXPECTS_MSG(!a.empty(), "truncated_svd of empty matrix");
  const std::size_t n = a.rows();
  const std::size_t d = a.cols();
  const bool tall = d <= n;
  // The top eigenpairs of the Gram, A^T A (d x d) when d <= n, else
  // A A^T (n x n), give V and sigma^2 (U and sigma^2 when n < d); the
  // solver works in the Gram's storage. The other factor's columns are
  // A V Sigma^{-1} (A^T U Sigma^{-1}) for those pairs only, and a tall
  // matrix's U is formed only for callers that read it. Components with
  // sigma at the Gram noise floor become exact zeros whose other-factor
  // column is an orthonormalized fill-in.
  SymmetricEigen eig = eigen_symmetric_top(
      tall ? matmul_at_b(a, a) : matmul_a_bt(a, a), std::min({t, n, d}));
  const std::size_t r = eig.values.size();

  Svd out;
  out.sigma.resize(r);
  const double smax2 = std::max(eig.values.empty() ? 0.0 : eig.values[0], 0.0);
  const double tol = std::sqrt(gram_noise_floor(smax2, tall ? d : n));
  for (std::size_t j = 0; j < r; ++j) {
    const double sigma = std::sqrt(std::max(eig.values[j], 0.0));
    out.sigma[j] = sigma > tol ? sigma : 0.0;
  }
  if (tall && factors == SvdFactors::kV) {
    out.v = std::move(eig.vectors);
    return out;
  }
  Matrix other = tall ? matmul(a, eig.vectors) : matmul_at_b(a, eig.vectors);
  Rng rng = make_rng(0x5bdULL, n * 1315423911ULL + d);
  for (std::size_t j = 0; j < r; ++j) {
    if (out.sigma[j] > tol) {
      const double inv = 1.0 / out.sigma[j];
      for (std::size_t i = 0; i < other.rows(); ++i) other(i, j) *= inv;
    } else {
      orthonormalize_column(other, j, rng);
    }
  }
  if (tall) {
    out.v = std::move(eig.vectors);
    out.u = std::move(other);
  } else {
    if (factors == SvdFactors::kUAndV) out.u = std::move(eig.vectors);
    out.v = std::move(other);
  }
  return out;
}

Matrix pseudoinverse(const Matrix& a) {
  // Singular values at or below this fraction of sigma_max count as zero.
  constexpr double kRcond = 1e-12;
  Svd s = truncated_svd(a, std::min(a.rows(), a.cols()));
  const double smax = s.sigma.empty() ? 0.0 : s.sigma[0];
  const double tol = kRcond * smax;
  // A^+ = V diag(1/sigma) U^T, zeroing tiny components.
  Matrix vs = s.v;  // d x r, scale columns
  for (std::size_t j = 0; j < s.rank(); ++j) {
    const double inv = (s.sigma[j] > tol && s.sigma[j] > 0.0)
                           ? 1.0 / s.sigma[j]
                           : 0.0;
    for (std::size_t i = 0; i < vs.rows(); ++i) vs(i, j) *= inv;
  }
  return matmul_a_bt(vs, s.u);
}

void append_pca_summary(Matrix& y, const Matrix& sigma_row, const Matrix& v) {
  if (sigma_row.size() == 0) return;
  EKM_EXPECTS_MSG(sigma_row.rows() == 1 && v.cols() == sigma_row.cols(),
                  "PCA summary shape mismatch");
  const std::size_t d = v.rows();
  Matrix yi(sigma_row.cols(), d);
  for (std::size_t j = 0; j < sigma_row.cols(); ++j) {
    for (std::size_t c = 0; c < d; ++c) {
      yi(j, c) = sigma_row(0, j) * v(c, j);
    }
  }
  y.append_rows(yi);
}

}  // namespace ekm
