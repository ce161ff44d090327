// Cyclic Jacobi eigensolver: the test oracle for the library's one
// symmetric eigensolver (eigen_symmetric_top) and everything built on it
// (truncated_svd, pseudoinverse, pca_project). It shares no code with the
// Householder reduction, QL, bisection and inverse iteration it checks,
// and has better relative accuracy for small matrices; it is O(d^3) per
// sweep, so the tests compute it once per input.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <utility>
#include <vector>

#include "linalg/eigen_sym.hpp"
#include "linalg/matrix.hpp"
#include "matrix_helpers.hpp"

namespace ekm::test {

/// Reorders eig's pairs so the values descend.
inline void sort_descending(SymmetricEigen& eig) {
  const std::size_t n = eig.values.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return eig.values[a] > eig.values[b];
  });
  std::vector<double> vals(n);
  Matrix vecs(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    vals[j] = eig.values[order[j]];
    for (std::size_t i = 0; i < n; ++i) vecs(i, j) = eig.vectors(i, order[j]);
  }
  eig.values = std::move(vals);
  eig.vectors = std::move(vecs);
}

/// Every eigenpair of (a + a^T) / 2, values descending. The rotations
/// index the flat buffers directly, so the oracle stays affordable in
/// the sanitizer build.
inline SymmetricEigen eigen_symmetric_jacobi(const Matrix& a,
                                             int max_sweeps = 64) {
  EKM_EXPECTS_MSG(a.rows() == a.cols(), "eigen needs a square matrix");
  const std::size_t n = a.rows();

  Matrix m = a;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double v = 0.5 * (m(i, j) + m(j, i));
      m(i, j) = v;
      m(j, i) = v;
    }
  }
  Matrix v = identity(n);
  double* const mf = m.flat().data();
  double* const vf = v.flat().data();

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        off += mf[p * n + q] * mf[p * n + q];
      }
    }
    if (off < 1e-24 * (1.0 + frobenius_norm(m))) break;

    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = mf[p * n + q];
        if (std::fabs(apq) < 1e-300) continue;
        const double theta = (mf[q * n + q] - mf[p * n + p]) / (2.0 * apq);
        const double t = std::copysign(
            1.0 / (std::fabs(theta) + std::sqrt(theta * theta + 1.0)), theta);
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        for (std::size_t k = 0; k < n; ++k) {
          double* mk = mf + k * n;
          const double mkp = mk[p];
          const double mkq = mk[q];
          mk[p] = c * mkp - s * mkq;
          mk[q] = s * mkp + c * mkq;
        }
        double* mp = mf + p * n;
        double* mq = mf + q * n;
        for (std::size_t k = 0; k < n; ++k) {
          const double mpk = mp[k];
          const double mqk = mq[k];
          mp[k] = c * mpk - s * mqk;
          mq[k] = s * mpk + c * mqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          double* vk = vf + k * n;
          const double vkp = vk[p];
          const double vkq = vk[q];
          vk[p] = c * vkp - s * vkq;
          vk[q] = s * vkp + c * vkq;
        }
      }
    }
  }

  SymmetricEigen eig;
  eig.values.resize(n);
  for (std::size_t i = 0; i < n; ++i) eig.values[i] = m(i, i);
  eig.vectors = std::move(v);
  sort_descending(eig);
  return eig;
}

}  // namespace ekm::test
