// Matrix helpers that only the tests need: the identity, a difference and
// the Frobenius norm, for residual checks such as ||VᵀV − I||_F and
// ||A − UΣVᵀ||_F.
#pragma once

#include <cstddef>

#include "common/expects.hpp"
#include "linalg/matrix.hpp"

namespace ekm::test {

inline Matrix identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

/// A − B.
inline Matrix subtract(const Matrix& a, const Matrix& b) {
  EKM_EXPECTS(a.rows() == b.rows() && a.cols() == b.cols());
  Matrix c = a;
  auto cf = c.flat();
  auto bf = b.flat();
  for (std::size_t i = 0; i < cf.size(); ++i) cf[i] -= bf[i];
  return c;
}

inline double frobenius_norm(const Matrix& m) { return norm2(m.flat()); }

}  // namespace ekm::test
