#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "common/parallel.hpp"

namespace ekm {
namespace {

// Output rows per chunk of a product whose rows each cost `flops_per_row`.
// Chunks carry about 4 MFLOP, so smaller products run as one inline
// chunk, and there are at most 64 of them, because every chunk of
// matmul_at_b streams both operands once. Products partition their
// OUTPUT rows, so each cell keeps the serial accumulation order and the
// result is bit-identical at any pool size.
std::size_t row_grain(std::size_t rows, std::size_t flops_per_row) {
  constexpr std::size_t kChunkFlops = 4u << 20;
  constexpr std::size_t kMaxChunks = 64;
  return std::max({std::size_t{1},
                   kChunkFlops / std::max<std::size_t>(flops_per_row, 1),
                   (rows + kMaxChunks - 1) / kMaxChunks});
}

}  // namespace

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows.size() > 0 ? rows.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    EKM_EXPECTS_MSG(r.size() == cols_, "ragged initializer");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::gaussian(std::size_t rows, std::size_t cols, Rng& rng,
                        double stddev) {
  Matrix m(rows, cols);
  std::normal_distribution<double> dist(0.0, stddev);
  for (double& v : m.data_) v = dist(rng);
  return m;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) {
      t(j, i) = (*this)(i, j);
    }
  }
  return t;
}

Matrix Matrix::first_cols(std::size_t c) const {
  EKM_EXPECTS(c <= cols_);
  Matrix m(rows_, c);
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* src = data_.data() + i * cols_;
    double* dst = m.data_.data() + i * c;
    for (std::size_t j = 0; j < c; ++j) dst[j] = src[j];
  }
  return m;
}

Matrix Matrix::row_range(std::size_t r0, std::size_t r1) const {
  EKM_EXPECTS(r0 <= r1 && r1 <= rows_);
  Matrix m(r1 - r0, cols_);
  std::copy(data_.begin() + static_cast<std::ptrdiff_t>(r0 * cols_),
            data_.begin() + static_cast<std::ptrdiff_t>(r1 * cols_),
            m.data_.begin());
  return m;
}

void Matrix::append_rows(const Matrix& other) {
  if (empty() && rows_ == 0) {
    *this = other;
    return;
  }
  EKM_EXPECTS_MSG(other.cols_ == cols_, "column mismatch in append_rows");
  data_.insert(data_.end(), other.data_.begin(), other.data_.end());
  rows_ += other.rows_;
}

void Matrix::scale(double s) {
  for (double& v : data_) v *= s;
}

double Matrix::frobenius_norm() const {
  double ss = 0.0;
  for (double v : data_) ss += v * v;
  return std::sqrt(ss);
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  EKM_EXPECTS_MSG(a.cols() == b.rows(), "matmul shape mismatch");
  Matrix c(a.rows(), b.cols());
  const std::size_t n = a.rows(), k = a.cols(), m = b.cols();
  parallel_for(n, row_grain(n, 2 * k * m), [&](std::size_t r0, std::size_t r1) {
    for (std::size_t i = r0; i < r1; ++i) {
      std::span<double> ci = c.row(i);
      std::span<const double> ai = a.row(i);
      for (std::size_t p = 0; p < k; ++p) {
        const double aip = ai[p];
        if (aip == 0.0) continue;
        std::span<const double> bp = b.row(p);
        for (std::size_t j = 0; j < m; ++j) ci[j] += aip * bp[j];
      }
    }
  });
  return c;
}

Matrix matmul_at_b(const Matrix& a, const Matrix& b) {
  EKM_EXPECTS_MSG(a.rows() == b.rows(), "matmul_at_b shape mismatch");
  Matrix c(a.cols(), b.cols());
  const std::size_t n = a.rows(), k = a.cols(), m = b.cols();
  parallel_for(k, row_grain(k, 2 * n * m), [&](std::size_t r0, std::size_t r1) {
    for (std::size_t p = 0; p < n; ++p) {
      std::span<const double> ap = a.row(p);
      std::span<const double> bp = b.row(p);
      for (std::size_t i = r0; i < r1; ++i) {
        const double api = ap[i];
        if (api == 0.0) continue;
        std::span<double> ci = c.row(i);
        for (std::size_t j = 0; j < m; ++j) ci[j] += api * bp[j];
      }
    }
  });
  return c;
}

Matrix matmul_a_bt(const Matrix& a, const Matrix& b) {
  EKM_EXPECTS_MSG(a.cols() == b.cols(), "matmul_a_bt shape mismatch");
  Matrix c(a.rows(), b.rows());
  parallel_for(a.rows(), row_grain(a.rows(), 2 * a.cols() * b.rows()),
               [&](std::size_t r0, std::size_t r1) {
                 for (std::size_t i = r0; i < r1; ++i) {
                   for (std::size_t j = 0; j < b.rows(); ++j) {
                     c(i, j) = dot(a.row(i), b.row(j));
                   }
                 }
               });
  return c;
}

std::vector<double> matvec(const Matrix& a, std::span<const double> x) {
  EKM_EXPECTS_MSG(a.cols() == x.size(), "matvec shape mismatch");
  std::vector<double> y(a.rows(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) y[i] = dot(a.row(i), x);
  return y;
}

Matrix add(const Matrix& a, const Matrix& b) {
  EKM_EXPECTS(a.rows() == b.rows() && a.cols() == b.cols());
  Matrix c = a;
  auto cf = c.flat();
  auto bf = b.flat();
  for (std::size_t i = 0; i < cf.size(); ++i) cf[i] += bf[i];
  return c;
}

Matrix subtract(const Matrix& a, const Matrix& b) {
  EKM_EXPECTS(a.rows() == b.rows() && a.cols() == b.cols());
  Matrix c = a;
  auto cf = c.flat();
  auto bf = b.flat();
  for (std::size_t i = 0; i < cf.size(); ++i) cf[i] -= bf[i];
  return c;
}

double dot(std::span<const double> a, std::span<const double> b) {
  EKM_EXPECTS(a.size() == b.size());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double squared_distance(std::span<const double> a, std::span<const double> b) {
  EKM_EXPECTS(a.size() == b.size());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

double norm2(std::span<const double> a) {
  double s = 0.0;
  for (double v : a) s += v * v;
  return std::sqrt(s);
}

}  // namespace ekm
