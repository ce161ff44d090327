// Dense row-major matrix of doubles.
//
// This is the numeric workhorse of the library: datasets are matrices
// (one row per point, §3.1 of the paper uses the same convention A_P),
// projections are matrix products, and PCA/SVD/pinv are built on top.
// Deliberately minimal — no expression templates; the operations the
// algorithms need are provided as named functions with obvious cost.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "common/expects.hpp"
#include "common/rng.hpp"

namespace ekm {

class Matrix {
 public:
  Matrix() = default;

  /// rows x cols, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// Takes ownership of a flat row-major buffer.
  Matrix(std::size_t rows, std::size_t cols, std::vector<double> data)
      : rows_(rows), cols_(cols), data_(std::move(data)) {
    EKM_EXPECTS(data_.size() == rows_ * cols_);
  }

  /// Row-of-rows literal, for tests: Matrix{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  /// Entries drawn i.i.d. N(0, stddev^2).
  [[nodiscard]] static Matrix gaussian(std::size_t rows, std::size_t cols,
                                       Rng& rng, double stddev = 1.0);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] double& operator()(std::size_t i, std::size_t j) {
    EKM_EXPECTS(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }
  [[nodiscard]] double operator()(std::size_t i, std::size_t j) const {
    EKM_EXPECTS(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }

  [[nodiscard]] std::span<double> row(std::size_t i) {
    EKM_EXPECTS(i < rows_);
    return {data_.data() + i * cols_, cols_};
  }
  [[nodiscard]] std::span<const double> row(std::size_t i) const {
    EKM_EXPECTS(i < rows_);
    return {data_.data() + i * cols_, cols_};
  }

  [[nodiscard]] std::span<double> flat() { return data_; }
  [[nodiscard]] std::span<const double> flat() const { return data_; }

  /// Unchecked raw access for release-mode inner loops (the assignment
  /// kernel and friends). The checked operator()/row() stay the public
  /// default; callers of these owe their own bounds reasoning.
  [[nodiscard]] double* row_ptr(std::size_t i) noexcept {
    return data_.data() + i * cols_;
  }
  [[nodiscard]] const double* row_ptr(std::size_t i) const noexcept {
    return data_.data() + i * cols_;
  }

  [[nodiscard]] Matrix transposed() const;

  /// Copy of rows [r0, r1).
  [[nodiscard]] Matrix row_range(std::size_t r0, std::size_t r1) const;

  /// Appends all rows of `other` (same column count).
  void append_rows(const Matrix& other);

  void scale(double s);

  friend bool operator==(const Matrix&, const Matrix&) = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

// The three products run on one register-blocked FMA kernel
// (src/linalg/matrix.cpp). Each output cell is one FMA chain over the
// summation index p in ascending order, starting from +0 — the plain
// per-cell loop's arithmetic — so a product is bit-identical to that
// loop at any tiling, slab depth or EKM_THREADS. (Without FMA hardware
// the compiler emits a multiply and an add, in the kernel and in such a
// loop alike.) Zero entries are multiplied like any other: a zero adds a
// signed zero, which leaves every finite sum as it was. Only a non-finite
// operand could tell, and the loaders and decoders reject those.

/// C = A * B: C[i][j] = Σ_p A[i][p]·B[p][j].
[[nodiscard]] Matrix matmul(const Matrix& a, const Matrix& b);

/// C = A^T * B without materializing A^T: C[i][j] = Σ_p A[p][i]·B[p][j].
/// Called with the same object twice — matmul_at_b(a, a), the Gram A^T A —
/// it is a symmetric rank-k update: only tiles that reach the upper
/// triangle are formed and the rest is mirrored, which is exact because
/// each mirrored cell's chain multiplies the same pairs in the same order.
[[nodiscard]] Matrix matmul_at_b(const Matrix& a, const Matrix& b);

/// C = A * B^T without materializing B^T: C[i][j] = Σ_p A[i][p]·B[j][p].
/// matmul_a_bt(a, a), the Gram A A^T, is a symmetric rank-k update as
/// above.
[[nodiscard]] Matrix matmul_a_bt(const Matrix& a, const Matrix& b);

/// In place, C += Aᵀ B on the tiles of C that reach its upper triangle,
/// for an m x m block C at c (row stride ldc) and k x m operands A and B
/// (row stride ld): the trailing update of the blocked tridiagonalization
/// in src/linalg/eigen_sym.cpp, which reads only the upper triangle.
/// Cells below the diagonal inside those tiles change too. Each upper
/// cell gains one FMA chain over p ascending, as in the products above,
/// so the result does not depend on EKM_THREADS.
void add_at_b_upper(std::size_t m, std::size_t k, const double* a,
                    const double* b, std::size_t ld, double* c,
                    std::size_t ldc);

/// Euclidean helpers on raw spans (hot path of k-means).
[[nodiscard]] double squared_distance(std::span<const double> a,
                                      std::span<const double> b);
[[nodiscard]] double norm2(std::span<const double> a);

}  // namespace ekm
