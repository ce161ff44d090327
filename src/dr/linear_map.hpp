// Linear dimensionality-reduction maps π : R^d → R^d'.
//
// A map is represented by its matrix Π ∈ R^{d x d'} acting on row vectors
// (π(p) = p Π, π(P) = A_P Π — §3.1 of the paper). The inverse used to
// lift k-means centers back to the original space (line 7 of Algorithms
// 1–2) is the Moore–Penrose pseudoinverse Π⁺, which the paper notes is a
// valid choice among the non-unique inverses.
#pragma once

#include "data/dataset.hpp"
#include "linalg/matrix.hpp"
#include "linalg/svd.hpp"

namespace ekm {

class LinearMap {
 public:
  LinearMap() = default;
  explicit LinearMap(Matrix projection) : pi_(std::move(projection)) {}

  [[nodiscard]] std::size_t input_dim() const { return pi_.rows(); }
  [[nodiscard]] std::size_t output_dim() const { return pi_.cols(); }

  /// π(M) = M Π for a matrix of row-points.
  [[nodiscard]] Matrix apply(const Matrix& points) const {
    EKM_EXPECTS_MSG(points.cols() == pi_.rows(), "LinearMap dimension mismatch");
    return matmul(points, pi_);
  }

  /// π(P): projects every point; weights are preserved.
  [[nodiscard]] Dataset apply(const Dataset& data) const;

  /// π⁻¹(M) = M Π⁺ (Moore–Penrose). Lazily computes and caches Π⁺.
  [[nodiscard]] Matrix lift(const Matrix& points) const;

  [[nodiscard]] const Matrix& projection() const { return pi_; }

 private:
  Matrix pi_;
  mutable Matrix pinv_;  // cached Π⁺ (empty until first lift)
};

}  // namespace ekm
