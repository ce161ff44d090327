#include "dr/linear_map.hpp"

namespace ekm {

Dataset LinearMap::apply(const Dataset& data) const {
  Matrix projected = apply(data.points());
  if (data.is_weighted()) {
    return Dataset(std::move(projected), *data.weights());
  }
  return Dataset(std::move(projected));
}

Matrix LinearMap::lift(const Matrix& points) const {
  EKM_EXPECTS_MSG(points.cols() == pi_.cols(), "lift dimension mismatch");
  if (pinv_.empty()) pinv_ = pseudoinverse(pi_);
  return matmul(points, pinv_);
}

}  // namespace ekm
