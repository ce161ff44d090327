#include "cr/coreset.hpp"

namespace ekm {

Dataset Coreset::to_ambient() const {
  if (!basis) return points;
  EKM_EXPECTS_MSG(points.dim() == basis->rows(),
                  "coreset coords do not match basis rank");
  Matrix ambient = matmul(points.points(), *basis);  // (|S| x t) * (t x d)
  return points.is_weighted() ? Dataset(std::move(ambient), *points.weights())
                              : Dataset(std::move(ambient));
}

}  // namespace ekm
