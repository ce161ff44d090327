#include "kmeans/cost.hpp"

#include "kmeans/assign.hpp"

namespace ekm {

NearestCenter nearest_center(std::span<const double> p, const Matrix& centers) {
  EKM_EXPECTS_MSG(centers.rows() > 0, "no centers");
  NearestCenter best{0, squared_distance(p, centers.row(0))};
  for (std::size_t c = 1; c < centers.rows(); ++c) {
    const double d2 = squared_distance(p, centers.row(c));
    if (d2 < best.sq_dist) best = {c, d2};
  }
  return best;
}

double kmeans_cost(const Dataset& data, const Matrix& centers) {
  return assign_and_cost(data, centers, {});
}

}  // namespace ekm
