// k-Means cost functions (eq. (1) and (4) of the paper).
#pragma once

#include <cstddef>
#include <span>

#include "data/dataset.hpp"
#include "linalg/matrix.hpp"

namespace ekm {

/// Index of the nearest center (rows of `centers`) to `p`, and the
/// squared distance to it.
struct NearestCenter {
  std::size_t index = 0;
  double sq_dist = 0.0;
};

[[nodiscard]] NearestCenter nearest_center(std::span<const double> p,
                                           const Matrix& centers);

/// cost(P, X) = sum_p w(p) * min_x ||p - x||^2. Weights default to 1, so
/// for unweighted datasets this is exactly eq. (1); for a coreset's point
/// set it is the sum in eq. (4) (the caller adds Δ).
[[nodiscard]] double kmeans_cost(const Dataset& data, const Matrix& centers);

}  // namespace ekm
