// The ε-coreset inequality (3) measured for one candidate center set:
// the property the coreset tests hold every construction to.
#pragma once

#include <cmath>

#include "cr/coreset.hpp"
#include "data/dataset.hpp"
#include "kmeans/cost.hpp"
#include "linalg/matrix.hpp"

namespace ekm::test {

/// cost(S, X) per eq. (4): weighted cost of the (ambient) points plus Δ.
inline double coreset_cost(const Coreset& coreset, const Matrix& centers) {
  return kmeans_cost(coreset.to_ambient(), centers) + coreset.delta;
}

/// The tightest ε' such that the coreset's cost and the full data's cost
/// at `centers` agree within 1 ± ε'.
inline double coreset_eps_for(const Coreset& coreset, const Dataset& full,
                              const Matrix& centers) {
  const double true_cost = kmeans_cost(full, centers);
  const double approx = coreset_cost(coreset, centers);
  if (true_cost == 0.0) return approx == 0.0 ? 0.0 : INFINITY;
  // (1-eps) cost <= approx <= (1+eps) cost  =>  eps >= |approx/cost - 1|.
  return std::fabs(approx / true_cost - 1.0);
}

}  // namespace ekm::test
