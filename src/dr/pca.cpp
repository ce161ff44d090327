#include "dr/pca.hpp"

#include <algorithm>
#include <cmath>

namespace ekm {

PcaProjection pca_project(const Dataset& data, std::size_t t) {
  EKM_EXPECTS(!data.empty());
  const std::size_t r = std::min({t, data.size(), data.dim()});
  EKM_EXPECTS_MSG(r >= 1, "PCA target dimension must be >= 1");

  const Matrix& a = data.points();
  Svd svd = truncated_svd(a, r, SvdFactors::kV);
  Matrix coords = matmul(a, svd.v);
  PcaProjection out;
  // Δ = Σ_{j>r} σ_j², taken as the residual ||A - (A V_r) V_r^T||_F^2 of
  // the coordinates: ||A||_F^2 less the kept energy would cancel when Δ
  // is small. At r = min(n, d) nothing is discarded, and Δ is exactly 0.
  if (r < std::min(data.size(), data.dim())) {
    const Matrix approx = matmul_a_bt(coords, svd.v);
    const auto x = a.flat();
    const auto y = approx.flat();
    for (std::size_t i = 0; i < x.size(); ++i) {
      out.residual_sq += (x[i] - y[i]) * (x[i] - y[i]);
    }
  }
  out.map = LinearMap(std::move(svd.v));  // d x r
  out.coords = data.is_weighted() ? Dataset(std::move(coords), *data.weights())
                                  : Dataset(std::move(coords));
  return out;
}

std::size_t fss_intrinsic_dim(std::size_t k, double epsilon, std::size_t n,
                              std::size_t d) {
  EKM_EXPECTS(epsilon > 0.0);
  const double t = static_cast<double>(k) +
                   std::ceil(4.0 * static_cast<double>(k) / (epsilon * epsilon)) -
                   1.0;
  const auto bound = std::min(n, d);
  return std::max<std::size_t>(1,
                               std::min(static_cast<std::size_t>(t), bound));
}

}  // namespace ekm
