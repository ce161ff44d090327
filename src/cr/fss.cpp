#include "cr/fss.hpp"

#include <algorithm>

#include "dr/pca.hpp"

namespace ekm {

Coreset fss_coreset(const Dataset& data, const FssOptions& opts, Rng& rng) {
  EKM_EXPECTS(!data.empty());
  const std::size_t n = data.size();
  const std::size_t d = data.dim();

  const std::size_t t = opts.intrinsic_dim > 0
                            ? std::min({opts.intrinsic_dim, n, d})
                            : fss_intrinsic_dim(opts.k, opts.epsilon, n, d);
  const std::size_t sample_size =
      opts.sample_size > 0 ? opts.sample_size
                           : fss_coreset_size(opts.k, opts.epsilon, opts.delta, n);

  // 1) Exact PCA to intrinsic dimension t; Δ = discarded energy.
  PcaProjection pca = pca_project(data, t);

  // 2) Sensitivity sampling on the projected coordinates. Row selection
  //    commutes with the projection, so sampling coords and attaching the
  //    basis afterwards equals sampling the projected ambient points.
  SensitivitySampleOptions sopts;
  sopts.k = opts.k;
  sopts.sample_size = sample_size;
  sopts.include_bicriteria_centers = opts.include_bicriteria_centers;
  Coreset cs = sensitivity_sample(pca.coords, sopts, rng);

  cs.delta = pca.residual_sq;
  cs.basis = pca.map.projection().transposed();  // t x d, orthonormal rows
  return cs;
}

}  // namespace ekm
