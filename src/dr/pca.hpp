// PCA-based dimensionality reduction (§2 "feature extraction", and the
// intrinsic-dimension reduction step of FSS / disPCA).
//
// `pca_project` maps the points onto their top-t right singular vectors
// (coordinates in R^t) and keeps the squared projection residual, which
// becomes the coreset's Δ term (Theorem 5.1). Transmitting the
// coordinates requires also transmitting the basis, which is what makes
// FSS's communication cost linear in d (Theorem 4.1).
#pragma once

#include <cstddef>

#include "data/dataset.hpp"
#include "dr/linear_map.hpp"
#include "linalg/svd.hpp"

namespace ekm {

/// Result of projecting a dataset onto its top-t principal subspace.
struct PcaProjection {
  LinearMap map;          ///< Π = V_t (d x t); coords = A V_t
  Dataset coords;         ///< points in R^t (weights preserved)
  double residual_sq = 0; ///< ||A - A V_t V_t^T||_F^2 = Σ_{j>t} σ_j² — the Δ
                          ///< constant of Definition 3.2 / Theorem 5.1
};

/// Exact PCA via the top-t SVD (`truncated_svd`). `t` is clamped to
/// min(n, d). O(nd min(n, d)).
[[nodiscard]] PcaProjection pca_project(const Dataset& data, std::size_t t);

/// FSS/disPCA intrinsic dimension t1 = t2 = k + ceil(4k/ε²) - 1
/// (Theorem 5.1), clamped to the data's rank bound.
[[nodiscard]] std::size_t fss_intrinsic_dim(std::size_t k, double epsilon,
                                            std::size_t n, std::size_t d);

}  // namespace ekm
