// Synthetic dataset generators.
//
// The paper evaluates on MNIST (60000 x 784, dense images, low intrinsic
// dimension) and the NeurIPS word-count corpus (11463 x 5812, sparse,
// heavy-tailed). Neither is shipped with this repository, so we generate
// deterministic synthetic stand-ins that match the structural properties
// the algorithms are sensitive to — cardinality/dimension regime, cluster
// structure, intrinsic dimension, sparsity, and spectral decay.
// `load_or_generate_*` in loaders.hpp prefers real files when present.
#pragma once

#include <cstddef>

#include "common/rng.hpp"
#include "data/dataset.hpp"

namespace ekm {

/// Isotropic Gaussian mixture: `k` well-separated clusters in R^dim.
/// Ground truth for unit tests (the optimal k-means structure is known
/// by construction when separation >> noise).
struct GaussianMixtureSpec {
  std::size_t n = 1000;
  std::size_t dim = 16;
  std::size_t k = 4;
  double separation = 10.0;  ///< distance scale between cluster centers
  double noise = 1.0;        ///< within-cluster standard deviation
};

[[nodiscard]] Dataset make_gaussian_mixture(const GaussianMixtureSpec& spec,
                                            Rng& rng);

/// MNIST-like images: 10 classes; each class is an anisotropic Gaussian
/// supported on a `latent_dim`-dimensional random manifold embedded in
/// R^dim, pushed through a squashing nonlinearity and clipped to [0, 1]
/// like pixel intensities, with a sparse background. Matches MNIST's
/// "dense but low intrinsic dimension" regime that makes PCA-based FSS
/// effective. Every draw comes from `rng` on the calling thread and the
/// rows decode on the thread pool, so the output, and the state `rng` is
/// left in, do not depend on EKM_THREADS.
struct MnistLikeSpec {
  std::size_t n = 10000;
  std::size_t dim = 784;
  std::size_t classes = 10;
  std::size_t latent_dim = 16;
  double class_separation = 2.5;
};

[[nodiscard]] Dataset make_mnist_like(const MnistLikeSpec& spec, Rng& rng);

/// NeurIPS-corpus-like sparse counts: documents drawn from a topic model
/// with Zipf-distributed word frequencies. Dimension is comparable to
/// cardinality (d = Θ(n)), the regime where the paper's d ≫ log n
/// analysis favours JL-first compositions.
struct NeuripsLikeSpec {
  std::size_t n = 4000;     ///< number of "words" (rows, as in the paper)
  std::size_t dim = 2000;   ///< number of "papers" (attributes)
  std::size_t topics = 12;
  double zipf_exponent = 1.1;
  double density = 0.05;    ///< expected fraction of nonzero attributes
  double mean_count = 40.0; ///< mean total count per row
};

[[nodiscard]] Dataset make_neurips_like(const NeuripsLikeSpec& spec, Rng& rng);

}  // namespace ekm
