#include "data/generators.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "common/chain_step.hpp"
#include "common/parallel.hpp"

namespace ekm {
namespace {

// Rows per decode chunk: about 1.3 ms at d = 784, most of it in tanh.
constexpr std::size_t kDecodeRows = 32;
// Bytes per block of latent vectors, under glibc's default 128 KB mmap
// threshold. A bigger buffer would be mapped, and freeing it would raise
// the threshold for the rest of the process and move where later
// allocations land (docs/performance.md, "Parallel data generation").
constexpr std::size_t kLatentBlockBytes = 64 * 1024;

}  // namespace

Dataset make_gaussian_mixture(const GaussianMixtureSpec& spec, Rng& rng) {
  EKM_EXPECTS(spec.k >= 1 && spec.n >= spec.k && spec.dim >= 1);

  // Cluster centers: random Gaussian directions scaled to `separation`.
  Matrix centers = Matrix::gaussian(spec.k, spec.dim, rng);
  for (std::size_t c = 0; c < spec.k; ++c) {
    auto row = centers.row(c);
    const double nrm = norm2(row);
    if (nrm > 0.0) {
      const double s = spec.separation / nrm;
      for (double& v : row) v *= s;
    }
  }

  Matrix pts(spec.n, spec.dim);
  std::normal_distribution<double> noise(0.0, spec.noise);
  std::uniform_int_distribution<std::size_t> pick(0, spec.k - 1);
  for (std::size_t i = 0; i < spec.n; ++i) {
    // Round-robin over clusters keeps them balanced; ties in tests then
    // depend only on noise, not on multinomial fluctuations.
    const std::size_t c = (i < spec.k) ? i : pick(rng);
    auto row = pts.row(i);
    auto ctr = centers.row(c);
    for (std::size_t j = 0; j < spec.dim; ++j) row[j] = ctr[j] + noise(rng);
  }
  return Dataset(std::move(pts));
}

Dataset make_mnist_like(const MnistLikeSpec& spec, Rng& rng) {
  EKM_EXPECTS(spec.classes >= 1 && spec.n >= spec.classes);
  EKM_EXPECTS(spec.latent_dim >= 1 && spec.latent_dim <= spec.dim);

  // Shared decoder from latent space to pixel space; per-class latent
  // means. The same decoder for all classes gives the global low
  // intrinsic dimension that real MNIST exhibits.
  const Matrix decoder =
      Matrix::gaussian(spec.latent_dim, spec.dim, rng,
                       1.0 / std::sqrt(static_cast<double>(spec.latent_dim)));
  Matrix class_means =
      Matrix::gaussian(spec.classes, spec.latent_dim, rng, spec.class_separation);

  // Every draw stays on the calling thread, in one order: per row its
  // class pick, its latent draws, then its pixel noise, which waits in the
  // row it will perturb. The latent vectors go to blocks of block_rows.
  const std::size_t block_rows = std::max<std::size_t>(
      1, kLatentBlockBytes / (spec.latent_dim * sizeof(double)));
  std::vector<std::vector<double>> latent((spec.n + block_rows - 1) /
                                          block_rows);
  const auto latent_row = [&](std::size_t i) {
    return latent[i / block_rows].data() + i % block_rows * spec.latent_dim;
  };
  Matrix pts(spec.n, spec.dim);
  std::normal_distribution<double> latent_noise(0.0, 1.0);
  std::normal_distribution<double> pixel_noise(0.0, 0.05);
  std::uniform_int_distribution<std::size_t> pick(0, spec.classes - 1);
  for (std::size_t i = 0; i < spec.n; ++i) {
    if (i % block_rows == 0) {
      latent[i / block_rows].resize(std::min(block_rows, spec.n - i) *
                                    spec.latent_dim);
    }
    const std::size_t c = (i < spec.classes) ? i : pick(rng);
    double* z = latent_row(i);
    for (std::size_t l = 0; l < spec.latent_dim; ++l) {
      z[l] = class_means(c, l) + latent_noise(rng);
    }
    for (double& v : pts.row(i)) v = pixel_noise(rng);
  }

  // Then the rows decode on the pool. Each pixel's decoder product is the
  // serial loop's chain, ascending in l from +0 with each step a
  // chain_step, vectorized across the row's pixels. No pixel reads another
  // row, so the output does not depend on the pool size.
  parallel_for(spec.n, kDecodeRows, [&](std::size_t begin, std::size_t end) {
    std::vector<double> acc(spec.dim);
    for (std::size_t i = begin; i < end; ++i) {
      std::fill(acc.begin(), acc.end(), 0.0);
      const double* z = latent_row(i);
      for (std::size_t l = 0; l < spec.latent_dim; ++l) {
        const double zl = z[l];
        const double* dec = decoder.row_ptr(l);
        for (std::size_t j = 0; j < spec.dim; ++j) {
          acc[j] = chain_step(acc[j], zl, dec[j]);
        }
      }
      auto row = pts.row(i);
      for (std::size_t j = 0; j < spec.dim; ++j) {
        // Squash to [0,1] like a pixel intensity; tanh keeps the cluster
        // geometry while bounding the range, then clamp tiny values to an
        // exact 0 to mimic MNIST's dark background.
        double v = 0.5 * (std::tanh(acc[j]) + 1.0) + row[j];
        v = std::clamp(v, 0.0, 1.0);
        if (v < 0.12) v = 0.0;
        row[j] = v;
      }
    }
  });

  Dataset out(std::move(pts));
  normalize_zero_mean_unit_range(out);
  return out;
}

Dataset make_neurips_like(const NeuripsLikeSpec& spec, Rng& rng) {
  EKM_EXPECTS(spec.topics >= 1 && spec.dim >= 1 && spec.n >= 1);

  // Each topic is a distribution over the `dim` attributes with Zipf
  // weights over a topic-specific random permutation of attributes.
  std::vector<std::vector<double>> topic_cdf(spec.topics);
  std::vector<std::vector<std::size_t>> topic_perm(spec.topics);
  for (std::size_t t = 0; t < spec.topics; ++t) {
    auto& perm = topic_perm[t];
    perm.resize(spec.dim);
    for (std::size_t j = 0; j < spec.dim; ++j) perm[j] = j;
    std::shuffle(perm.begin(), perm.end(), rng);

    auto& cdf = topic_cdf[t];
    cdf.resize(spec.dim);
    double acc = 0.0;
    for (std::size_t j = 0; j < spec.dim; ++j) {
      acc += 1.0 / std::pow(static_cast<double>(j + 1), spec.zipf_exponent);
      cdf[j] = acc;
    }
    for (double& v : cdf) v /= acc;
  }

  Matrix pts(spec.n, spec.dim);
  std::uniform_real_distribution<double> unif(0.0, 1.0);
  std::uniform_int_distribution<std::size_t> pick_topic(0, spec.topics - 1);
  std::poisson_distribution<int> total_count(spec.mean_count);

  // Cap the support of each row so the expected density matches `density`.
  const auto max_support = std::max<std::size_t>(
      1, static_cast<std::size_t>(spec.density * static_cast<double>(spec.dim)));

  for (std::size_t i = 0; i < spec.n; ++i) {
    const std::size_t primary = (i < spec.topics) ? i : pick_topic(rng);
    const std::size_t secondary = pick_topic(rng);
    const int draws = std::max(1, total_count(rng));
    auto row = pts.row(i);
    std::size_t support = 0;
    for (int s = 0; s < draws; ++s) {
      const std::size_t t = (unif(rng) < 0.8) ? primary : secondary;
      const auto& cdf = topic_cdf[t];
      const auto it = std::lower_bound(cdf.begin(), cdf.end(), unif(rng));
      std::size_t zipf_rank =
          static_cast<std::size_t>(std::distance(cdf.begin(), it));
      if (zipf_rank >= spec.dim) zipf_rank = spec.dim - 1;
      const std::size_t attr = topic_perm[t][zipf_rank];
      if (row[attr] == 0.0) {
        if (support >= max_support) continue;
        ++support;
      }
      row[attr] += 1.0;
    }
  }

  Dataset out(std::move(pts));
  normalize_zero_mean_unit_range(out);
  return out;
}

}  // namespace ekm
