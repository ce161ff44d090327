#include "data/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>

namespace ekm {

Dataset::Dataset(Matrix points, std::vector<double> weights)
    : points_(std::move(points)), weights_(std::move(weights)) {
  EKM_EXPECTS_MSG(weights_->size() == points_.rows(),
                  "one weight per point required");
  for (double w : *weights_) EKM_EXPECTS_MSG(w >= 0.0, "negative weight");
}

double Dataset::total_weight() const {
  if (!weights_) return static_cast<double>(size());
  double s = 0.0;
  for (double w : *weights_) s += w;
  return s;
}

double normalize_zero_mean_unit_range(Dataset& data) {
  if (data.empty()) return 1.0;
  Matrix& m = data.mutable_points();
  const std::size_t n = m.rows();
  const std::size_t d = m.cols();

  std::vector<double> mean(d, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    auto row = m.row(i);
    for (std::size_t j = 0; j < d; ++j) mean[j] += row[j];
  }
  for (double& v : mean) v /= static_cast<double>(n);

  double maxabs = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    auto row = m.row(i);
    for (std::size_t j = 0; j < d; ++j) {
      row[j] -= mean[j];
      maxabs = std::max(maxabs, std::fabs(row[j]));
    }
  }
  if (maxabs == 0.0) return 1.0;
  const double scale = 1.0 / maxabs;
  m.scale(scale);
  return scale;
}

std::vector<Dataset> partition_random(const Dataset& data, std::size_t m,
                                      Rng& rng) {
  EKM_EXPECTS(m >= 1);
  std::uniform_int_distribution<std::size_t> pick(0, m - 1);
  std::vector<std::vector<std::size_t>> idx(m);
  for (std::size_t i = 0; i < data.size(); ++i) idx[pick(rng)].push_back(i);

  std::vector<Dataset> parts;
  parts.reserve(m);
  for (std::size_t s = 0; s < m; ++s) {
    Matrix pts(idx[s].size(), data.dim());
    std::vector<double> w;
    if (data.is_weighted()) w.reserve(idx[s].size());
    for (std::size_t r = 0; r < idx[s].size(); ++r) {
      auto src = data.point(idx[s][r]);
      std::copy(src.begin(), src.end(), pts.row(r).begin());
      if (data.is_weighted()) w.push_back(data.weight(idx[s][r]));
    }
    parts.push_back(data.is_weighted() ? Dataset(std::move(pts), std::move(w))
                                       : Dataset(std::move(pts)));
  }
  return parts;
}

namespace {

// Gamma(alpha, 1) sampler good enough for Dirichlet draws (Marsaglia–
// Tsang for alpha >= 1, boost trick for alpha < 1).
double sample_gamma(double alpha, Rng& rng) {
  std::normal_distribution<double> normal;
  std::uniform_real_distribution<double> unif(0.0, 1.0);
  if (alpha < 1.0) {
    const double u = unif(rng);
    return sample_gamma(alpha + 1.0, rng) * std::pow(u, 1.0 / alpha);
  }
  const double d = alpha - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = normal(rng);
    double v = 1.0 + c * x;
    if (v <= 0.0) continue;
    v = v * v * v;
    const double u = unif(rng);
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) return d * v;
  }
}

}  // namespace

std::vector<Dataset> partition_noniid(const Dataset& data, std::size_t m,
                                      double alpha, std::size_t skew_clusters,
                                      Rng& rng) {
  EKM_EXPECTS(m >= 1);
  EKM_EXPECTS(alpha > 0.0);
  EKM_EXPECTS(skew_clusters >= 1);

  // Coarse grouping: D²-seeded centers, nearest-center assignment. This
  // plays the role of "labels" for the skewed shard draw.
  std::vector<std::size_t> group(data.size(), 0);
  {
    // Inline D² seeding to avoid a dependency on ekm_kmeans.
    const std::size_t g = std::min(skew_clusters, data.size());
    std::vector<std::size_t> centers;
    std::uniform_int_distribution<std::size_t> pick(0, data.size() - 1);
    centers.push_back(pick(rng));
    std::vector<double> d2(data.size());
    for (std::size_t i = 0; i < data.size(); ++i) {
      d2[i] = squared_distance(data.point(i), data.point(centers[0]));
    }
    std::uniform_real_distribution<double> unif(0.0, 1.0);
    while (centers.size() < g) {
      double total = 0.0;
      for (double v : d2) total += v;
      std::size_t next = data.size() - 1;
      if (total > 0.0) {
        double r = unif(rng) * total;
        for (std::size_t i = 0; i < data.size(); ++i) {
          r -= d2[i];
          if (r <= 0.0) {
            next = i;
            break;
          }
        }
      } else {
        next = pick(rng);
      }
      centers.push_back(next);
      for (std::size_t i = 0; i < data.size(); ++i) {
        d2[i] = std::min(d2[i],
                         squared_distance(data.point(i), data.point(next)));
      }
    }
    for (std::size_t i = 0; i < data.size(); ++i) {
      double best = std::numeric_limits<double>::infinity();
      for (std::size_t c = 0; c < centers.size(); ++c) {
        const double dist = squared_distance(data.point(i), data.point(centers[c]));
        if (dist < best) {
          best = dist;
          group[i] = c;
        }
      }
    }
  }

  // Per-group Dirichlet(alpha) source proportions, then a categorical
  // draw per point.
  const std::size_t g = *std::max_element(group.begin(), group.end()) + 1;
  std::vector<std::vector<double>> proportions(g, std::vector<double>(m));
  for (std::size_t c = 0; c < g; ++c) {
    double total = 0.0;
    for (std::size_t s = 0; s < m; ++s) {
      proportions[c][s] = sample_gamma(alpha, rng);
      total += proportions[c][s];
    }
    for (double& p : proportions[c]) p /= total;
  }

  std::uniform_real_distribution<double> unif(0.0, 1.0);
  std::vector<std::vector<std::size_t>> idx(m);
  for (std::size_t i = 0; i < data.size(); ++i) {
    double r = unif(rng);
    std::size_t s = m - 1;
    for (std::size_t c = 0; c < m; ++c) {
      r -= proportions[group[i]][c];
      if (r <= 0.0) {
        s = c;
        break;
      }
    }
    idx[s].push_back(i);
  }

  std::vector<Dataset> parts;
  parts.reserve(m);
  for (std::size_t s = 0; s < m; ++s) {
    Matrix pts(idx[s].size(), data.dim());
    std::vector<double> w;
    if (data.is_weighted()) w.reserve(idx[s].size());
    for (std::size_t r = 0; r < idx[s].size(); ++r) {
      auto src = data.point(idx[s][r]);
      std::copy(src.begin(), src.end(), pts.row(r).begin());
      if (data.is_weighted()) w.push_back(data.weight(idx[s][r]));
    }
    parts.push_back(data.is_weighted() ? Dataset(std::move(pts), std::move(w))
                                       : Dataset(std::move(pts)));
  }
  return parts;
}

Dataset concatenate(std::span<const Dataset> parts) {
  EKM_EXPECTS(!parts.empty());
  std::size_t d = 0;
  std::size_t n = 0;
  bool weighted = false;
  for (const Dataset& p : parts) {
    if (p.empty()) continue;
    if (n == 0) d = p.dim();
    EKM_EXPECTS_MSG(p.dim() == d, "dimension mismatch");
    n += p.size();
    weighted = weighted || p.is_weighted();
  }
  if (n == 0) return {};
  Matrix pts(n, d);
  std::vector<double> w;
  if (weighted) w.reserve(n);
  std::size_t r = 0;
  for (const Dataset& p : parts) {
    for (std::size_t i = 0; i < p.size(); ++i, ++r) {
      auto src = p.point(i);
      std::copy(src.begin(), src.end(), pts.row(r).begin());
      if (weighted) w.push_back(p.weight(i));
    }
  }
  return weighted ? Dataset(std::move(pts), std::move(w))
                  : Dataset(std::move(pts));
}

}  // namespace ekm
