#include "dr/jl.hpp"

#include <algorithm>
#include <cmath>
#include <random>

namespace ekm {

std::size_t jl_target_dim(double epsilon, std::size_t n_points, std::size_t k,
                          double delta, std::size_t input_dim) {
  EKM_EXPECTS(epsilon > 0.0 && epsilon < 1.0);
  EKM_EXPECTS(delta > 0.0 && delta < 1.0);
  EKM_EXPECTS(n_points >= 1 && k >= 1);
  const double raw = std::ceil(
      4.0 * std::log(4.0 * static_cast<double>(n_points) *
                     static_cast<double>(k) / delta) /
      (epsilon * epsilon));
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(raw, 4.0)),
                                 4, std::max<std::size_t>(input_dim, 4));
}

LinearMap make_jl_projection(std::size_t input_dim, std::size_t output_dim,
                             std::uint64_t seed, JlFamily family) {
  EKM_EXPECTS(input_dim >= 1 && output_dim >= 1);
  Rng rng = make_rng(seed, 0x4a4cULL);  // stream tag "JL"
  Matrix pi(input_dim, output_dim);
  const double scale = 1.0 / std::sqrt(static_cast<double>(output_dim));

  switch (family) {
    case JlFamily::kGaussian: {
      std::normal_distribution<double> dist(0.0, scale);
      for (double& v : pi.flat()) v = dist(rng);
      break;
    }
    case JlFamily::kRademacher: {
      std::bernoulli_distribution coin(0.5);
      for (double& v : pi.flat()) v = coin(rng) ? scale : -scale;
      break;
    }
    case JlFamily::kSparse: {
      // Achlioptas: sqrt(3/d') * (+1 w.p. 1/6, -1 w.p. 1/6, 0 w.p. 2/3).
      const double s3 = std::sqrt(3.0) * scale;
      std::uniform_int_distribution<int> die(0, 5);
      for (double& v : pi.flat()) {
        const int r = die(rng);
        v = (r == 0) ? s3 : (r == 1) ? -s3 : 0.0;
      }
      break;
    }
  }
  return LinearMap(std::move(pi));
}

}  // namespace ekm
