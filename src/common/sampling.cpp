#include "common/sampling.hpp"

#include <algorithm>
#include <limits>
#include <random>

namespace ekm {

AliasTable::AliasTable(std::span<const double> weights) {
  EKM_EXPECTS(!weights.empty());
  const std::size_t n = weights.size();
  for (double w : weights) EKM_EXPECTS_MSG(w >= 0.0, "negative weight");
  for (double w : weights) total_ += w;
  EKM_EXPECTS_MSG(total_ > 0.0, "all weights are zero");

  prob_.assign(n, 0.0);
  alias_.assign(n, 0);

  // Scaled probabilities; partition into under/over-full buckets.
  std::vector<double> scaled(n);
  const double scale = static_cast<double>(n) / total_;
  for (std::size_t i = 0; i < n; ++i) scaled[i] = weights[i] * scale;

  std::vector<std::size_t> small;
  std::vector<std::size_t> large;
  small.reserve(n);
  large.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(i);
  }

  while (!small.empty() && !large.empty()) {
    const std::size_t s = small.back();
    small.pop_back();
    const std::size_t l = large.back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] -= 1.0 - scaled[s];
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  // Leftovers are exactly full (modulo rounding).
  for (std::size_t i : large) prob_[i] = 1.0;
  for (std::size_t i : small) prob_[i] = 1.0;
}

std::size_t AliasTable::sample(Rng& rng) const {
  std::uniform_int_distribution<std::size_t> bucket(0, prob_.size() - 1);
  std::uniform_real_distribution<double> unif(0.0, 1.0);
  const std::size_t b = bucket(rng);
  return unif(rng) < prob_[b] ? b : alias_[b];
}

std::size_t sample_from_prefix(std::span<const double> cum, Rng& rng) {
  EKM_EXPECTS(!cum.empty() && cum.back() > 0.0);
  std::uniform_real_distribution<double> unif(0.0, cum.back());
  // The distribution includes its lower bound: clamp r above 0 so a draw
  // of exactly 0.0 cannot land on a leading zero-weight prefix run.
  const double r =
      std::max(unif(rng), std::numeric_limits<double>::denorm_min());
  const auto it = std::lower_bound(cum.begin(), cum.end(), r);
  const auto i = static_cast<std::size_t>(it - cum.begin());
  return std::min(i, cum.size() - 1);
}

}  // namespace ekm
