// Discrete sampling utilities.
//
// Sensitivity sampling, disSS and the bicriteria rounds all draw many
// i.i.d. indices from a fixed categorical distribution. A linear scan per
// draw costs O(n) each (O(nN) total); Walker's alias method preprocesses
// in O(n) and draws in O(1), which is what makes ˜O(nd) device budgets
// honest when |S| is large.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/expects.hpp"
#include "common/rng.hpp"

namespace ekm {

/// Walker alias table over an unnormalized non-negative weight vector.
class AliasTable {
 public:
  /// O(n) construction. Requires at least one strictly positive weight.
  explicit AliasTable(std::span<const double> weights);

  /// O(1) draw of an index with probability weights[i] / sum(weights).
  [[nodiscard]] std::size_t sample(Rng& rng) const;

  [[nodiscard]] std::size_t size() const { return prob_.size(); }
  [[nodiscard]] double total_weight() const { return total_; }

 private:
  std::vector<double> prob_;        // acceptance probability per bucket
  std::vector<std::size_t> alias_;  // fallback index per bucket
  double total_ = 0.0;
};

/// Draws an index with probability (cum[i] - cum[i-1]) / cum.back() from
/// unnormalized non-decreasing prefix sums (cum.back() > 0 required):
/// O(log n) per draw via binary search. The right tool when the
/// distribution changes between draws (D²-seeding) or only O(k) draws
/// are taken (bicriteria rounds) — AliasTable amortizes better for many
/// draws from one fixed distribution. Zero-probability indices (equal
/// consecutive prefixes) are never selected; numeric slack at the top
/// end lands on the last index.
[[nodiscard]] std::size_t sample_from_prefix(std::span<const double> cum,
                                             Rng& rng);

}  // namespace ekm
