// Dataset container and preprocessing.
//
// A Dataset is a dense point set P ⊂ R^d (one matrix row per point) with
// optional per-point weights — weighted sets arise as coresets (§3.3) and
// as inputs to the server-side weighted k-means solve. Preprocessing
// reproduces §7.1 of the paper: "normalized to [-1, 1] with zero mean",
// and the random split of a dataset across m data sources.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "linalg/matrix.hpp"

namespace ekm {

class Dataset {
 public:
  Dataset() = default;

  /// Unweighted dataset (every weight is 1).
  explicit Dataset(Matrix points) : points_(std::move(points)) {}

  /// Weighted dataset; weights must be non-negative, one per row.
  Dataset(Matrix points, std::vector<double> weights);

  [[nodiscard]] std::size_t size() const noexcept { return points_.rows(); }
  [[nodiscard]] std::size_t dim() const noexcept { return points_.cols(); }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  [[nodiscard]] std::span<const double> point(std::size_t i) const {
    return points_.row(i);
  }

  [[nodiscard]] double weight(std::size_t i) const {
    return weights_ ? (*weights_)[i] : 1.0;
  }
  [[nodiscard]] bool is_weighted() const noexcept { return weights_.has_value(); }
  [[nodiscard]] double total_weight() const;

  [[nodiscard]] const Matrix& points() const noexcept { return points_; }
  [[nodiscard]] Matrix& mutable_points() noexcept { return points_; }
  [[nodiscard]] const std::vector<double>* weights() const {
    return weights_ ? &*weights_ : nullptr;
  }

  /// Number of raw scalars a source would transmit for this dataset
  /// (the "NR" baseline denominator of Tables 3–4).
  [[nodiscard]] std::size_t scalar_count() const { return size() * dim(); }

 private:
  Matrix points_;
  std::optional<std::vector<double>> weights_;
};

/// In-place §7.1 preprocessing: subtract the per-attribute mean, then
/// scale the whole matrix by 1/max|entry| so values lie in [-1, 1].
/// Returns the scale factor applied (1.0 for an all-zero dataset).
double normalize_zero_mean_unit_range(Dataset& data);

/// Splits `data` into `m` random parts (each point assigned to a source
/// uniformly at random, as in §7.1 "randomly partition each dataset
/// among 10 data sources"). Every part keeps the original dimension;
/// parts may differ in cardinality. Weights, if any, travel with points.
[[nodiscard]] std::vector<Dataset> partition_random(const Dataset& data,
                                                    std::size_t m, Rng& rng);

/// Non-IID split: clusters the data coarsely (k-means++ seeding with
/// `skew_clusters` groups) and assigns each group's points across sources
/// by a Dirichlet(alpha) draw — the "label-skew" sharding typical of real
/// edge deployments. alpha -> infinity recovers the uniform split;
/// alpha -> 0 gives each source nearly pure single-cluster data, the
/// stress case for disSS's cost-proportional sample allocation.
[[nodiscard]] std::vector<Dataset> partition_noniid(const Dataset& data,
                                                    std::size_t m,
                                                    double alpha,
                                                    std::size_t skew_clusters,
                                                    Rng& rng);

/// Concatenates datasets (same dim). Weighted iff any part is weighted.
[[nodiscard]] Dataset concatenate(std::span<const Dataset> parts);

}  // namespace ekm
