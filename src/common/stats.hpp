// Small statistics toolkit used by the experiment harness: summary
// statistics over Monte-Carlo runs and empirical CDFs matching the
// figures in §7 of the paper.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace ekm {

/// Summary of a sample: n, mean, (sample) stddev, min/median/max.
struct Summary {
  std::size_t n = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double median = 0.0;
  double max = 0.0;
};

[[nodiscard]] Summary summarize(std::span<const double> xs);

/// `q`-quantile (0 <= q <= 1) with linear interpolation between order
/// statistics (type-7, the numpy default).
[[nodiscard]] double quantile(std::span<const double> xs, double q);

/// Empirical CDF: sorted support points and the fraction of the sample
/// at or below each point, i.e. the staircase the paper plots in
/// Figures 1 and 2.
struct EmpiricalCdf {
  std::vector<double> x;  ///< sorted sample values
  std::vector<double> p;  ///< P(X <= x[i]) = (i+1)/n
};

[[nodiscard]] EmpiricalCdf empirical_cdf(std::span<const double> xs);

/// Renders a CDF as "x p" rows for plotting / logging.
[[nodiscard]] std::string format_cdf(const EmpiricalCdf& cdf,
                                     std::size_t max_rows = 32);

}  // namespace ekm
