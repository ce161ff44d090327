#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/expects.hpp"

namespace ekm {

Summary summarize(std::span<const double> xs) {
  Summary s;
  s.n = xs.size();
  if (xs.empty()) return s;

  double sum = 0.0;
  s.min = xs[0];
  s.max = xs[0];
  for (double x : xs) {
    sum += x;
    s.min = std::min(s.min, x);
    s.max = std::max(s.max, x);
  }
  s.mean = sum / static_cast<double>(s.n);

  if (s.n > 1) {
    double ss = 0.0;
    for (double x : xs) ss += (x - s.mean) * (x - s.mean);
    s.stddev = std::sqrt(ss / static_cast<double>(s.n - 1));
  }
  s.median = quantile(xs, 0.5);
  return s;
}

double quantile(std::span<const double> xs, double q) {
  EKM_EXPECTS(!xs.empty());
  EKM_EXPECTS(q >= 0.0 && q <= 1.0);
  std::vector<double> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end());
  if (v.size() == 1) return v[0];
  const double h = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const auto hi = std::min(lo + 1, v.size() - 1);
  const double frac = h - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

EmpiricalCdf empirical_cdf(std::span<const double> xs) {
  EmpiricalCdf cdf;
  cdf.x.assign(xs.begin(), xs.end());
  std::sort(cdf.x.begin(), cdf.x.end());
  cdf.p.resize(cdf.x.size());
  const auto n = static_cast<double>(cdf.x.size());
  for (std::size_t i = 0; i < cdf.x.size(); ++i) {
    cdf.p[i] = static_cast<double>(i + 1) / n;
  }
  return cdf;
}

std::string format_cdf(const EmpiricalCdf& cdf, std::size_t max_rows) {
  std::ostringstream out;
  const std::size_t n = cdf.x.size();
  const std::size_t stride = n > max_rows ? (n + max_rows - 1) / max_rows : 1;
  for (std::size_t i = 0; i < n; i += stride) {
    out << cdf.x[i] << '\t' << cdf.p[i] << '\n';
  }
  if (n > 0 && (n - 1) % stride != 0) {
    out << cdf.x[n - 1] << '\t' << cdf.p[n - 1] << '\n';
  }
  return out.str();
}

}  // namespace ekm
