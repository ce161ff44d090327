#include "qt/quantizer.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace ekm {

RoundingQuantizer::RoundingQuantizer(int significant_bits)
    : s_(std::clamp(significant_bits, 1, kDoubleSignificandBits)) {}

double RoundingQuantizer::quantize(double x) const noexcept {
  if (s_ >= kDoubleSignificandBits) return x;
  if (x == 0.0 || !std::isfinite(x)) return x;

  auto bits = std::bit_cast<std::uint64_t>(x);
  const int drop = kDoubleSignificandBits - s_;  // low bits to clear
  const std::uint64_t half = std::uint64_t{1} << (drop - 1);
  const std::uint64_t mask = ~((std::uint64_t{1} << drop) - 1);
  // Round-half-away-from-zero on the magnitude: the sign bit is untouched
  // because adding `half` can only carry into the exponent field, which
  // is exactly the "rounding up crosses a binade" case of eq. (13).
  bits = (bits + half) & mask;
  return std::bit_cast<double>(bits);
}

Matrix RoundingQuantizer::quantize(const Matrix& m) const {
  Matrix out = m;
  for (double& v : out.flat()) v = quantize(v);
  return out;
}

Dataset RoundingQuantizer::quantize(const Dataset& data) const {
  Matrix pts = quantize(data.points());
  return data.is_weighted() ? Dataset(std::move(pts), *data.weights())
                            : Dataset(std::move(pts));
}

double RoundingQuantizer::max_error_bound(double max_point_norm) const noexcept {
  return std::ldexp(max_point_norm, -s_);  // 2^{-s} * max ||p||
}

}  // namespace ekm
