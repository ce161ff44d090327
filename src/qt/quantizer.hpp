// Rounding-based quantizer (§6.1, eq. (13) of the paper).
//
// Γ keeps the leading `s` stored significand bits of the IEEE-754 double
// representation and rounds the remainder, so |x - Γ(x)| <= |x| · 2^{-s}
// (eq. (14)). Implemented directly on the bit pattern: add half an ulp at
// position s, then truncate — the carry into the exponent that rounding
// up can cause is handled by integer addition for free.
//
// A quantized scalar costs 1 sign + 11 exponent + s significand bits on
// the wire (the receiver re-expands to a full double), which is how the
// communication accounting in Figures 3–6 measures the QT saving.
#pragma once

#include <cstdint>

#include "data/dataset.hpp"
#include "linalg/matrix.hpp"

namespace ekm {

/// Number of stored significand bits of an IEEE-754 double (a(1..52);
/// a(0) is implicit). s == kDoubleSignificandBits means "no quantization".
inline constexpr int kDoubleSignificandBits = 52;

class RoundingQuantizer {
 public:
  /// `significant_bits` = the paper's s, clamped to [1, 52].
  explicit RoundingQuantizer(int significant_bits);

  [[nodiscard]] int significant_bits() const noexcept { return s_; }

  /// Γ(x). Zero, infinities and NaN pass through unchanged; subnormals
  /// are quantized on their raw bit pattern (error still bounded by the
  /// value's own magnitude scale).
  [[nodiscard]] double quantize(double x) const noexcept;

  /// Element-wise Γ over a matrix / dataset (weights are NOT quantized —
  /// the paper applies Γ to the coreset points only, §6 footnote 6).
  [[nodiscard]] Matrix quantize(const Matrix& m) const;
  [[nodiscard]] Dataset quantize(const Dataset& data) const;

  /// Wire cost of one quantized scalar in bits: 1 + 11 + s.
  [[nodiscard]] std::size_t bits_per_scalar() const noexcept {
    return 12 + static_cast<std::size_t>(s_);
  }

  /// A-priori bound (14): ∆_QT <= 2^{-s} · max_p ||p||.
  [[nodiscard]] double max_error_bound(double max_point_norm) const noexcept;

 private:
  int s_;
};

}  // namespace ekm
