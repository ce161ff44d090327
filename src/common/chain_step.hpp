// One step of a multiply-add chain, spelled out so that a chain keeps its
// bits however the loop around it is compiled.
#pragma once

#include <cmath>

namespace ekm {

/// s + x·y, fused where the target has a fast FMA, as gcc contracts a
/// scalar `s += x * y` and the kernels' vector steps; else rounded twice.
/// A plain loop over scalars may instead be vectorized into separately
/// rounded products added in order, or left unfused, so a chain whose
/// bits must match another's spells each step with this.
inline double chain_step(double s, double x, double y) {
#if defined(__FP_FAST_FMA)
  return std::fma(x, y, s);
#else
  return s + x * y;
#endif
}

}  // namespace ekm
