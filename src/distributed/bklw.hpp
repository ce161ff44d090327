// BKLW — the distributed FSS of [Balcan–Kanchanapally–Liang–Woodruff,
// NIPS'14, Algorithm 1]; §5.1 of the paper.
//
// BKLW = disPCA (merge an approximate global principal subspace) followed
// by disSS on the projected data {A_i V^(t2) (V^(t2))^T}. The coreset
// points live in the merged t2-dimensional subspace that both the server
// and the sources know after disPCA, so the sources uplink subspace
// coordinates; the dominant communication cost is disPCA's m·t1·d
// scalars (Theorem 5.3: O(mkd/ε²)).
#pragma once

#include <cstdint>
#include <span>

#include "cr/coreset.hpp"
#include "data/dataset.hpp"
#include "net/channel.hpp"
#include "obs/span.hpp"

namespace ekm {

struct BklwOptions {
  std::size_t k = 2;
  double epsilon = 0.3;  ///< drives t1 = t2 (Theorem 5.1) and the budget
  double delta = 0.1;
  std::size_t intrinsic_dim = 0;   ///< 0 => k + ceil(4k/ε²) - 1
  std::size_t total_samples = 0;   ///< 0 => disss_sample_size(...)
  int significant_bits = 52;       ///< QT billing for coreset points
};

/// Runs the BKLW coreset construction over `parts` through `net`. The
/// result has `basis` set to the merged principal basis (t2 x d) and
/// Δ = 0, matching the paper's output (S, 0, w) — the Theorem 5.1 offset
/// exists but is an unknown constant that cancels in the argmin.
/// Source-side work accumulates into `device_work`. All three
/// collection rounds (disPCA's, disSS's cost and summary rounds) follow
/// net.round_policy(); a source dropped from the disPCA round may still
/// rejoin disSS, since the merged basis is broadcast to every site.
[[nodiscard]] Coreset bklw_coreset(std::span<const Dataset> parts,
                                   const BklwOptions& opts, Fabric& net,
                                   Stopwatch& device_work, std::uint64_t seed);

}  // namespace ekm
