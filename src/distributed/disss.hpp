// Distributed sensitivity sampling (disSS) — [Balcan–Ehrlich–Liang,
// NIPS'13]; §5.1 of the paper, step 2 of BKLW.
//
// Protocol (matching the paper's four-step description):
//  1. each source computes a local bicriteria solution X_i and uplinks
//     cost(P_i, X_i) — one scalar (footnote 1: negligible);
//  2. the server allocates the global sample budget proportionally to the
//     reported costs and downlinks s_i;
//  3. each source draws s_i points with probability ∝ cost({p}, X_i) and
//     uplinks S_i ∪ X_i with weights matching the per-cluster masses;
//  4. the union (∪_i (S_i ∪ X_i), 0, w) is the coreset at the server.
#pragma once

#include <span>

#include "common/rng.hpp"
#include "cr/coreset.hpp"
#include "data/dataset.hpp"
#include "kmeans/bicriteria.hpp"
#include "net/channel.hpp"
#include "obs/span.hpp"

namespace ekm {

struct DisSsOptions {
  std::size_t k = 2;
  std::size_t total_samples = 200;  ///< the paper's global budget s
  BicriteriaOptions bicriteria{};
  /// Billing width for uplinked coreset points (12 + s bits when a
  /// quantizer with s significand bits runs before transmission).
  int significant_bits = 52;
};

/// Runs disSS over `parts` through `net`; returns the server-side coreset
/// (no Δ, no basis — BKLW attaches the basis semantics). Source-side work
/// accumulates into `device_work`. Source i uses RNG stream i of `seed`.
///
/// The cost round and the summary round follow net.round_policy()
/// (src/sim/round_policy.hpp). A source that misses the cost round is
/// NAK'd out of the whole construction; a source that reported a cost
/// but misses the summary round loses only its sample mass — the
/// budget and weights are normalized over the cost-round responders
/// either way. With `reallocate` on, the lost allocation is re-split
/// ∝ cost among the responders in a second within-round wave (step
/// 4b), so the union keeps ≈ the full `total_samples` budget; under a
/// finite deadline the wave runs only when `realloc_reserve` schedules
/// a share of the round for it. `pipeline` opens the summary round on
/// the cost round's committed budget-split barrier, and `quant`
/// (kAdaptive) narrows a coreset frame whose full-width airtime cannot
/// fit the remaining round budget. A round with no misses never opens
/// a wave.
[[nodiscard]] Coreset disss(std::span<const Dataset> parts,
                            const DisSsOptions& opts, Fabric& net,
                            Stopwatch& device_work, std::uint64_t seed);

/// Heuristic global sample budget mirroring Theorem 5.2's
/// O(ε⁻⁴(kd' + log 1/δ) + mk log(mk/δ)) at laptop-scale constants.
[[nodiscard]] std::size_t disss_sample_size(std::size_t k, double epsilon,
                                            double delta, std::size_t m,
                                            std::size_t n);

}  // namespace ekm
