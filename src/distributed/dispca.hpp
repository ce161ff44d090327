// Distributed PCA (disPCA) — [Balcan–Kanchanapally–Liang–Woodruff,
// NIPS'14]; §5.1 of the paper, step 1 of BKLW.
//
// Each data source computes a local thin SVD A_i = U_i Σ_i V_i^T and
// uplinks the first t1 singular values and right singular vectors; the
// server stacks Y_i = Σ_i^(t1) (V_i^(t1))^T, computes a global SVD of Y
// and keeps the first t2 right singular vectors as the approximate
// principal subspace of ∪_i P_i (Theorem 5.1). The uplink cost
// m·(t1 + t1·d) scalars is what makes BKLW's communication linear in d.
#pragma once

#include <span>

#include "data/dataset.hpp"
#include "linalg/matrix.hpp"
#include "net/channel.hpp"
#include "obs/span.hpp"

namespace ekm {

struct DisPcaOptions {
  std::size_t t1 = 8;  ///< components each source uplinks
  std::size_t t2 = 8;  ///< components of the merged subspace
};

struct DisPcaResult {
  Matrix v;  ///< d x t2, orthonormal columns: the global principal basis
};

/// Runs disPCA over `parts` (one Dataset per source) through `net`.
/// Source-side computation (the local SVDs) is accumulated into
/// `device_work`; the server-side merge is not. The resulting basis is
/// also pushed down every downlink, mirroring the real protocol. The
/// collection round follows net.round_policy(): sources whose (Σ, V)
/// uplink misses its deadline are left out of the merged subspace, and
/// fewer than its min_responders throws.
[[nodiscard]] DisPcaResult dispca(std::span<const Dataset> parts,
                                  const DisPcaOptions& opts, Fabric& net,
                                  Stopwatch& device_work);

}  // namespace ekm
