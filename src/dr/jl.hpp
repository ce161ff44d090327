// Johnson–Lindenstrauss random projections (§3.2, Lemma 3.1 /
// Theorem 3.1 of the paper).
//
// The defining property exploited by the paper is data-obliviousness: the
// projection matrix depends only on (d, d', seed), so data sources and the
// server can generate identical maps from a shared seed and the matrix
// never crosses the wire (the decisive advantage over PCA in Table 2).
#pragma once

#include <cstddef>
#include <cstdint>

#include "dr/linear_map.hpp"

namespace ekm {

/// Random-matrix families satisfying the JL/sub-Gaussian conditions of
/// Theorem 3.1.
enum class JlFamily {
  kGaussian,    ///< i.i.d. N(0, 1/d') entries [Indyk–Motwani]
  kRademacher,  ///< ±1/sqrt(d') with equal probability [Achlioptas]
  kSparse,      ///< sqrt(3/d') x {+1, 0, 0, -1, 0, 0} [Achlioptas sparse]
};

/// The JL target dimension every JL pipeline uses when none is set: the
/// Theorem 3.1 form ceil(4 ln(4 n k / δ) / ε²) with a laptop constant,
/// clamped to [4, input_dim] (projecting *up* is never useful). Requires
/// ε, δ in (0, 1) and n_points, k >= 1.
[[nodiscard]] std::size_t jl_target_dim(double epsilon, std::size_t n_points,
                                        std::size_t k, double delta,
                                        std::size_t input_dim);

/// Deterministically generates the projection matrix for (d, d', seed).
/// Same arguments always yield the same map, on any node.
[[nodiscard]] LinearMap make_jl_projection(std::size_t input_dim,
                                           std::size_t output_dim,
                                           std::uint64_t seed,
                                           JlFamily family = JlFamily::kGaussian);

}  // namespace ekm
