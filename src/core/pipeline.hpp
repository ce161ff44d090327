// The paper's communication-efficient k-means pipelines.
//
// Single data source (§4):
//   NR            — transmit the raw dataset (baseline of Tables 3–4)
//   FSS           — Theorem 4.1's benchmark: the FSS coreset, basis on the
//                   wire (communication O(kd/ε²))
//   JL+FSS        — Algorithm 1 (communication O(k log n/ε⁴), device ˜O(nd/ε²))
//   FSS+JL        — Algorithm 2 (communication ˜O(k³/ε⁶), device O(nd·min(n,d)))
//   JL+FSS+JL     — Algorithm 3 (communication ˜O(k³/ε⁶), device ˜O(nd/ε²))
// Multiple data sources (§5):
//   BKLW          — Theorem 5.3's benchmark (communication O(mkd/ε²))
//   JL+BKLW       — Algorithm 4 (communication O(mk log n/ε⁴))
// Quantization (§6) applies to any of the above via
// `significant_bits < 52`: the rounding quantizer Γ runs on the coreset
// points right before transmission, and the wire billing drops to
// 12 + s bits per point coordinate.
//
// Every kind runs one stage list, written once in pipeline.cpp; a table
// of constants says which stages a kind has:
//   source side: [JL₁] → CR → [JL₂] → QT, where CR is FSS for one
//                source, the BKLW protocol (disPCA, then disSS) for
//                several, and nothing for NR, whose collection round
//                ships the raw shards (one shard for a single source);
//   server side: decode → solve weighted k-means → lift → [refine], the
//                lift applying the coreset's basis, then JL₂⁺, then JL₁⁺.
// Each summary really crosses the fabric as encoded frames. Each stage
// opens one host span (obs/span.hpp): `dr`, `cr`, `qt`, `transport`,
// `server_solve`, `lift`, `refine`. The source-side spans feed the
// device time (see PipelineResult::device_seconds).
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "data/dataset.hpp"
#include "kmeans/lloyd.hpp"
#include "linalg/matrix.hpp"
#include "net/channel.hpp"

namespace ekm {

enum class PipelineKind {
  kNoReduction,
  kFss,
  kJlFss,      // Algorithm 1
  kFssJl,      // Algorithm 2
  kJlFssJl,    // Algorithm 3
  kBklw,
  kJlBklw,     // Algorithm 4
};

[[nodiscard]] const char* pipeline_name(PipelineKind kind);
[[nodiscard]] bool pipeline_is_distributed(PipelineKind kind);

struct PipelineConfig {
  std::size_t k = 2;
  /// Overall approximation target: the per-stage ε of each algorithm is
  /// derived via core/calibration so all pipelines aim at (1+epsilon).
  double epsilon = 0.5;
  double delta = 0.1;
  std::uint64_t seed = 1;  ///< master seed; also the shared JL seed
  int significant_bits = 52;  ///< QT setting (52 = off)

  /// Overrides (0 = derive from k/ε/δ per the paper's formulas). The
  /// experiments in §7 tune these so all algorithms land at similar
  /// empirical error, mirroring "we have tuned the parameters".
  std::size_t coreset_size = 0;
  std::size_t jl_dim = 0;   ///< first (pre-CR) JL target dimension
  std::size_t jl_dim2 = 0;  ///< post-CR JL target (Algs 2–3); 0 = derive
                            ///< from the coreset cardinality n' = |S|
  std::size_t pca_dim = 0;

  /// Server-side weighted k-means solver settings (k is taken from `k`).
  int solver_restarts = 5;
  int solver_max_iters = 100;

  /// Optional flight recorder (src/obs/; non-owning, may be null = the
  /// default). The Coordinator attaches it to the SimNetwork it builds,
  /// from where the phase scheduler, the simulator, and adaptive
  /// quantization reach it through Fabric::recorder(). Recording is
  /// side-effect-free: it never draws randomness, pushes events, or
  /// touches a numeric path, so centers, ledgers, energy, and the
  /// event log are bitwise identical with this set or null.
  Recorder* recorder = nullptr;

  /// Optional device-side center refinement (an extension beyond the
  /// paper's protocol; 0 = off = paper-faithful).
  ///
  /// The paper lifts projected centers back with a Moore–Penrose inverse
  /// (line 7 of Algorithms 1–3). The min-norm preimage drops the center
  /// component orthogonal to the projection's row space, which costs
  /// little at the paper's k = 2 but grows with k (the lost part is the
  /// between-cluster variance not captured by the random subspace). With
  /// refine_iters > 0 the device runs that many local Lloyd iterations
  /// from the lifted centers — recovering the induced partition's
  /// original-space centroids, the recovery the JL k-means theory
  /// actually supports — and uplinks the final k·d center scalars. Device
  /// cost O(nd·k·iters); uplink grows by k·(d+1) scalars per iteration
  /// (distributed) or k·d once (single source), all measured on the
  /// ledger.
  int refine_iters = 0;
};

struct PipelineResult {
  Matrix centers;             ///< k x d, in the ORIGINAL space
  /// Summed host seconds of the source-side windows; defined in
  /// docs/observability.md (device time).
  double device_seconds = 0;
  TrafficLedger uplink;       ///< measured source->server traffic
  TrafficLedger downlink;     ///< measured server->source traffic
  std::size_t summary_points = 0;  ///< |S| of the transmitted summary
};

/// The server's weighted k-means settings: k, the solver fields of
/// `config`, and a seed stream derived from config.seed.
[[nodiscard]] KMeansOptions server_solver_options(const PipelineConfig& config);

/// Runs a single-source pipeline (kNoReduction, kFss, kJlFss, kFssJl,
/// kJlFssJl) end to end through an idealized synchronous Network.
/// Precondition: !pipeline_is_distributed(kind).
[[nodiscard]] PipelineResult run_pipeline(PipelineKind kind, const Dataset& data,
                                          const PipelineConfig& config);

/// Same, but over a caller-provided one-source fabric.
/// Precondition: net.num_sources() == 1.
[[nodiscard]] PipelineResult run_pipeline(PipelineKind kind, const Dataset& data,
                                          const PipelineConfig& config,
                                          Fabric& net);

/// Runs a multi-source pipeline (kNoReduction, kBklw, kJlBklw) over one
/// dataset per source through an idealized synchronous Network.
/// Precondition: kind is kNoReduction or distributed.
[[nodiscard]] PipelineResult run_distributed_pipeline(
    PipelineKind kind, std::span<const Dataset> parts,
    const PipelineConfig& config);

/// Same, but over a caller-provided fabric — the synchronous Network or
/// the discrete-event SimNetwork (src/sim/). All frames, ledgers and
/// randomness are identical either way; only delivery timing differs.
/// Precondition: net.num_sources() == parts.size().
[[nodiscard]] PipelineResult run_distributed_pipeline(
    PipelineKind kind, std::span<const Dataset> parts,
    const PipelineConfig& config, Fabric& net);

}  // namespace ekm
