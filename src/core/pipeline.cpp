#include "core/pipeline.hpp"

#include <algorithm>
#include <optional>
#include <string>

#include "core/calibration.hpp"
#include "cr/fss.hpp"
#include "distributed/bklw.hpp"
#include "dr/jl.hpp"
#include "kmeans/assign.hpp"
#include "net/summary_codec.hpp"
#include "obs/span.hpp"
#include "qt/quantizer.hpp"

namespace ekm {
namespace {

std::string shape(const Matrix& m) {
  return std::to_string(m.rows()) + "x" + std::to_string(m.cols());
}

// The decoders do not know the shapes a receive expects, so each receive
// checks its frame before a wrong shape reaches a solve or a lift.

// Pushed centers are j x d with 1 <= j <= k: the server's solve keeps
// fewer than k centers when its summary has fewer points.
void expect_centers_shape(const std::string& site, const Matrix& centers,
                          std::size_t k, std::size_t d) {
  EKM_EXPECTS_MSG(centers.rows() >= 1 && centers.rows() <= k &&
                      centers.cols() == d,
                  "refine round: " + site + " received centers " +
                      shape(centers) + ", expected centers jx" +
                      std::to_string(d) + " with 1 <= j <= " +
                      std::to_string(k));
}

// A single-source summary is points of the wire's width w and no basis,
// or coordinates in a basis t x w.
void expect_summary_shape(const Coreset& summary, std::size_t w) {
  const std::size_t cols = summary.points.dim();
  const bool ok = summary.size() >= 1 &&
                  (summary.basis ? summary.basis->rows() == cols &&
                                       summary.basis->cols() == w
                                 : cols == w);
  EKM_EXPECTS_MSG(
      ok, "single-source summary: the source sent points " +
              std::to_string(summary.size()) + "x" + std::to_string(cols) +
              (summary.basis ? " in a basis " + shape(*summary.basis)
                             : std::string(" and no basis")) +
              ", expected points mx" + std::to_string(w) +
              ", or coordinates in a basis tx" + std::to_string(w));
}

/// What runs at the sources between the JL maps: nothing (NR ships the
/// raw shards), the FSS coreset of one source, or the BKLW protocol over
/// several.
enum class Cr { kNone, kFss, kBklw };

/// One kind's stage list, as constants (see pipeline.hpp).
struct Stages {
  const char* name;
  Cr cr;
  double (*epsilon)(double);  ///< the calibrated per-stage ε; null for NR
  bool jl1;                   ///< JL₁ runs before CR
  bool jl2;                   ///< JL₂ runs after CR
  /// JL₁ and JL₂ draw from derive_seed(seed, 1) and (seed, 2); otherwise
  /// a kind's one map draws from the master seed itself.
  bool derived_seeds;
};

const Stages& stages(PipelineKind kind) {
  static constexpr Stages kTable[] = {
      {"NR", Cr::kNone, nullptr, false, false, false},
      {"FSS", Cr::kFss, epsilon_for_fss, false, false, false},
      {"JL+FSS", Cr::kFss, epsilon_for_alg1, true, false, false},
      {"FSS+JL", Cr::kFss, epsilon_for_alg2, false, true, false},
      {"JL+FSS+JL", Cr::kFss, epsilon_for_alg3, true, true, true},
      {"BKLW", Cr::kBklw, epsilon_for_bklw, false, false, false},
      {"JL+BKLW", Cr::kBklw, epsilon_for_alg4, true, false, false},
  };
  return kTable[static_cast<std::size_t>(kind)];
}

std::uint64_t jl_seed(const Stages& st, const PipelineConfig& cfg,
                      std::uint64_t stream) {
  return st.derived_seeds ? derive_seed(cfg.seed, stream) : cfg.seed;
}

/// A map's target dimension: the requested one, capped at its input
/// width, else the practical rule over n points.
std::size_t jl_dim(std::size_t requested, double eps, std::size_t n,
                   const PipelineConfig& cfg, std::size_t input_dim) {
  return requested > 0 ? std::min(requested, input_dim)
                       : jl_target_dim(eps, n, cfg.k, cfg.delta, input_dim);
}

bool quantizes(const PipelineConfig& cfg) {
  return cfg.significant_bits < kDoubleSignificandBits;
}

FssOptions fss_options(const PipelineConfig& cfg, double stage_epsilon) {
  FssOptions fo;
  fo.k = cfg.k;
  fo.epsilon = stage_epsilon;
  fo.delta = cfg.delta;
  fo.sample_size = cfg.coreset_size;
  fo.intrinsic_dim = cfg.pca_dim;
  return fo;
}

BklwOptions bklw_options(const PipelineConfig& cfg, double stage_epsilon) {
  BklwOptions bo;
  bo.k = cfg.k;
  bo.epsilon = stage_epsilon;
  bo.delta = cfg.delta;
  bo.intrinsic_dim = cfg.pca_dim;
  bo.total_samples = cfg.coreset_size;
  bo.significant_bits = cfg.significant_bits;
  return bo;
}

/// What the server holds once the source side and the transport are
/// done: a coreset in the wire's coordinates (NR: the joined shards) and
/// the maps its centers lift back through.
struct Summary {
  Coreset coreset;
  std::optional<LinearMap> jl1;
  std::optional<LinearMap> jl2;
};

/// NR: every source ships its raw shard, quantized if QT is on, in one
/// collection round; the server joins the shards that made the deadline.
/// Each frame's header is checked against its shard before any of its
/// cells are read, and the cells then decode straight into their rows of
/// the one joined matrix.
Summary nr_round(std::span<const Dataset> parts, std::size_t n,
                 std::size_t d, const PipelineConfig& cfg, Fabric& net,
                 Stopwatch& device) {
  const RoundPolicy& policy = net.round_policy();
  // Only disSS narrows frames; the raw shards keep cfg's width.
  EKM_EXPECTS_MSG(policy.quant != QuantPolicy::kAdaptive,
                  "NR round: quant=adaptive is not supported; only "
                  "disSS coreset frames (bklw, jl+bklw) narrow");
  const WallSpan span("transport");
  const RoundId round = net.open_round(policy.deadline_s);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    // Without QT the shard is encoded where it lies.
    Matrix quantized;
    if (quantizes(cfg)) {
      const WallSpan qt("qt", &device);
      quantized =
          RoundingQuantizer(cfg.significant_bits).quantize(parts[i].points());
    }
    net.uplink(i).send(encode_matrix(
        quantizes(cfg) ? quantized : parts[i].points(), cfg.significant_bits));
  }
  std::vector<double> cells;
  cells.reserve(n * d);  // address space only; rows that arrive fill it
  std::size_t rows = 0;
  std::size_t responders = 0;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    auto frame = net.uplink(i).receive_by(round);
    if (!frame.has_value()) continue;
    responders += 1;
    const MatrixShape got = matrix_frame_shape(*frame);
    if (got.rows == 0 && parts[i].empty()) continue;
    EKM_EXPECTS_MSG(got.cols == d,
                    "NR round: source " + std::to_string(i) + " sent " +
                        std::to_string(got.cols) +
                        " columns, the round's dimension is " +
                        std::to_string(d));
    EKM_EXPECTS_MSG(got.rows == parts[i].size(),
                    "NR round: source " + std::to_string(i) +
                        " sent a matrix " + std::to_string(got.rows) + "x" +
                        std::to_string(got.cols) + ", expected " +
                        std::to_string(parts[i].size()) + "x" +
                        std::to_string(d));
    (void)append_matrix_cells(*frame, cells);
    rows += got.rows;
  }
  enforce_availability_floor(responders, policy.min_responders, "NR round",
                             net.rounds_opened());
  EKM_ENSURES_MSG(rows > 0,
                  "no data source delivered before the round deadline");
  Summary out;
  out.coreset.points = Dataset(Matrix(rows, d, std::move(cells)));
  return out;
}

/// One source: [JL₁] → FSS → [JL₂] → QT; then the summary crosses the
/// uplink, and the server decodes and checks it.
Summary fss_side(const Dataset& data, const Stages& st, double eps,
                 const PipelineConfig& cfg, Fabric& net, Stopwatch& device) {
  Summary out;
  Rng rng = make_rng(cfg.seed, 0xc0ULL);
  Dataset projected;
  if (st.jl1) {
    const WallSpan span("dr", &device);
    out.jl1 = make_jl_projection(
        data.dim(), jl_dim(cfg.jl_dim, eps, data.size(), cfg, data.dim()),
        jl_seed(st, cfg, 1));
    projected = out.jl1->apply(data);
  }
  Coreset cs;
  {
    const WallSpan span("cr", &device);
    cs = fss_coreset(st.jl1 ? projected : data, fss_options(cfg, eps), rng);
  }
  if (st.jl2) {
    // JL after CR projects the *ambient* coreset points: the basis never
    // crosses the wire. jl_dim names a kind's first map and jl_dim2 its
    // second, so FSS+JL's only map reads jl_dim2, else jl_dim.
    const WallSpan span("dr", &device);
    const Dataset ambient = cs.to_ambient();
    const std::size_t requested =
        cfg.jl_dim2 > 0 ? cfg.jl_dim2 : st.jl1 ? 0 : cfg.jl_dim;
    out.jl2 = make_jl_projection(
        ambient.dim(),
        jl_dim(requested, eps, std::max<std::size_t>(ambient.size(), 2), cfg,
               ambient.dim()),
        jl_seed(st, cfg, 2));
    Coreset wire;
    wire.points = out.jl2->apply(ambient);
    wire.delta = cs.delta;
    cs = std::move(wire);
  }
  if (quantizes(cfg)) {
    // Γ rounds the point coordinates only: weights, Δ and any basis stay
    // full precision (§6 footnote 6).
    const WallSpan span("qt", &device);
    cs.points = RoundingQuantizer(cfg.significant_bits).quantize(cs.points);
  }
  const WallSpan span("transport");
  net.uplink(0).send(encode_coreset(cs, cfg.significant_bits));
  out.coreset = decode_coreset(net.uplink(0).receive());
  const LinearMap* wire_map =
      out.jl2 ? &*out.jl2 : out.jl1 ? &*out.jl1 : nullptr;
  expect_summary_shape(
      out.coreset, wire_map != nullptr ? wire_map->output_dim() : data.dim());
  return out;
}

/// Several sources: [JL₁] at each source, then the BKLW protocol (disPCA,
/// then disSS, which ships each source's coreset).
Summary bklw_side(std::span<const Dataset> parts, std::size_t n,
                  std::size_t d, const Stages& st, double eps,
                  const PipelineConfig& cfg, Fabric& net, Stopwatch& device) {
  Summary out;
  std::vector<Dataset> projected;
  if (st.jl1) {
    // Data-oblivious: every source builds the same map from the shared
    // seed; nothing about it crosses the network.
    const WallSpan span("dr", &device);
    out.jl1 = make_jl_projection(d, jl_dim(cfg.jl_dim, eps, n, cfg, d),
                                 jl_seed(st, cfg, 1));
    projected.resize(parts.size());
    for (std::size_t i = 0; i < parts.size(); ++i) {
      if (!parts[i].empty()) projected[i] = out.jl1->apply(parts[i]);
    }
  }
  Coreset& cs = out.coreset;
  {
    const WallSpan span("cr");
    cs = bklw_coreset(st.jl1 ? std::span<const Dataset>(projected) : parts,
                      bklw_options(cfg, eps), net, device, cfg.seed);
  }
  if (quantizes(cfg)) {
    // QT on the server-held coreset is a no-op for communication (disSS
    // billed it); the sources quantize before transmission, which this
    // reproduces for the cost.
    const WallSpan span("qt");
    cs.points = RoundingQuantizer(cfg.significant_bits).quantize(cs.points);
  }
  return out;
}

/// The single-source refine (PipelineConfig::refine_iters): the server
/// pushes the lifted centers down; the device polishes them on its own
/// data and uplinks the final model.
Matrix refine_on_device(const Matrix& centers, const Dataset& data,
                        Fabric& net, Stopwatch& device,
                        const PipelineConfig& cfg) {
  net.downlink(0).send(encode_matrix(centers));
  Matrix refined;
  {
    const WallSpan span("refine", &device);
    const Matrix pushed = decode_matrix(net.downlink(0).receive());
    expect_centers_shape("the device", pushed, cfg.k, data.dim());
    KMeansOptions ropts;
    ropts.k = pushed.rows();
    ropts.max_iters = cfg.refine_iters;
    ropts.restarts = 1;
    refined = lloyd(data, pushed, ropts).centers;
  }
  net.uplink(0).send(encode_matrix(refined));
  return refined;
}

/// The distributed refine: classic distributed Lloyd rounds seeded by the
/// lifted centers. Per round each source uplinks k x (d + 1) weighted
/// sufficient statistics; the server merges.
Matrix refine_distributed(Matrix centers, std::span<const Dataset> parts,
                          Fabric& net, Stopwatch& device,
                          const PipelineConfig& cfg) {
  const WallSpan span("refine");
  const std::size_t k = centers.rows();
  const std::size_t d = centers.cols();
  const RoundPolicy& policy = net.round_policy();
  // Shard points never change across refine rounds; norms hoisted.
  std::vector<std::vector<double>> shard_norms(parts.size());
  for (std::size_t i = 0; i < parts.size(); ++i) {
    shard_norms[i] = row_sq_norms(parts[i].points());
  }
  for (int iter = 0; iter < cfg.refine_iters; ++iter) {
    for (std::size_t i = 0; i < parts.size(); ++i) {
      net.downlink(i).send(encode_matrix(centers));
    }
    // Each refine iteration is one deadline-driven collection round:
    // stragglers' sufficient statistics are left out, and the center
    // update divides by the responding mass only (FedAvg-style).
    const RoundId round = net.open_round(policy.deadline_s);
    Matrix sums(k, d);
    std::vector<double> mass(k, 0.0);
    std::vector<char> sent(parts.size(), 0);
    for (std::size_t i = 0; i < parts.size(); ++i) {
      Matrix stats(k, d + 1);  // row c: [weighted sum | weighted count]
      {
        const WallSpan window(device);
        auto pushed_frame = net.downlink(i).receive_by(kNoRound);
        if (!pushed_frame.has_value()) continue;  // lost the broadcast
        if (!parts[i].empty()) {
          const Matrix pushed = decode_matrix(*pushed_frame);
          expect_centers_shape("source " + std::to_string(i), pushed, k,
                               parts[i].dim());
          // Batched assignment of the whole shard, then a serial
          // sufficient-statistics accumulation (order-deterministic).
          std::vector<std::size_t> assign(parts[i].size());
          assign_batch_into(parts[i].points(), pushed, assign, {},
                            shard_norms[i]);
          for (std::size_t p = 0; p < parts[i].size(); ++p) {
            const double* point = parts[i].points().row_ptr(p);
            const double w = parts[i].weight(p);
            auto row = stats.row(assign[p]);
            for (std::size_t j = 0; j < d; ++j) row[j] += w * point[j];
            row[d] += w;
          }
        }
      }
      net.uplink(i).send(encode_matrix(stats));
      sent[i] = 1;
    }
    std::size_t responders = 0;
    for (std::size_t i = 0; i < parts.size(); ++i) {
      if (!sent[i]) continue;
      auto frame = net.uplink(i).receive_by(round);
      if (!frame.has_value()) continue;
      responders += 1;
      const Matrix stats = decode_matrix(*frame);
      EKM_EXPECTS_MSG(stats.rows() == k && stats.cols() == d + 1,
                      "refine round: source " + std::to_string(i) +
                          " sent statistics " + shape(stats) + ", expected " +
                          std::to_string(k) + "x" + std::to_string(d + 1));
      for (std::size_t c = 0; c < k; ++c) {
        auto src = stats.row(c);
        auto dst = sums.row(c);
        for (std::size_t j = 0; j < d; ++j) dst[j] += src[j];
        mass[c] += src[d];
      }
    }
    enforce_availability_floor(responders, policy.min_responders,
                               "refine round", net.rounds_opened());
    for (std::size_t c = 0; c < k; ++c) {
      if (mass[c] > 0.0) {
        auto row = centers.row(c);
        auto s = sums.row(c);
        for (std::size_t j = 0; j < d; ++j) row[j] = s[j] / mass[c];
      }
    }
  }
  return centers;
}

/// The stage driver: one source side per CR, then the one server side.
PipelineResult drive(PipelineKind kind, std::span<const Dataset> parts,
                     const PipelineConfig& cfg, Fabric& net) {
  std::size_t n = 0;
  std::size_t d = 0;
  for (const Dataset& p : parts) {
    n += p.size();
    if (!p.empty()) d = p.dim();
  }
  EKM_EXPECTS(n > 0 && d > 0);
  const Stages& st = stages(kind);
  const double eps = st.epsilon != nullptr ? st.epsilon(cfg.epsilon) : 0.0;
  Stopwatch device;
  Summary summary =
      st.cr == Cr::kNone  ? nr_round(parts, n, d, cfg, net, device)
      : st.cr == Cr::kFss ? fss_side(parts[0], st, eps, cfg, net, device)
                          : bklw_side(parts, n, d, st, eps, cfg, net, device);

  Matrix centers;
  {
    const WallSpan span("server_solve");
    centers =
        kmeans(summary.coreset.points, server_solver_options(cfg)).centers;
  }
  {
    // Back to R^d: the coreset's basis, then JL₂⁺, then JL₁⁺.
    const WallSpan span("lift");
    const std::optional<Matrix>& basis = summary.coreset.basis;
    if (basis) centers = matmul(centers, *basis);
    if (summary.jl2) centers = summary.jl2->lift(centers);
    if (summary.jl1) centers = summary.jl1->lift(centers);
  }
  if (cfg.refine_iters > 0 && st.cr == Cr::kFss) {
    centers = refine_on_device(centers, parts[0], net, device, cfg);
  }
  if (cfg.refine_iters > 0 && st.cr == Cr::kBklw) {
    centers = refine_distributed(std::move(centers), parts, net, device, cfg);
  }

  PipelineResult result;
  result.centers = std::move(centers);
  result.device_seconds = device.total_seconds();
  result.uplink = net.total_uplink();
  result.downlink = net.total_downlink();
  result.summary_points = summary.coreset.size();
  return result;
}

}  // namespace

const char* pipeline_name(PipelineKind kind) { return stages(kind).name; }

bool pipeline_is_distributed(PipelineKind kind) {
  return stages(kind).cr == Cr::kBklw;
}

KMeansOptions server_solver_options(const PipelineConfig& cfg) {
  KMeansOptions opts;
  opts.k = cfg.k;
  opts.restarts = cfg.solver_restarts;
  opts.max_iters = cfg.solver_max_iters;
  opts.seed = derive_seed(cfg.seed, 0x501feULL);  // solver stream
  return opts;
}

PipelineResult run_pipeline(PipelineKind kind, const Dataset& data,
                            const PipelineConfig& cfg) {
  Network net(1);
  return run_pipeline(kind, data, cfg, net);
}

PipelineResult run_pipeline(PipelineKind kind, const Dataset& data,
                            const PipelineConfig& cfg, Fabric& net) {
  EKM_EXPECTS(!pipeline_is_distributed(kind));
  EKM_EXPECTS(!data.empty());
  EKM_EXPECTS(cfg.k >= 1);
  EKM_EXPECTS(net.num_sources() == 1);
  return drive(kind, std::span<const Dataset>(&data, 1), cfg, net);
}

PipelineResult run_distributed_pipeline(PipelineKind kind,
                                        std::span<const Dataset> parts,
                                        const PipelineConfig& cfg) {
  EKM_EXPECTS(!parts.empty());
  Network net(parts.size());
  return run_distributed_pipeline(kind, parts, cfg, net);
}

PipelineResult run_distributed_pipeline(PipelineKind kind,
                                        std::span<const Dataset> parts,
                                        const PipelineConfig& cfg, Fabric& net) {
  EKM_EXPECTS(!parts.empty());
  EKM_EXPECTS(kind == PipelineKind::kNoReduction || pipeline_is_distributed(kind));
  EKM_EXPECTS(net.num_sources() == parts.size());
  return drive(kind, parts, cfg, net);
}

}  // namespace ekm
