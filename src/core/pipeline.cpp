#include "core/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/timer.hpp"
#include "core/calibration.hpp"
#include "cr/fss.hpp"
#include "kmeans/assign.hpp"
#include "distributed/bklw.hpp"
#include "dr/jl.hpp"
#include "dr/pca.hpp"
#include "net/summary_codec.hpp"
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

KMeansOptions solver_options(const PipelineConfig& cfg) {
  KMeansOptions opts;
  opts.k = cfg.k;
  opts.restarts = cfg.solver_restarts;
  opts.max_iters = cfg.solver_max_iters;
  opts.seed = derive_seed(cfg.seed, 0x501feULL);  // solver stream
  return opts;
}

/// Practical JL target dimension: the Theorem 3.1 form with a laptop
/// constant, clamped to [4, input_dim] (projecting *up* is never useful).
std::size_t practical_jl_dim(double epsilon, std::size_t n, std::size_t k,
                             double delta, std::size_t input_dim) {
  const double raw = std::ceil(
      4.0 * std::log(4.0 * static_cast<double>(n) * static_cast<double>(k) /
                     delta) /
      (epsilon * epsilon));
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(raw, 4.0)),
                                 4, std::max<std::size_t>(input_dim, 4));
}

/// Server side: weighted k-means in the summary's coordinate space, then
/// lift through the subspace basis if the summary carries one.
Matrix solve_summary(const Coreset& coreset, const PipelineConfig& cfg) {
  const KMeansResult res = kmeans(coreset.points, solver_options(cfg));
  if (coreset.basis) return matmul(res.centers, *coreset.basis);
  return res.centers;
}

/// Applies the rounding quantizer to the coreset's point coordinates
/// (only — weights, Δ and any basis stay full precision, §6 footnote 6).
void quantize_points(Coreset& coreset, int significant_bits) {
  if (significant_bits >= kDoubleSignificandBits) return;
  const RoundingQuantizer q(significant_bits);
  coreset.points = q.quantize(coreset.points);
}

/// Distributed variant of the refine_iters extension: classic distributed
/// Lloyd rounds seeded by the lifted centers. Per round each source
/// uplinks k x (d + 1) weighted sufficient statistics; the server merges.
Matrix refine_distributed(Matrix centers, std::span<const Dataset> parts,
                          Fabric& net, Stopwatch& device_work,
                          const PipelineConfig& cfg) {
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
        auto scope = device_work.measure();
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

PipelineResult finish_single_source(Coreset summary, Fabric& net,
                                    const PipelineConfig& cfg,
                                    const LinearMap* lift1,
                                    const LinearMap* lift2, double device_s,
                                    const Dataset& original) {
  // Transmit.
  net.uplink(0).send(encode_coreset(summary, cfg.significant_bits));
  // Server: decode, solve, lift back to the original space.
  const Coreset received = decode_coreset(net.uplink(0).receive());
  const LinearMap* wire_map = lift2 != nullptr ? lift2 : lift1;
  expect_summary_shape(received, wire_map != nullptr ? wire_map->output_dim()
                                                     : original.dim());
  Matrix centers = solve_summary(received, cfg);
  if (lift2 != nullptr) centers = lift2->lift(centers);
  if (lift1 != nullptr) centers = lift1->lift(centers);

  double refine_s = 0.0;
  if (cfg.refine_iters > 0) {
    // Extension (see PipelineConfig::refine_iters): server pushes the
    // lifted centers down; the device polishes them on its own data and
    // uplinks the final model.
    net.downlink(0).send(encode_matrix(centers));
    Timer timer;
    const Matrix pushed = decode_matrix(net.downlink(0).receive());
    expect_centers_shape("the device", pushed, cfg.k, original.dim());
    KMeansOptions ropts;
    ropts.k = pushed.rows();
    ropts.max_iters = cfg.refine_iters;
    ropts.restarts = 1;
    centers = lloyd(original, pushed, ropts).centers;
    refine_s = timer.seconds();
    net.uplink(0).send(encode_matrix(centers));
  }

  PipelineResult result;
  result.centers = std::move(centers);
  result.device_seconds = device_s + refine_s;
  result.uplink = net.total_uplink();
  result.downlink = net.total_downlink();
  result.summary_points = received.size();
  return result;
}

}  // namespace

const char* pipeline_name(PipelineKind kind) {
  switch (kind) {
    case PipelineKind::kNoReduction: return "NR";
    case PipelineKind::kFss: return "FSS";
    case PipelineKind::kJlFss: return "JL+FSS";
    case PipelineKind::kFssJl: return "FSS+JL";
    case PipelineKind::kJlFssJl: return "JL+FSS+JL";
    case PipelineKind::kBklw: return "BKLW";
    case PipelineKind::kJlBklw: return "JL+BKLW";
  }
  return "?";
}

bool pipeline_is_distributed(PipelineKind kind) {
  return kind == PipelineKind::kBklw || kind == PipelineKind::kJlBklw;
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
  const std::size_t n = data.size();
  const std::size_t d = data.dim();
  Rng rng = make_rng(cfg.seed, 0xc0ULL);

  switch (kind) {
    case PipelineKind::kNoReduction: {
      Timer timer;
      Matrix payload = data.points();
      if (cfg.significant_bits < kDoubleSignificandBits) {
        payload = RoundingQuantizer(cfg.significant_bits).quantize(payload);
      }
      const double device_s = timer.seconds();
      net.uplink(0).send(encode_matrix(payload, cfg.significant_bits));
      const Matrix raw = decode_matrix(net.uplink(0).receive());
      EKM_EXPECTS_MSG(raw.rows() == n && raw.cols() == d,
                      "NR: the source sent a matrix " + shape(raw) +
                          ", expected " + std::to_string(n) + "x" +
                          std::to_string(d));
      const KMeansResult res = kmeans(Dataset(raw), solver_options(cfg));

      PipelineResult result;
      result.centers = res.centers;
      result.device_seconds = device_s;
      result.uplink = net.total_uplink();
      result.summary_points = n;
      return result;
    }

    case PipelineKind::kFss: {
      const double eps = epsilon_for_fss(cfg.epsilon);
      Timer timer;
      Coreset cs = fss_coreset(data, fss_options(cfg, eps), rng);
      quantize_points(cs, cfg.significant_bits);
      const double device_s = timer.seconds();
      // The FSS summary ships basis + coordinates (Theorem 4.1's
      // O(kd/ε²) communication comes from the d x t basis).
      return finish_single_source(std::move(cs), net, cfg, nullptr, nullptr,
                                  device_s, data);
    }

    case PipelineKind::kJlFss: {  // Algorithm 1
      const double eps = epsilon_for_alg1(cfg.epsilon);
      const std::size_t d1 =
          cfg.jl_dim > 0 ? std::min(cfg.jl_dim, d)
                         : practical_jl_dim(eps, n, cfg.k, cfg.delta, d);
      const LinearMap pi1 = make_jl_projection(d, d1, cfg.seed);
      Timer timer;
      const Dataset projected = pi1.apply(data);
      Coreset cs = fss_coreset(projected, fss_options(cfg, eps), rng);
      quantize_points(cs, cfg.significant_bits);
      const double device_s = timer.seconds();
      return finish_single_source(std::move(cs), net, cfg, &pi1, nullptr,
                                  device_s, data);
    }

    case PipelineKind::kFssJl: {  // Algorithm 2
      const double eps = epsilon_for_alg2(cfg.epsilon);
      Timer timer;
      Coreset cs = fss_coreset(data, fss_options(cfg, eps), rng);
      // JL after CR: project the *ambient* coreset points; the basis
      // never crosses the wire.
      const Dataset ambient = cs.to_ambient();
      const std::size_t jl_override =
          cfg.jl_dim2 > 0 ? cfg.jl_dim2 : cfg.jl_dim;
      const std::size_t d2 =
          jl_override > 0
              ? std::min(jl_override, d)
              : practical_jl_dim(eps, std::max<std::size_t>(ambient.size(), 2),
                                 cfg.k, cfg.delta, d);
      const LinearMap pi1 = make_jl_projection(d, d2, cfg.seed);
      Coreset wire;
      wire.points = pi1.apply(ambient);
      wire.delta = cs.delta;
      quantize_points(wire, cfg.significant_bits);
      const double device_s = timer.seconds();
      return finish_single_source(std::move(wire), net, cfg, &pi1, nullptr,
                                  device_s, data);
    }

    case PipelineKind::kJlFssJl: {  // Algorithm 3
      const double eps = epsilon_for_alg3(cfg.epsilon);
      const std::size_t d1 =
          cfg.jl_dim > 0 ? std::min(cfg.jl_dim, d)
                         : practical_jl_dim(eps, n, cfg.k, cfg.delta, d);
      const LinearMap pi1 =
          make_jl_projection(d, d1, derive_seed(cfg.seed, 1));
      Timer timer;
      const Dataset projected = pi1.apply(data);
      Coreset cs = fss_coreset(projected, fss_options(cfg, eps), rng);
      const Dataset ambient = cs.to_ambient();  // in R^{d1}
      const std::size_t d2 =
          cfg.jl_dim2 > 0
              ? std::min(cfg.jl_dim2, d1)
              : practical_jl_dim(eps, std::max<std::size_t>(ambient.size(), 2),
                                 cfg.k, cfg.delta, d1);
      const LinearMap pi2 =
          make_jl_projection(d1, d2, derive_seed(cfg.seed, 2));
      Coreset wire;
      wire.points = pi2.apply(ambient);
      wire.delta = cs.delta;
      quantize_points(wire, cfg.significant_bits);
      const double device_s = timer.seconds();
      return finish_single_source(std::move(wire), net, cfg, &pi1, &pi2,
                                  device_s, data);
    }

    case PipelineKind::kBklw:
    case PipelineKind::kJlBklw:
      EKM_EXPECTS_MSG(false, "distributed pipeline requires parts");
  }
  return {};
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
  Stopwatch device_work;

  std::size_t n_total = 0;
  std::size_t d = 0;
  for (const Dataset& p : parts) {
    n_total += p.size();
    if (!p.empty()) d = p.dim();
  }
  EKM_EXPECTS(n_total > 0 && d > 0);

  switch (kind) {
    case PipelineKind::kNoReduction: {
      const RoundPolicy& policy = net.round_policy();
      // Only disSS narrows frames; the raw shards keep cfg's width.
      EKM_EXPECTS_MSG(policy.quant != QuantPolicy::kAdaptive,
                      "NR round: quant=adaptive is not supported; only "
                      "disSS coreset frames (bklw, jl+bklw) narrow");
      const RoundId round = net.open_round(policy.deadline_s);
      const bool qt = cfg.significant_bits < kDoubleSignificandBits;
      for (std::size_t i = 0; i < parts.size(); ++i) {
        // Without QT the shard is encoded where it lies.
        Matrix quantized;
        if (qt) {
          auto scope = device_work.measure();
          quantized = RoundingQuantizer(cfg.significant_bits)
                          .quantize(parts[i].points());
        }
        net.uplink(i).send(encode_matrix(qt ? quantized : parts[i].points(),
                                         cfg.significant_bits));
      }
      // Ship-everything is one collection round too: the server
      // clusters whatever raw shards made the deadline, joined once.
      std::vector<Dataset> shards;
      std::size_t responders = 0;
      for (std::size_t i = 0; i < parts.size(); ++i) {
        auto frame = net.uplink(i).receive_by(round);
        if (!frame.has_value()) continue;
        responders += 1;
        Matrix part = decode_matrix(*frame);
        if (part.rows() == 0) continue;
        EKM_EXPECTS_MSG(part.cols() == d,
                        "NR round: source " + std::to_string(i) + " sent " +
                            std::to_string(part.cols()) +
                            " columns, the round's dimension is " +
                            std::to_string(d));
        shards.emplace_back(std::move(part));
      }
      enforce_availability_floor(responders, policy.min_responders,
                                 "NR round", net.rounds_opened());
      EKM_ENSURES_MSG(!shards.empty(),
                      "no data source delivered before the round deadline");
      const KMeansResult res = kmeans(concatenate(shards), solver_options(cfg));
      PipelineResult result;
      result.centers = res.centers;
      result.device_seconds = device_work.total_seconds();
      result.uplink = net.total_uplink();
      result.downlink = net.total_downlink();
      result.summary_points = n_total;
      return result;
    }

    case PipelineKind::kBklw: {
      const double eps = epsilon_for_bklw(cfg.epsilon);
      Coreset cs = bklw_coreset(parts, bklw_options(cfg, eps), net,
                                device_work, cfg.seed);
      // QT on the server-held coreset is a no-op for communication (the
      // billing happened inside disSS); the points were quantized by each
      // source pre-transmission, which we reproduce here for the cost:
      if (cfg.significant_bits < kDoubleSignificandBits) {
        quantize_points(cs, cfg.significant_bits);
      }
      Matrix centers = solve_summary(cs, cfg);
      if (cfg.refine_iters > 0) {
        centers = refine_distributed(std::move(centers), parts, net,
                                     device_work, cfg);
      }
      PipelineResult result;
      result.centers = std::move(centers);
      result.device_seconds = device_work.total_seconds();
      result.uplink = net.total_uplink();
      result.downlink = net.total_downlink();
      result.summary_points = cs.size();
      return result;
    }

    case PipelineKind::kJlBklw: {  // Algorithm 4
      const double eps = epsilon_for_alg4(cfg.epsilon);
      const std::size_t d1 =
          cfg.jl_dim > 0 ? std::min(cfg.jl_dim, d)
                         : practical_jl_dim(eps, n_total, cfg.k, cfg.delta, d);
      // Data-oblivious: every source builds the same map from the shared
      // seed; nothing about pi1 crosses the network.
      const LinearMap pi1 = make_jl_projection(d, d1, cfg.seed);
      std::vector<Dataset> projected(parts.size());
      for (std::size_t i = 0; i < parts.size(); ++i) {
        if (parts[i].empty()) continue;
        auto scope = device_work.measure();
        projected[i] = pi1.apply(parts[i]);
      }
      Coreset cs = bklw_coreset(projected, bklw_options(cfg, eps), net,
                                device_work, cfg.seed);
      if (cfg.significant_bits < kDoubleSignificandBits) {
        quantize_points(cs, cfg.significant_bits);
      }
      Matrix centers = solve_summary(cs, cfg);  // lifts through V to R^{d1}
      centers = pi1.lift(centers);              // back to R^d
      if (cfg.refine_iters > 0) {
        centers = refine_distributed(std::move(centers), parts, net,
                                     device_work, cfg);
      }
      PipelineResult result;
      result.centers = std::move(centers);
      result.device_seconds = device_work.total_seconds();
      result.uplink = net.total_uplink();
      result.downlink = net.total_downlink();
      result.summary_points = cs.size();
      return result;
    }

    default:
      EKM_EXPECTS_MSG(false, "single-source pipeline requires run_pipeline");
  }
  return {};
}

}  // namespace ekm
