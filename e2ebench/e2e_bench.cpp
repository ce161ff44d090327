// End-to-end benchmark of the paper's pipelines (see README.md here).
//
//   e2e_bench --workload bklw_mnist|nr_mnist|fleet_sim --seed N
//             --seconds S --trace 0|1
//
// Closed loop: one process runs one pipeline at a time, from partitioned
// raw shards to final centers in the original space. Inputs come only
// from the synthetic generators, seeded from --seed.
//
// --trace 0 covers a few problem instances derived from the seed. Each
// is set up (setup_s is the median set-up), then its pipeline repeats
// until its share of --seconds of pipeline time has passed, and at
// least the workload's minimum number of times; e2e_s is the fastest
// run of each instance, averaged over the instances. Every run's
// centers and quality numbers are checked; a run that throws or fails a
// check is counted as failed and the loop goes on.
//
// --trace 1 sets up the seed's own instance once, runs the pipeline
// (and, over a SimNetwork, once more with event retention on), then
// replays each layer's public functions on the inputs the pipeline
// passes them, one span per call, and finally re-runs the pipeline on a
// 1-thread pool, whose centers must equal the full pool's bit for bit.
// The spans go to trace_<workload>_<seed>.json in the working directory.
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}; the lines before it are a human-readable report.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "cr/sensitivity.hpp"
#include "data/dataset.hpp"
#include "data/generators.hpp"
#include "dr/jl.hpp"
#include "kmeans/assign.hpp"
#include "kmeans/bicriteria.hpp"
#include "kmeans/cost.hpp"
#include "kmeans/lloyd.hpp"
#include "linalg/eigen_sym.hpp"
#include "linalg/svd.hpp"
#include "net/summary_codec.hpp"
#include "qt/quantizer.hpp"
#include "sim/coordinator.hpp"
#include "sim/scenario.hpp"
#include "span_log.hpp"

namespace e2ebench {
namespace {

using namespace ekm;

// ---- workloads -------------------------------------------------------------

struct Workload {
  std::string name;
  PipelineKind pipeline;
  bool simulated;       ///< over a SimNetwork (Coordinator::run)
  std::size_t n;        ///< points in total
  std::size_t d;
  std::size_t k;
  std::size_t sources;  ///< data sources (sites)
  /// Problem instances per --trace 0 run, each with its own inputs
  /// derived from the seed. Where the work depends on the instance (the
  /// fleet's fault realization, Lloyd's convergence), e2e_s averages
  /// over several of them.
  std::size_t instances;
  /// Full set-ups (with the X* solve; timed as setup_s) per --trace 0
  /// run, spread evenly over the first instances; an instance set up
  /// more than once must come out identical. Instances beyond them get
  /// data and shards only, and no norm_cost: the X* solve costs as much
  /// as a run on the MNIST data.
  std::size_t setups;
  /// Fewest runs of each instance, however long they take.
  std::size_t min_runs;
};

// MNIST-like at the paper's shape: d = 784, 10 classes, 10 sources.
constexpr std::size_t kMnistN = 20000;
// Fleet: thousands of sites with small shards of a d = 64 mixture.
constexpr std::size_t kFleetSites = 4096;
constexpr std::size_t kFleetPointsPerSite = 16;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"bklw_mnist", PipelineKind::kBklw, false, kMnistN, 784, 10, 10, 1, 2, 2},
      {"nr_mnist", PipelineKind::kNoReduction, false, kMnistN, 784, 10, 10, 8, 2, 1},
      {"fleet_sim", PipelineKind::kJlBklw, true,
       kFleetSites * kFleetPointsPerSite, 64, 4, kFleetSites, 8, 8, 1},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

bool is_mnist(const Workload& w) { return !w.simulated; }

/// Seed of instance `i` of a run; instance 0 is the run's own seed.
std::uint64_t instance_seed(std::uint64_t seed, std::size_t i) {
  return i == 0 ? seed : derive_seed(seed, 0x1257a0ULL + i);
}

PipelineConfig pipeline_config(const Workload& w, std::uint64_t seed) {
  PipelineConfig cfg;
  cfg.k = w.k;
  cfg.epsilon = 0.3;
  cfg.seed = seed;
  if (is_mnist(w)) {
    cfg.coreset_size = 300;  // the CLI's defaults
    cfg.pca_dim = 16;
  } else {
    cfg.coreset_size = 2 * w.sources;
    cfg.jl_dim = 16;
    cfg.pca_dim = 8;
    cfg.significant_bits = 24;  // QT on; quant=adaptive narrows further
  }
  return cfg;
}

/// Faulty star fleet: deadline-fleet's loss, stragglers and 8 s rounds,
/// adaptive quantization and cross-round pipelining. Event retention is
/// on only in the traced run (it feeds sim.events).
SimScenario fleet_scenario(std::uint64_t seed, bool retain_events) {
  SimScenario s = parse_scenario("deadline-fleet,quant=adaptive,pipeline=on");
  s.seed = seed;
  s.event_log_limit =
      retain_events ? std::numeric_limits<std::size_t>::max() : 0;
  return s;
}

/// The server's solver settings, as the pipeline derives them.
KMeansOptions solver_options(const PipelineConfig& cfg) {
  KMeansOptions opts;
  opts.k = cfg.k;
  opts.restarts = cfg.solver_restarts;
  opts.max_iters = cfg.solver_max_iters;
  opts.seed = derive_seed(cfg.seed, 0x501feULL);
  return opts;
}

// ---- set-up ----------------------------------------------------------------

struct Inputs {
  Dataset data;
  std::vector<Dataset> parts;
  std::optional<double> reference_cost;  ///< cost(P, X*), if solved
};

/// Data generation, random partition, and (if `reference`) the solve X*
/// that normalizes cost. Each step runs under a span when `log` is
/// non-null.
Inputs make_inputs(const Workload& w, std::uint64_t seed, SpanLog* log,
                   bool reference) {
  auto timed = [log](const char* name, auto&& fn) {
    if (log == nullptr) return fn();
    auto span = log->span(name);
    return fn();
  };
  Inputs in;
  in.data = timed("data.generate", [&] {
    Rng rng = make_rng(seed, 0xdadaULL);
    if (is_mnist(w)) {
      MnistLikeSpec spec;
      spec.n = w.n;
      spec.dim = w.d;
      return make_mnist_like(spec, rng);
    }
    GaussianMixtureSpec spec;
    spec.n = w.n;
    spec.dim = w.d;
    spec.k = w.k;
    return make_gaussian_mixture(spec, rng);
  });
  in.parts = timed("data.partition", [&] {
    Rng rng = make_rng(seed, 0x9a87ULL);
    return partition_random(in.data, w.sources, rng);
  });
  if (!reference) return in;
  in.reference_cost = timed("kmeans.reference", [&] {
    KMeansOptions opts;
    opts.k = w.k;
    opts.seed = derive_seed(seed, 0x4efULL);
    return kmeans_cost(in.data, kmeans(in.data, opts).centers);
  });
  return in;
}

// ---- one pipeline run ------------------------------------------------------

struct RunOutcome {
  Matrix centers;
  double e2e_s = 0.0;
  double device_s = 0.0;
  std::uint64_t uplink_bits = 0;
  // Simulated runs only.
  double virtual_completion_s = 0.0;
  double energy_j = 0.0;
  std::uint64_t retransmit_bits = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t queue_high_water = 0;
  std::uint64_t events = 0;
};

RunOutcome run_once(const Workload& w, const Inputs& in, std::uint64_t seed,
                    bool retain_events) {
  const PipelineConfig cfg = pipeline_config(w, seed);
  RunOutcome out;
  if (!w.simulated) {
    const Clock::time_point t0 = Clock::now();
    PipelineResult res = run_distributed_pipeline(w.pipeline, in.parts, cfg);
    out.e2e_s = seconds_since(t0);
    out.centers = std::move(res.centers);
    out.device_s = res.device_seconds;
    out.uplink_bits = res.uplink.bits;
    return out;
  }
  const Coordinator coord(fleet_scenario(seed, retain_events));
  const Clock::time_point t0 = Clock::now();
  SimReport rep = coord.run(w.pipeline, in.parts, cfg);
  out.e2e_s = seconds_since(t0);
  out.centers = std::move(rep.result.centers);
  out.device_s = rep.result.device_seconds;
  out.uplink_bits = rep.result.uplink.bits;
  out.virtual_completion_s = rep.server_completion_seconds;
  out.energy_j = rep.energy_joules;
  out.retransmit_bits =
      rep.uplink_stats.retransmit_bits + rep.downlink_stats.retransmit_bits;
  out.deadline_misses = rep.deadline_misses;
  out.queue_high_water = rep.queue_high_water;
  out.events = rep.event_log.size();
  return out;
}

struct Quality {
  std::optional<double> norm_cost;  ///< where the set-up solved X*
  double norm_uplink_bits = 0.0;
};

Quality quality(const Workload& w, const Inputs& in, const RunOutcome& o) {
  Quality q;
  if (in.reference_cost) {
    q.norm_cost = kmeans_cost(in.data, o.centers) / *in.reference_cost;
  }
  q.norm_uplink_bits = static_cast<double>(o.uplink_bits) /
                       (static_cast<double>(w.n) * static_cast<double>(w.d) * 64.0);
  return q;
}

/// Empty when the run's outputs pass; otherwise the reason.
std::string check_run(const Workload& w, const RunOutcome& o, const Quality& q) {
  if (o.centers.rows() != w.k || o.centers.cols() != w.d) {
    return "centers are " + std::to_string(o.centers.rows()) + "x" +
           std::to_string(o.centers.cols()) + ", expected " +
           std::to_string(w.k) + "x" + std::to_string(w.d);
  }
  for (double v : o.centers.flat()) {
    if (!std::isfinite(v)) return "non-finite center coordinate";
  }
  if (q.norm_cost && !(std::isfinite(*q.norm_cost) && *q.norm_cost > 0.0)) {
    return "norm_cost not finite and positive";
  }
  if (!std::isfinite(q.norm_uplink_bits) || q.norm_uplink_bits <= 0.0) {
    return "norm_uplink_bits not finite and positive";
  }
  return {};
}

/// Empty when `b` reproduces `a` exactly (centers bit for bit, and the
/// same quality numbers); otherwise the reason.
std::string check_same(const RunOutcome& a, const Quality& qa,
                       const RunOutcome& b, const Quality& qb,
                       const char* what) {
  if (!(a.centers == b.centers)) return std::string(what) + ": centers differ";
  if (qa.norm_cost != qb.norm_cost) return std::string(what) + ": norm_cost differs";
  if (qa.norm_uplink_bits != qb.norm_uplink_bits) {
    return std::string(what) + ": norm_uplink_bits differs";
  }
  return {};
}

// ---- report ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Human-readable table of both lists, then the one-line JSON result,
/// which carries only `reported`.
void print_result(const std::vector<Metric>& reported,
                  const std::vector<Metric>& printed_only, bool correct,
                  std::size_t attempted, std::size_t failed) {
  std::printf("%-26s %20s  %s\n", "metric", "value", "unit");
  for (const auto* list : {&reported, &printed_only}) {
    for (const Metric& m : *list) {
      std::printf("%-26s %20.6f  %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < reported.size(); ++i) {
    const Metric& m = reported[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

// ---- untraced run: the end-to-end metrics -----------------------------------

int run_untraced(const Workload& w, std::uint64_t seed, double seconds) {
  const std::size_t setups_each = std::max<std::size_t>(1, w.setups / w.instances);
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t passed = 0;
  std::vector<double> setup_s;
  std::vector<double> e2e_s;  // every passing run, for the report
  // Means over instances: the fastest run's time, and the first passing
  // run's figures.
  double fastest_s = 0.0;
  double norm_cost = 0.0, norm_bits = 0.0, device_s = 0.0;
  double completion_s = 0.0, energy_j = 0.0;
  std::size_t costed = 0;  // instances with a norm_cost
  double loop_s = 0.0;  // time spent in the run loops, set-ups excluded
  for (std::size_t i = 0; i < w.instances; ++i) {
    const std::uint64_t s = instance_seed(seed, i);
    // Only the first `setups` instances get the full, timed set-up.
    const bool full = i < w.setups;
    Inputs in;
    for (std::size_t r = 0; r < (full ? setups_each : 1); ++r) {
      const Clock::time_point t0 = Clock::now();
      Inputs next = make_inputs(w, s, nullptr, full);
      if (full) setup_s.push_back(seconds_since(t0));
      if (r > 0 && (!(next.data.points() == in.data.points()) ||
                    next.reference_cost != in.reference_cost)) {
        std::fprintf(stderr, "error: set-up is not deterministic for seed %llu\n",
                     static_cast<unsigned long long>(s));
        return 1;
      }
      in = std::move(next);
    }
    // Each instance runs at least min_runs times and until its share of
    // the time budget is spent; later runs must reproduce the first.
    const double until = seconds * static_cast<double>(i + 1) /
                         static_cast<double>(w.instances);
    const Clock::time_point loop_start = Clock::now();
    std::optional<std::pair<RunOutcome, Quality>> first;
    double fastest = std::numeric_limits<double>::infinity();
    for (std::size_t runs = 0;
         runs < w.min_runs || loop_s + seconds_since(loop_start) < until; ++runs) {
      ++attempted;
      try {
        RunOutcome o = run_once(w, in, s, false);
        const Quality q = quality(w, in, o);
        std::string why = check_run(w, o, q);
        if (why.empty() && first) {
          why = check_same(first->first, first->second, o, q, "repeat run");
        }
        if (!why.empty()) {
          ++failed;
          std::printf("instance %zu run failed: %s\n", i, why.c_str());
          continue;
        }
        e2e_s.push_back(o.e2e_s);
        fastest = std::min(fastest, o.e2e_s);
        if (!first) first.emplace(std::move(o), q);
      } catch (const std::exception& e) {
        ++failed;
        std::printf("instance %zu run threw: %s\n", i, e.what());
      }
    }
    loop_s += seconds_since(loop_start);
    if (first) {
      passed += 1;
      fastest_s += fastest;
      if (first->second.norm_cost) {
        costed += 1;
        norm_cost += *first->second.norm_cost;
      }
      norm_bits += first->second.norm_uplink_bits;
      device_s += first->first.device_s;
      completion_s += first->first.virtual_completion_s;
      energy_j += first->first.energy_j;
    }
  }

  // The gated metrics hold still across seeds on every workload; the
  // rest are workload-specific or, like norm_cost, vary with the local
  // optimum k-means lands in (README.md).
  const double per = passed > 0 ? 1.0 / static_cast<double>(passed) : 0.0;
  const std::vector<Metric> gated = {
      {"e2e_s", fastest_s * per, "s"},
      {"setup_s", median(setup_s), "s"},
      {"norm_uplink_bits", norm_bits * per, "ratio"},
      {"peak_rss_mb", peak_rss_mb(), "MB"}};
  std::vector<Metric> printed = {
      {"norm_cost", costed > 0 ? norm_cost / static_cast<double>(costed) : 0.0,
       "ratio"}};
  if (w.pipeline == PipelineKind::kBklw) {
    printed.push_back({"device_s", device_s * per, "s"});
  }
  if (w.simulated) {
    printed.push_back({"virtual_completion_s", completion_s * per, "virtual_s"});
    printed.push_back({"site_energy_j", energy_j * per, "J"});
  }
  printed.push_back({"fail_share",
                     static_cast<double>(failed) / static_cast<double>(attempted),
                     "ratio"});
  std::printf("runs: %zu instances, %zu attempted, %zu failed", w.instances,
              attempted, failed);
  if (!e2e_s.empty()) {
    std::printf("; e2e_s min %.4f median %.4f max %.4f",
                *std::min_element(e2e_s.begin(), e2e_s.end()), median(e2e_s),
                *std::max_element(e2e_s.begin(), e2e_s.end()));
  }
  std::printf("\n");
  print_result(gated, printed, failed == 0 && passed == w.instances,
               attempted, failed);
  return 0;
}

// ---- traced run: per-layer replay --------------------------------------------

struct Replay {
  Dataset server_input;  ///< what the server solves on
  Matrix lift_basis;     ///< t x dim; empty when nothing is lifted
  std::optional<LinearMap> jl;     ///< the JL map (JL+BKLW)
  std::vector<Dataset> projected;  ///< JL-projected shards (JL+BKLW)
  std::vector<const Matrix*> gram_inputs;  ///< matrices whose Gram was formed
  double gram_flops = 0.0;
  double codec_bytes = 0.0;  ///< encoded + decoded payload bytes
  std::size_t frames = 0;
};

class Codec {
 public:
  Codec(SpanLog& log, Replay& r) : log_(log), r_(r) {}

  template <class Encode, class Decode>
  auto roundtrip(Encode&& encode, Decode&& decode) {
    Message msg;
    {
      auto s = log_.span("net.encode");
      msg = encode();
    }
    r_.frames += 1;
    r_.codec_bytes += 2.0 * static_cast<double>(msg.payload.size());
    auto s = log_.span("net.decode");
    return decode(msg);
  }

 private:
  SpanLog& log_;
  Replay& r_;
};

/// Gram matrix the way thin_svd forms it: AᵀA when d <= n, else AAᵀ.
Matrix gram_of(const Matrix& a, SpanLog& log, const char* span, Replay* r) {
  auto s = log.span(span);
  if (r != nullptr) {
    const double small = static_cast<double>(std::min(a.rows(), a.cols()));
    const double large = static_cast<double>(std::max(a.rows(), a.cols()));
    r->gram_flops += 2.0 * large * small * small;
  }
  return a.cols() <= a.rows() ? matmul_at_b(a, a) : matmul_a_bt(a, a);
}

/// NR: every shard crosses the codec at full precision; the server
/// clusters all n points.
Replay replay_nr(const Inputs& in, const PipelineConfig& cfg, SpanLog& log) {
  Replay r;
  Codec codec(log, r);
  Matrix all;
  for (const Dataset& part : in.parts) {
    const Matrix got = codec.roundtrip(
        [&] { return encode_matrix(part.points(), cfg.significant_bits); },
        [](const Message& m) { return decode_matrix(m); });
    if (got.rows() > 0) all.append_rows(got);
  }
  r.server_input = Dataset(std::move(all));
  return r;
}

/// BKLW and JL+BKLW: (JL) → disPCA local SVDs and merge → projection →
/// disSS cost report and sampling → (QT) → union → solve → lift. The
/// sampling step calls the public sensitivity_sample with each site's
/// cost-proportional allocation, so the server input matches the
/// pipeline's in shape, not bit for bit.
Replay replay_coreset(const Workload& w, const Inputs& in,
                      const PipelineConfig& cfg, SpanLog& log) {
  Replay r;
  std::optional<LinearMap>& jl = r.jl;
  Codec codec(log, r);
  const std::size_t m = in.parts.size();
  if (w.pipeline == PipelineKind::kJlBklw) {
    jl = make_jl_projection(w.d, std::min(cfg.jl_dim, w.d), cfg.seed);
    r.projected.resize(m);
    for (std::size_t i = 0; i < m; ++i) {
      if (in.parts[i].empty()) continue;
      auto s = log.span("dr.project");
      r.projected[i] = jl->apply(in.parts[i]);
    }
  }
  // Moving `r` out keeps the projected shards' buffers, so gram_inputs
  // stay valid.
  const std::span<const Dataset> src =
      jl ? std::span<const Dataset>(r.projected) : std::span<const Dataset>(in.parts);
  const std::size_t dim = jl ? jl->output_dim() : w.d;
  const std::size_t t = cfg.pca_dim;

  // disPCA: local SVD per site, Σ/V uplink, server merge and broadcast.
  Matrix y;
  for (std::size_t i = 0; i < m; ++i) {
    if (src[i].empty()) continue;
    const Matrix& a = src[i].points();
    r.gram_inputs.push_back(&a);
    {
      const Matrix g = gram_of(a, log, "linalg.gram", &r);
      auto s = log.span("linalg.eigen");
      (void)eigen_symmetric(g);
    }
    Svd svd;
    {
      auto s = log.span("linalg.svd");
      svd = truncated_svd(a, std::min({t, a.rows(), a.cols()}));
    }
    Matrix sigma(1, svd.rank());
    for (std::size_t j = 0; j < svd.rank(); ++j) sigma(0, j) = svd.sigma[j];
    const Matrix sigma_rx = codec.roundtrip(
        [&] { return encode_matrix(sigma); },
        [](const Message& msg) { return decode_matrix(msg); });
    const Matrix v_rx = codec.roundtrip(
        [&] { return encode_matrix(svd.v); },
        [](const Message& msg) { return decode_matrix(msg); });
    append_pca_summary(y, sigma_rx, v_rx);
  }
  Matrix v;
  {
    auto s = log.span("linalg.svd");
    v = truncated_svd(y, std::min({t, y.rows(), dim})).v;  // dim x t
  }

  // Projection onto the merged basis, then disSS step 1: bicriteria
  // solution and cost report per site.
  std::vector<Dataset> coords(m);
  std::vector<double> local_cost(m, 0.0);
  double total_cost = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    if (src[i].empty()) continue;
    const Matrix basis = codec.roundtrip(
        [&] { return encode_matrix(v); },
        [](const Message& msg) { return decode_matrix(msg); });
    {
      auto s = log.span("dr.project");
      coords[i] = Dataset(matmul(src[i].points(), basis));
    }
    {
      auto s = log.span("cr.sample");
      Rng rng = make_rng(cfg.seed, 2 * i);
      BicriteriaOptions bopts;
      bopts.k = cfg.k;
      local_cost[i] = kmeans_cost(coords[i], bicriteria_centers(coords[i], bopts, rng));
    }
    total_cost += codec.roundtrip([&] { return encode_scalar(local_cost[i]); },
                                  [](const Message& msg) { return decode_scalar(msg); });
  }

  // disSS step 3: cost-proportional sample per site, (QT), uplink, union.
  std::vector<Dataset> pieces;
  for (std::size_t i = 0; i < m; ++i) {
    if (src[i].empty()) continue;
    const double share = total_cost > 0.0 ? local_cost[i] / total_cost : 0.0;
    SensitivitySampleOptions sopts;
    sopts.k = cfg.k;
    sopts.sample_size = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::llround(static_cast<double>(cfg.coreset_size) * share)));
    Coreset local;
    {
      auto s = log.span("cr.sample");
      Rng rng = make_rng(cfg.seed, 2 * i + 1);
      local = sensitivity_sample(coords[i], sopts, rng);
    }
    if (cfg.significant_bits < kDoubleSignificandBits) {
      auto s = log.span("qt.quantize");
      local.points = RoundingQuantizer(cfg.significant_bits).quantize(local.points);
    }
    Coreset rx = codec.roundtrip(
        [&] { return encode_coreset(local, cfg.significant_bits); },
        [](const Message& msg) { return decode_coreset(msg); });
    pieces.push_back(std::move(rx.points));
  }
  r.server_input = concatenate(pieces);
  r.lift_basis = v.transposed();
  return r;
}

/// Sums of the replay spans that make up the pipeline's own calls. Gram
/// and eigen run inside truncated_svd, so they are a breakdown of
/// linalg.svd and are not added again.
const std::vector<std::string>& attributed_spans() {
  static const std::vector<std::string> names = {
      "linalg.svd", "dr.project", "dr.lift",    "cr.sample",
      "kmeans.solve", "qt.quantize", "net.encode", "net.decode"};
  return names;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

int run_traced(const Workload& w, std::uint64_t seed) {
  SpanLog log;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  auto fail = [&](const std::string& why) {
    ++failed;
    std::printf("check failed: %s\n", why.c_str());
  };
  const PipelineConfig cfg = pipeline_config(w, seed);
  const std::size_t pool = parallel_threads();

  const Inputs in = [&] {
    auto s = log.span("setup");
    return make_inputs(w, seed, &log, true);
  }();

  ++attempted;
  RunOutcome plain;
  {
    auto s = log.span("e2e.untraced");
    plain = run_once(w, in, seed, false);
  }
  const Quality q_plain = quality(w, in, plain);
  if (std::string why = check_run(w, plain, q_plain); !why.empty()) fail(why);
  // Over a SimNetwork the traced run retains events (for sim.events); the
  // difference is the tracing overhead, and both must produce the same
  // run. The synchronous pipelines have nothing to trace inside, so
  // their traced run is the untraced one.
  const char* traced_span = "e2e.untraced";
  RunOutcome traced;
  if (w.simulated) {
    ++attempted;
    traced_span = "e2e.traced";
    {
      auto s = log.span(traced_span);
      traced = run_once(w, in, seed, true);
    }
    if (std::string why = check_same(plain, q_plain, traced, quality(w, in, traced),
                                     "traced vs untraced run");
        !why.empty()) {
      fail(why);
    }
  }

  // Layer replay on the pipeline's inputs.
  Replay r;
  KMeansResult solved;
  {
    auto s = log.span("replay");
    r = w.pipeline == PipelineKind::kNoReduction ? replay_nr(in, cfg, log)
                                                 : replay_coreset(w, in, cfg, log);
    {
      auto s2 = log.span("kmeans.solve");
      solved = kmeans(r.server_input, solver_options(cfg));
    }
    if (!r.lift_basis.empty()) {
      auto s2 = log.span("dr.lift");
      Matrix lifted = matmul(solved.centers, r.lift_basis);
      if (r.jl) lifted = r.jl->lift(lifted);
    }
    auto s2 = log.span("kmeans.assign");
    (void)assign_batch(in.data.points(), plain.centers);
  }

  // Determinism contract: a 1-thread pool reproduces the full pool's
  // centers bit for bit. The 1-thread layer timings ride along.
  ++attempted;
  {
    auto s = log.span("threads1");
    set_parallel_threads(1);
    RunOutcome one;
    {
      auto s2 = log.span("e2e.1t");
      one = run_once(w, in, seed, false);
    }
    for (const Matrix* a : r.gram_inputs) {
      (void)gram_of(*a, log, "linalg.gram_1t", nullptr);
    }
    {
      auto s2 = log.span("kmeans.solve_1t");
      (void)kmeans(r.server_input, solver_options(cfg));
    }
    set_parallel_threads(0);
    const Quality q_one = quality(w, in, one);
    if (std::string why = check_same(plain, q_plain, one, q_one,
                                     "1-thread vs full pool");
        !why.empty()) {
      fail(why);
    }
  }

  const double e2e_traced = log.total(traced_span);
  double attributed = 0.0;
  for (const std::string& name : attributed_spans()) attributed += log.total(name);
  const double gram_s = log.total("linalg.gram");
  const double codec_s = log.total("net.encode") + log.total("net.decode");
  const double n_points = static_cast<double>(in.data.size());
  std::vector<Metric> m = {
      {"linalg.svd_s", log.total("linalg.svd"), "s"},
      {"linalg.eigen_s", log.total("linalg.eigen"), "s"},
      {"linalg.gram_s", gram_s, "s"},
      {"linalg.gram_s_1t", log.total("linalg.gram_1t"), "s"},
      {"linalg.gram_gflops", ratio(r.gram_flops, gram_s) / 1e9, "GFLOP/s"},
      {"linalg.svd_calls", static_cast<double>(log.count("linalg.svd")), "count"},
      {"dr.project_s", log.total("dr.project"), "s"},
      {"dr.lift_s", log.total("dr.lift"), "s"},
      {"cr.sample_s", log.total("cr.sample"), "s"},
      {"kmeans.solve_s", log.total("kmeans.solve"), "s"},
      {"kmeans.solve_s_1t", log.total("kmeans.solve_1t"), "s"},
      {"kmeans.iters", static_cast<double>(solved.iterations), "count"},
      {"kmeans.assign_pts_per_s", ratio(n_points, log.total("kmeans.assign")),
       "1/s"},
      {"kmeans.reference_s", log.total("kmeans.reference"), "s"},
      {"qt.quantize_s", log.total("qt.quantize"), "s"},
      {"net.encode_s", log.total("net.encode"), "s"},
      {"net.decode_s", log.total("net.decode"), "s"},
      {"net.frames", static_cast<double>(r.frames), "count"},
      {"net.codec_mb_per_s", ratio(r.codec_bytes / 1e6, codec_s), "MB/s"},
      {"sim.events", static_cast<double>(traced.events), "count"},
      {"sim.events_per_s", ratio(static_cast<double>(traced.events), e2e_traced),
       "1/s"},
      {"sim.retransmit_bits", static_cast<double>(traced.retransmit_bits), "bits"},
      {"sim.deadline_misses", static_cast<double>(traced.deadline_misses), "count"},
      {"sim.queue_high_water", static_cast<double>(traced.queue_high_water),
       "count"},
      {"data.generate_s", log.total("data.generate"), "s"},
      {"core.unattributed_s", e2e_traced - attributed, "s"},
      {"trace.overhead_s", e2e_traced - log.total("e2e.untraced"), "s"},
  };
  std::printf("pool: %zu threads; e2e untraced %.4f s, traced %.4f s, "
              "1-thread %.4f s\n",
              pool, log.total("e2e.untraced"), e2e_traced, log.total("e2e.1t"));

  const std::string trace_out =
      "trace_" + w.name + "_" + std::to_string(seed) + ".json";
  if (std::FILE* f = std::fopen(trace_out.c_str(), "w")) {
    log.write_chrome_json(f);
    std::fclose(f);
    std::printf("spans: %s\n", trace_out.c_str());
  } else {
    std::fprintf(stderr, "warning: cannot write %s\n", trace_out.c_str());
  }
  print_result(m, {}, failed == 0, attempted, failed);
  return 0;
}

// ---- command line ------------------------------------------------------------

int usage() {
  std::fprintf(stderr,
               "usage: e2e_bench --workload bklw_mnist|nr_mnist|fleet_sim "
               "--seed N --seconds S --trace 0|1\n");
  return 2;
}

int main_impl(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        workload = v;
      } else if (flag == "--seed") {
        seed = std::stoull(v);
      } else if (flag == "--seconds") {
        seconds = std::stod(v);
      } else if (flag == "--trace") {
        trace = std::stoi(v);
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  const Workload* w = find_workload(workload);
  if (w == nullptr || (trace != 0 && trace != 1) || !(seconds > 0.0)) {
    return usage();
  }

  // Provenance that only this process knows; run.py adds the build's.
  const std::size_t pool = parallel_threads();
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const std::size_t nproc =
      sched_getaffinity(0, sizeof(cpus), &cpus) == 0
          ? static_cast<std::size_t>(CPU_COUNT(&cpus))
          : std::max(1u, std::thread::hardware_concurrency());
  if (pool > nproc) {
    std::fprintf(stderr, "error: pool of %zu threads exceeds nproc = %zu\n", pool,
                 nproc);
    return 2;
  }
  std::printf("provenance workload = %s\n", w->name.c_str());
  std::printf("provenance seed = %llu\n", static_cast<unsigned long long>(seed));
  std::printf("provenance pool_threads = %zu\n", pool);
  std::printf("provenance shape = n=%zu d=%zu k=%zu m=%zu\n", w->n, w->d, w->k,
              w->sources);

  return trace == 0 ? run_untraced(*w, seed, seconds) : run_traced(*w, seed);
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  try {
    return e2ebench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
