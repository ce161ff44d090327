// ekm — command-line front end for the communication-efficient k-means
// pipelines.
//
// Usage:
//   ekm --algorithm jl+fss+jl --k 4 --input data.csv --output centers.csv
//   ekm --algorithm jl+bklw --sources 10 --synthetic mnist --n 10000
//
// Flags:
//   --input PATH          dense CSV, one point per row (mutually exclusive
//                         with --synthetic)
//   --synthetic NAME      mnist | neurips | mixture (default mixture)
//   --n N, --d D          synthetic dataset shape
//   --algorithm NAME      nr | fss | jl+fss | fss+jl | jl+fss+jl |
//                         bklw | jl+bklw          (default jl+fss+jl)
//   --k K                 number of centers        (default 2)
//   --sources M           data sources; >1 selects the distributed path
//   --coreset-size S, --jl-dim D1, --pca-dim T    summary knobs
//   --qt-bits S           rounding quantizer significand bits (52 = off)
//   --refine ITERS        device-side refinement rounds (extension)
//   --seed SEED           master seed
//   --output PATH         write centers as CSV (default: stdout summary only)
//   --sim SPEC            run the multi-source path over the discrete-event
//                         simulator: SPEC is a named scenario (ideal,
//                         wifi-office, ble-swarm, lora-field, nr5g-fleet,
//                         lossy-mesh, hetero-mesh, deadline-fleet) optionally
//                         followed by key=value overrides, e.g.
//                         "lora-field,loss=0.1,site2.radio=ble".
//                         Algorithms: nr | bklw | jl+bklw | stream.
//   --rounds R            uplink rounds for --algorithm stream (default 4)
//   --deadline SECONDS    per-collection-round deadline on the virtual
//                         clock (sim only); sites that miss it are dropped
//                         from the round and the server aggregates over the
//                         responders. "inf" (the default) waits for everyone.
//   --retry STRATEGY      retransmission policy (sim only): fixed (default),
//                         backoff (exponential + jitter), or giveup
//                         (deadline-aware: skip attempts that cannot finish
//                         before the round cutoff).
//   --pipeline            cross-round pipelining (sim only): round r+1's
//                         task graph depends only on round r's committed
//                         barrier, and the sender's schedule NAKs a frame
//                         the moment its airtime provably overshoots the
//                         round cutoff — the server opens the next round
//                         while stragglers resolve. Equivalent to scenario
//                         key pipeline=on.
//   --trace-out FILE      write a Chrome/Perfetto trace of the run (sim
//                         only): one track per actor on the virtual clock
//                         plus host wall-clock kernel spans. Recording is
//                         side-effect-free — results are bit-identical
//                         with or without it (docs/observability.md).
//   --metrics-out FILE    write per-round JSONL metric snapshots (sim only)
//   --event-log off|N     cap the retained simulator event trace; same as
//                         scenario key event-log=. The default retains
//                         every radio event in memory (docs/simulation.md).
//
// Every numeric flag goes through a checked parse: trailing garbage,
// empty values, and out-of-range numbers exit 2 with a message naming
// the flag, instead of the silent atoi-zero they once produced.
//
// Exit codes: 0 success; 2 bad input — a flag, a scenario spec, a
// siteN.* override beyond --sources, a CSV cell, or any other
// precondition_error; 1 a run that failed on valid input
// (invariant_error, e.g. a round deadline so tight it fell below
// min-responders) or an I/O error (std::runtime_error). No input
// aborts the process.
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/parse_num.hpp"
#include "core/pipeline.hpp"
#include "data/generators.hpp"
#include "data/loaders.hpp"
#include "kmeans/cost.hpp"
#include "kmeans/lloyd.hpp"
#include "obs/attribution.hpp"
#include "obs/recorder.hpp"
#include "obs/trace_export.hpp"
#include "sim/coordinator.hpp"

namespace {

using namespace ekm;

struct CliArgs {
  std::string input;
  std::string synthetic = "mixture";
  std::string algorithm = "jl+fss+jl";
  std::string output;
  std::size_t n = 5000;
  std::size_t d = 128;
  std::size_t k = 2;
  std::size_t sources = 1;
  std::size_t coreset_size = 300;
  std::size_t jl_dim = 64;
  std::size_t pca_dim = 16;
  int qt_bits = 52;
  int refine = 0;
  std::uint64_t seed = 1;
  std::string sim;
  std::size_t rounds = 4;
  double deadline = std::numeric_limits<double>::infinity();
  bool deadline_set = false;
  std::string retry;  // empty = keep the scenario's strategy
  bool pipeline = false;
  std::string trace_out;    // empty = no trace export
  std::string metrics_out;  // empty = no metrics export
  std::string explain;      // "" = off, else "text" or "json"
  std::string explain_diff_a;  // both set = standalone diff mode
  std::string explain_diff_b;
  std::size_t event_log_limit = 0;
  bool event_log_set = false;
  bool help = false;
};

// --- checked numeric parsing, shared by every numeric flag ----------------
// Validation lives in common/parse_num.hpp (the scenario parser uses
// the same core); these wrappers only add the flag-naming stderr
// message and the exit-2 contract.

bool parse_u64(const char* flag, const char* value, std::uint64_t& out) {
  const auto v = parse_full_ull(value);
  if (!v.has_value()) {
    std::fprintf(stderr,
                 "invalid value for %s: '%s' (expected a non-negative integer)\n",
                 flag, value);
    return false;
  }
  out = *v;
  return true;
}

bool parse_size(const char* flag, const char* value, std::size_t& out) {
  std::uint64_t v = 0;
  if (!parse_u64(flag, value, v)) return false;
  out = static_cast<std::size_t>(v);
  return true;
}

bool parse_i32(const char* flag, const char* value, int& out) {
  const auto v = parse_full_ll(value);
  if (!v.has_value() || *v < INT_MIN || *v > INT_MAX) {
    std::fprintf(stderr, "invalid value for %s: '%s' (expected an integer)\n",
                 flag, value);
    return false;
  }
  out = static_cast<int>(*v);
  return true;
}

// Non-finite policy (see parse_full_double): an explicit "inf" token
// parses and is meaningful for --deadline (wait forever); a
// finite-looking token that overflows double ("1e999") is rejected in
// the parser itself; "nan" parses but fails every flag's range check
// (NaN compares false), so it exits 2 like any other bad value.
bool parse_f64(const char* flag, const char* value, double& out) {
  const auto v = parse_full_double(value);
  if (!v.has_value()) {
    std::fprintf(stderr, "invalid value for %s: '%s' (expected a number)\n",
                 flag, value);
    return false;
  }
  out = *v;
  return true;
}

// Flags that take a bare string or a size, one table per family; the
// checks some of them need after the value sit in parse() below.
template <typename T>
struct FlagMember {
  const char* flag;
  T CliArgs::*member;
};

constexpr FlagMember<std::string> kStringFlags[] = {
    {"--input", &CliArgs::input},
    {"--synthetic", &CliArgs::synthetic},
    {"--algorithm", &CliArgs::algorithm},
    {"--output", &CliArgs::output},
    {"--sim", &CliArgs::sim},
};

constexpr FlagMember<std::size_t> kSizeFlags[] = {
    {"--n", &CliArgs::n},
    {"--d", &CliArgs::d},
    {"--k", &CliArgs::k},
    {"--sources", &CliArgs::sources},
    {"--coreset-size", &CliArgs::coreset_size},
    {"--jl-dim", &CliArgs::jl_dim},
    {"--pca-dim", &CliArgs::pca_dim},
    {"--rounds", &CliArgs::rounds},
};

/// The member `flag` names in `table`, or nullptr.
template <typename T, std::size_t N>
T CliArgs::*member_for(const FlagMember<T> (&table)[N], const char* flag) {
  for (const FlagMember<T>& entry : table) {
    if (std::strcmp(flag, entry.flag) == 0) return entry.member;
  }
  return nullptr;
}

std::optional<CliArgs> parse(int argc, char** argv) {
  CliArgs a;
  auto next = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    const auto want = [&](const char* name) { return std::strcmp(flag, name) == 0; };
    if (want("--help") || want("-h")) {
      a.help = true;
    } else if (const auto text = member_for(kStringFlags, flag)) {
      const char* v = next(i);
      if (v == nullptr) return std::nullopt;
      a.*text = v;
    } else if (const auto size = member_for(kSizeFlags, flag)) {
      const char* v = next(i);
      if (v == nullptr || !parse_size(flag, v, a.*size)) return std::nullopt;
      if (size == &CliArgs::k && a.k < 1) {
        std::fprintf(stderr, "--k must be >= 1, got %s\n", v);
        return std::nullopt;
      }
    } else if (want("--qt-bits")) {
      const char* v = next(i);
      if (v == nullptr || !parse_i32(flag, v, a.qt_bits)) return std::nullopt;
      if (a.qt_bits < 1 || a.qt_bits > 52) {
        std::fprintf(stderr, "--qt-bits must be in [1, 52] (52 = off), got %d\n",
                     a.qt_bits);
        return std::nullopt;
      }
    } else if (want("--refine")) {
      const char* v = next(i);
      if (v == nullptr || !parse_i32(flag, v, a.refine)) return std::nullopt;
      if (a.refine < 0) {
        std::fprintf(stderr, "--refine must be >= 0, got %d\n", a.refine);
        return std::nullopt;
      }
    } else if (want("--seed")) {
      const char* v = next(i);
      if (v == nullptr || !parse_u64(flag, v, a.seed)) return std::nullopt;
    } else if (want("--deadline")) {
      const char* v = next(i);
      if (v == nullptr || !parse_f64(flag, v, a.deadline)) return std::nullopt;
      if (!(a.deadline > 0.0)) {  // rejects 0, negatives and NaN
        std::fprintf(stderr, "--deadline must be > 0 seconds (or inf), got %s\n", v);
        return std::nullopt;
      }
      a.deadline_set = true;
    } else if (want("--retry")) {
      // Grammar shared with the scenario parser (retry_strategy_from_name)
      // so the CLI can never drift from `retry=` / `siteN.retry=`.
      if (const char* v = next(i)) a.retry = v; else return std::nullopt;
      if (!retry_strategy_from_name(a.retry).has_value()) {
        std::fprintf(stderr,
                     "--retry must be fixed|backoff|giveup, got '%s'\n",
                     a.retry.c_str());
        return std::nullopt;
      }
    } else if (want("--pipeline")) {
      a.pipeline = true;
    } else if (want("--trace-out")) {
      const char* v = next(i);
      if (v == nullptr) return std::nullopt;
      if (*v == '\0') {
        std::fprintf(stderr, "--trace-out needs a non-empty file path\n");
        return std::nullopt;
      }
      a.trace_out = v;
    } else if (want("--metrics-out")) {
      const char* v = next(i);
      if (v == nullptr) return std::nullopt;
      if (*v == '\0') {
        std::fprintf(stderr, "--metrics-out needs a non-empty file path\n");
        return std::nullopt;
      }
      a.metrics_out = v;
    } else if (want("--explain-diff")) {
      // Two positional values: the A (baseline) and B (candidate)
      // metrics JSONL files. Checked here so a missing B exits 2
      // before anything runs.
      const char* va = next(i);
      if (va == nullptr) return std::nullopt;
      const char* vb = next(i);
      if (vb == nullptr) return std::nullopt;
      if (*va == '\0' || *vb == '\0') {
        std::fprintf(stderr,
                     "--explain-diff needs two non-empty metrics JSONL paths\n");
        return std::nullopt;
      }
      a.explain_diff_a = va;
      a.explain_diff_b = vb;
    } else if (want("--explain") ||
               std::strncmp(flag, "--explain=", 10) == 0) {
      const char* v = want("--explain") ? "text" : flag + 10;
      if (std::strcmp(v, "text") != 0 && std::strcmp(v, "json") != 0) {
        std::fprintf(stderr, "--explain takes =json or =text, got '%s'\n", v);
        return std::nullopt;
      }
      a.explain = v;
    } else if (want("--event-log")) {
      // Grammar shared with the scenario key `event-log=off|N`.
      const char* v = next(i);
      if (v == nullptr) return std::nullopt;
      if (std::strcmp(v, "off") == 0) {
        a.event_log_limit = 0;
      } else {
        const auto cap = parse_full_ull(v);
        if (!cap.has_value()) {
          std::fprintf(stderr,
                       "invalid value for --event-log: '%s' (expected 'off' "
                       "or a non-negative integer)\n",
                       v);
          return std::nullopt;
        }
        a.event_log_limit = static_cast<std::size_t>(*cap);
      }
      a.event_log_set = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag);
      return std::nullopt;
    }
  }
  return a;
}

std::optional<PipelineKind> kind_of(const std::string& name) {
  if (name == "nr") return PipelineKind::kNoReduction;
  if (name == "fss") return PipelineKind::kFss;
  if (name == "jl+fss") return PipelineKind::kJlFss;
  if (name == "fss+jl") return PipelineKind::kFssJl;
  if (name == "jl+fss+jl") return PipelineKind::kJlFssJl;
  if (name == "bklw") return PipelineKind::kBklw;
  if (name == "jl+bklw") return PipelineKind::kJlBklw;
  return std::nullopt;
}

Dataset make_input(const CliArgs& a) {
  if (!a.input.empty()) {
    Dataset d = load_csv(a.input);
    normalize_zero_mean_unit_range(d);
    return d;
  }
  Rng rng = make_rng(a.seed, 0xdadaULL);
  if (a.synthetic == "mnist") {
    MnistLikeSpec spec;
    spec.n = a.n;
    return make_mnist_like(spec, rng);
  }
  if (a.synthetic == "neurips") {
    NeuripsLikeSpec spec;
    spec.n = a.n;
    spec.dim = a.d;
    return make_neurips_like(spec, rng);
  }
  GaussianMixtureSpec spec;
  spec.n = a.n;
  spec.dim = a.d;
  spec.k = a.k;
  return make_gaussian_mixture(spec, rng);
}

void write_centers_csv(const std::string& path, const Matrix& centers) {
  std::ofstream out(path);
  // Round-trip precision: two runs' files are byte-equal exactly when
  // their centers are bit-equal, so `cmp` checks determinism.
  out.precision(std::numeric_limits<double>::max_digits10);
  for (std::size_t c = 0; c < centers.rows(); ++c) {
    auto row = centers.row(c);
    for (std::size_t j = 0; j < row.size(); ++j) {
      out << row[j] << (j + 1 < row.size() ? ',' : '\n');
    }
  }
  out.close();
  if (!out) throw std::runtime_error("cannot write centers to " + path);
}

constexpr const char* kUsage =
    "ekm — communication-efficient k-means (Lu et al., ICDCS'20 reproduction)\n"
    "  --input PATH | --synthetic mnist|neurips|mixture [--n N --d D]\n"
    "  --algorithm nr|fss|jl+fss|fss+jl|jl+fss+jl|bklw|jl+bklw|stream\n"
    "  --k K  --sources M  --coreset-size S  --jl-dim D1  --pca-dim T\n"
    "  --qt-bits S  --refine ITERS  --seed SEED  --output centers.csv\n"
    "  --sim SCENARIO[,key=value...]  (scenarios: ideal wifi-office\n"
    "    ble-swarm lora-field nr5g-fleet lossy-mesh hetero-mesh\n"
    "    deadline-fleet; keys: radio loss dropout outage retries jitter\n"
    "    stragglers slowdown skew sps server-speed deadline\n"
    "    min-responders realloc realloc-reserve pipeline event-log\n"
    "    retry churn quant backoff-base backoff-cap backoff-jitter seed\n"
    "    siteN.{radio,bandwidth,loss,dropout,speed,retry,join,leave,trace};\n"
    "    sim algorithms: nr bklw jl+bklw stream)\n"
    "  --rounds R   uplink rounds for --algorithm stream (default 4)\n"
    "  --deadline SECONDS   per-round deadline on the virtual clock (sim\n"
    "    only): sites that miss it are dropped from that round and the\n"
    "    server aggregates over the responders; inf waits for everyone\n"
    "  --retry fixed|backoff|giveup   retransmission policy (sim only):\n"
    "    fixed ack-timeout, exponential backoff + jitter, or\n"
    "    deadline-aware give-up that keeps the radio off for attempts\n"
    "    that cannot complete before the round cutoff\n"
    "  --pipeline   cross-round pipelining (sim only): round r+1 opens on\n"
    "    round r's committed barrier and predicted-arrival NAKs fire when\n"
    "    a frame's schedule provably overshoots the cutoff (= pipeline=on)\n"
    "  --trace-out FILE     Chrome/Perfetto trace of the run (sim only):\n"
    "    one track per actor (server, sites, event queue) on the virtual\n"
    "    clock, plus host wall-clock kernel spans; side-effect-free\n"
    "  --metrics-out FILE   per-round JSONL metric snapshots (sim only):\n"
    "    responders, misses, uplink bits, energy, quantizer widths, and\n"
    "    each round's critical-path attribution\n"
    "  --explain[=text|json]   critical-path attribution report (sim\n"
    "    only): per-round blame table (server/site compute, airtime,\n"
    "    retransmits, stalls, deadline waits), tightest-slack sites, slack\n"
    "    histogram. =json prints one JSON object as the final stdout\n"
    "    line; default is the text table\n"
    "  --explain-diff A.jsonl B.jsonl   standalone: compare two\n"
    "    --metrics-out files per blame category; exit 0 = no regression,\n"
    "    1 = B regressed past thresholds, 2 = unusable input\n"
    "  --event-log off|N    cap the retained simulator event trace (same\n"
    "    as scenario key event-log=; the default keeps every event)\n";

bool is_single_source(PipelineKind kind) {
  return kind != PipelineKind::kNoReduction && !pipeline_is_distributed(kind);
}

/// The whole CLI run. Usage errors it detects itself return 2; errors
/// raised below it propagate to main's single error boundary.
int run_cli(int argc, char** argv) {
  const auto args = parse(argc, argv);
  if (!args || args->help) {
    std::fputs(kUsage, args ? stdout : stderr);
    return args ? 0 : 2;
  }
  if (!args->explain_diff_a.empty()) {
    // Standalone mode: compare two previously written metrics JSONL
    // files; no dataset, no simulation. Exit 0 = no regression,
    // 1 = regression over thresholds, 2 = unusable input.
    std::string report;
    const int rc = explain_diff_files(args->explain_diff_a,
                                      args->explain_diff_b,
                                      /*rel_threshold=*/0.10,
                                      /*abs_threshold_s=*/1e-3, report);
    std::fputs(report.c_str(), rc == 2 ? stderr : stdout);
    return rc;
  }
  const bool streaming = args->algorithm == "stream";
  std::optional<PipelineKind> kind;
  if (!streaming) {
    kind = kind_of(args->algorithm);
    if (!kind) {
      std::fprintf(stderr, "unknown algorithm '%s'\n%s", args->algorithm.c_str(),
                   kUsage);
      return 2;
    }
    if (pipeline_is_distributed(*kind) && args->sources < 2) {
      std::fprintf(stderr, "%s needs --sources >= 2\n", args->algorithm.c_str());
      return 2;
    }
    if (is_single_source(*kind) && args->sources > 1) {
      std::fprintf(stderr,
                   "%s runs on a single source: --sources must be 1, got %zu\n",
                   args->algorithm.c_str(), args->sources);
      return 2;
    }
  }
  if (streaming && args->sim.empty()) {
    std::fprintf(stderr, "--algorithm stream needs --sim\n");
    return 2;
  }
  if (args->sources < 1) {
    std::fprintf(stderr, "--sources must be >= 1\n");
    return 2;
  }
  if (streaming && args->rounds < 1) {
    std::fprintf(stderr, "--rounds must be >= 1\n");
    return 2;
  }
  if (!args->sim.empty() && !streaming && is_single_source(*kind)) {
    std::fprintf(stderr, "--sim supports nr|bklw|jl+bklw|stream\n");
    return 2;
  }
  // Flags whose effect lives on the simulator: each needs --sim.
  struct SimOnlyFlag {
    const char* flag;
    bool set;
    const char* reason;
  };
  const SimOnlyFlag sim_only[] = {
      {"--deadline", args->deadline_set,
       "deadlines live on the simulator's virtual clock"},
      {"--retry", !args->retry.empty(),
       "retransmission policies live on the simulated radio"},
      {"--pipeline", args->pipeline,
       "cross-round pipelining lives on the simulator's virtual clock"},
      {"--trace-out", !args->trace_out.empty(),
       "the trace's timelines are the simulator's virtual clocks"},
      {"--metrics-out", !args->metrics_out.empty(),
       "metric snapshots close with the simulator's collection rounds"},
      {"--event-log", args->event_log_set,
       "it caps the simulator's retained event trace"},
      {"--explain", !args->explain.empty(),
       "attribution replays the simulator's recorded server-clock "
       "operations"},
  };
  for (const SimOnlyFlag& f : sim_only) {
    if (f.set && args->sim.empty()) {
      std::fprintf(stderr, "%s needs --sim (%s)\n", f.flag, f.reason);
      return 2;
    }
  }

  const Dataset data = make_input(*args);
  std::printf("input: %zu points x %zu dims\n", data.size(), data.dim());

  PipelineConfig cfg;
  cfg.k = args->k;
  cfg.epsilon = 0.3;
  cfg.seed = args->seed;
  cfg.coreset_size = args->coreset_size;
  cfg.jl_dim = args->jl_dim;
  cfg.pca_dim = args->pca_dim;
  cfg.significant_bits = args->qt_bits;
  cfg.refine_iters = args->refine;

  PipelineResult res;
  std::string explain_out;  // --explain report; printed last (see below)
  if (!args->sim.empty()) {
    SimScenario scenario = parse_scenario(args->sim);
    // The master seed drives the scenario too unless the spec pins one.
    if (args->sim.find("seed=") == std::string::npos) scenario.seed = args->seed;
    // --deadline overrides whatever the scenario string or preset set.
    if (args->deadline_set) scenario.round.deadline_s = args->deadline;
    // --retry overrides the scenario's fleet-wide strategy (per-site
    // siteN.retry= overrides still win, matching --deadline's layering).
    if (!args->retry.empty()) {
      scenario.retry.strategy = *retry_strategy_from_name(args->retry);
    }
    // --pipeline turns cross-round pipelining on; it never turns a
    // scenario's `pipeline=on` off.
    if (args->pipeline) scenario.round.pipeline = true;
    // --event-log overrides the scenario's retention cap, like --deadline.
    if (args->event_log_set) scenario.event_log_limit = args->event_log_limit;

    Rng rng = make_rng(args->seed, 0x9a87ULL);
    const std::vector<Dataset> parts =
        partition_random(data, args->sources, rng);
    // Attach the flight recorder only when an export was asked for: the
    // Coordinator hangs it on the SimNetwork (virtual-clock spans,
    // events, per-round snapshots), and the process-global hook lets
    // hot kernels stamp host wall-clock spans. Recording never touches
    // RNG streams or event ordering, so the run's numbers are
    // bit-identical either way.
    Recorder recorder;
    const bool recording = !args->trace_out.empty() ||
                           !args->metrics_out.empty() ||
                           !args->explain.empty();
    if (recording) {
      cfg.recorder = &recorder;
      install_recorder(&recorder);
    }
    const Coordinator coord(scenario);
    SimReport report;
    if (streaming) {
      StreamingCoresetOptions sopts;
      sopts.k = args->k;
      sopts.coreset_size = args->coreset_size;
      sopts.seed = derive_seed(args->seed, 0x57ea3ULL);
      report = coord.run_streaming(parts, sopts, cfg, args->rounds);
    } else {
      report = coord.run(*kind, parts, cfg);
    }
    res = std::move(report.result);
    const LinkStats& up = report.uplink_stats;
    std::printf("sim scenario   : %s over %zu site(s), radio %s\n",
                report.scenario.c_str(), args->sources,
                scenario.radio.name.c_str());
    std::printf("completion     : %.6g virtual seconds\n",
                report.completion_seconds);
    std::printf("site energy    : %.6g J\n", report.energy_joules);
    std::printf("uplink radio   : %llu attempts, %llu drops, "
                "%llu retransmitted bits, %.6g s airtime\n",
                static_cast<unsigned long long>(up.attempts),
                static_cast<unsigned long long>(up.drops),
                static_cast<unsigned long long>(up.retransmit_bits),
                up.airtime_s);
    std::printf("events         : %zu (%llu site outages)\n",
                report.event_log.size(),
                static_cast<unsigned long long>(report.outages));
    if (scenario.round.active()) {
      std::printf("deadline       : %.6g s/round over %llu round(s), "
                  "%llu dropped frame(s) (%llu supplemental), "
                  "%llu realloc wave(s)\n",
                  scenario.round.deadline_s,
                  static_cast<unsigned long long>(report.rounds),
                  static_cast<unsigned long long>(report.deadline_misses),
                  static_cast<unsigned long long>(report.supplemental_misses),
                  static_cast<unsigned long long>(report.realloc_waves));
    }
    if (report.joins + report.leaves + report.orphaned_frames > 0) {
      std::printf("fleet churn    : %llu join(s), %llu leave(s), "
                  "%llu orphaned frame(s)\n",
                  static_cast<unsigned long long>(report.joins),
                  static_cast<unsigned long long>(report.leaves),
                  static_cast<unsigned long long>(report.orphaned_frames));
    }
    if (scenario.round.quant == QuantPolicy::kAdaptive) {
      std::printf("quantization   : adaptive (frames narrow under deadline "
                  "pressure)\n");
    }
    if (scenario.round.pipeline) {
      std::printf("pipelining     : on (server done at %.6g virtual s, "
                  "critical-path bound %.6g s)\n",
                  report.server_completion_seconds,
                  report.server_critical_path_seconds);
    }
    if (scenario.retry.strategy != RetryStrategy::kFixed) {
      std::printf("retry policy   : %s\n",
                  retry_strategy_name(scenario.retry.strategy));
    }
    if (recording) install_recorder(nullptr);
    if (!args->trace_out.empty()) {
      if (!write_chrome_trace(recorder, args->trace_out)) {
        std::fprintf(stderr, "failed to write trace to '%s'\n",
                     args->trace_out.c_str());
        return 1;
      }
      std::printf("trace written  : %s (%zu spans, %zu events)\n",
                  args->trace_out.c_str(), recorder.spans().size(),
                  recorder.events().size());
    }
    if (!args->metrics_out.empty()) {
      if (!write_metrics_jsonl(recorder, args->metrics_out)) {
        std::fprintf(stderr, "failed to write metrics to '%s'\n",
                     args->metrics_out.c_str());
        return 1;
      }
      std::printf("metrics written: %s (%zu round snapshot(s))\n",
                  args->metrics_out.c_str(), recorder.rounds().size());
    }
    if (!args->explain.empty()) {
      // Rendered now (the recorder dies with this scope) but printed
      // as the very last stdout of the process, so scripts can take
      // the report with `tail` — CI pipes the =json line, which is a
      // single JSON object, straight into a validator.
      const RunAttribution attribution = attribute_run(recorder);
      explain_out =
          args->explain == "json"
              ? render_explain_json(attribution,
                                    report.server_critical_path_seconds) +
                    "\n"
              : render_explain_text(attribution);
    }
  } else if (args->sources > 1) {
    Rng rng = make_rng(args->seed, 0x9a87ULL);
    const std::vector<Dataset> parts = partition_random(data, args->sources, rng);
    res = run_distributed_pipeline(*kind, parts, cfg);
  } else {
    res = run_pipeline(*kind, data, cfg);
  }

  const double cost = kmeans_cost(data, res.centers);
  std::printf("algorithm      : %s\n",
              streaming ? "streaming" : pipeline_name(*kind));
  std::printf("k-means cost   : %.6g\n", cost);
  std::printf("summary points : %zu\n", res.summary_points);
  std::printf("uplink         : %llu bits, %llu scalars, %llu messages\n",
              static_cast<unsigned long long>(res.uplink.bits),
              static_cast<unsigned long long>(res.uplink.scalars),
              static_cast<unsigned long long>(res.uplink.messages));
  std::printf("vs raw upload  : %.4f%% of %zu scalars\n",
              100.0 * static_cast<double>(res.uplink.scalars) /
                  static_cast<double>(data.scalar_count()),
              data.scalar_count());
  if (args->sim.empty()) {
    // Suppressed on the sim path: device compute there lives on the
    // deterministic virtual clock (the completion figure above), and a
    // host wall-clock number next to it would only mislead.
    std::printf("device time    : %.3f s\n", res.device_seconds);
  }

  if (!args->output.empty()) {
    write_centers_csv(args->output, res.centers);
    std::printf("centers written: %s\n", args->output.c_str());
  }
  if (!explain_out.empty()) std::fputs(explain_out.c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // The one error boundary (exit codes: see the header comment).
  try {
    return run_cli(argc, argv);
  } catch (const precondition_error& e) {
    std::fprintf(stderr, "ekm: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ekm: %s\n", e.what());
    return 1;
  }
}
