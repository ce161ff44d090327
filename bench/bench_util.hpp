// Shared helpers for the reproduction benches: dataset construction at
// bench scale, flag parsing, and figure-style output formatting.
//
// Every bench accepts:
//   --full        paper-scale parameters (slow; default is laptop scale)
//   --mc N        Monte-Carlo repetitions (default depends on the bench)
//   --seed S      master seed
// The benches print the same rows/series as the paper's tables/figures;
// EXPERIMENTS.md records the expected shapes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "core/experiment.hpp"
#include "data/loaders.hpp"
#include "obs/span.hpp"

namespace ekm::bench {

struct BenchArgs {
  bool full = false;
  int monte_carlo = 0;  // 0 = bench default
  std::uint64_t seed = 2024;

  static BenchArgs parse(int argc, char** argv) {
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--full") == 0) {
        args.full = true;
      } else if (std::strcmp(argv[i], "--mc") == 0 && i + 1 < argc) {
        args.monte_carlo = std::atoi(argv[++i]);
      } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
        args.seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
      }
    }
    return args;
  }
};

/// MNIST-stand-in at bench scale (real IDX file used if present in
/// ./data). Paper scale: 60000 x 784; laptop scale trims n only — the
/// dimension is the structurally important part.
inline Dataset mnist_dataset(const BenchArgs& args, std::size_t n_fast = 4000) {
  Rng rng = make_rng(args.seed, 0x0a71ULL);
  const std::size_t n = args.full ? 60000 : n_fast;
  return load_or_generate_mnist("data", n, rng);
}

/// NeurIPS-corpus stand-in: d = Θ(n) sparse counts. Paper scale:
/// 11463 x 5812.
inline Dataset neurips_dataset(const BenchArgs& args, std::size_t n_fast = 3000,
                               std::size_t d_fast = 1500) {
  Rng rng = make_rng(args.seed, 0x0a72ULL);
  const std::size_t n = args.full ? 11463 : n_fast;
  const std::size_t d = args.full ? 5812 : d_fast;
  return load_or_generate_neurips("data", n, d, rng);
}

/// Best-of-R wall-clock timing through the library's one host-time span
/// (obs/span.hpp): each repetition is a WallSpan, which also lands on the
/// installed recorder (if any), as the pipeline's stages and the kernels
/// do.
inline double time_best_of(const char* label, int reps,
                           const std::function<void()>& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Stopwatch rep;
    {
      const WallSpan span(label, &rep);
      fn();
    }
    best = std::min(best, rep.total_seconds());
  }
  return best;
}

/// Provenance pairs collected from repeatable `--meta key=value` flags
/// (tools/run_bench.sh stamps git SHA, compiler, flags, EKM_THREADS).
using MetaPairs = std::vector<std::pair<std::string, std::string>>;

/// Parses one `--meta key=value` occurrence into `meta`; returns false
/// (with a message) on a missing '=' so callers can exit 2.
inline bool parse_meta_pair(const char* value, MetaPairs& meta) {
  const char* eq = std::strchr(value, '=');
  if (eq == nullptr || eq == value) {
    std::fprintf(stderr, "--meta expects key=value, got '%s'\n", value);
    return false;
  }
  meta.emplace_back(std::string(value, eq), std::string(eq + 1));
  return true;
}

/// Minimal JSON string escaping for provenance values (compiler flag
/// strings can contain quotes and backslashes).
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Writes `"provenance": {...},` (with trailing comma + newline) if any
/// --meta pairs were given; writes nothing otherwise, so benches run
/// without run_bench.sh emit byte-identical JSON to before.
inline void write_provenance(std::FILE* f, const MetaPairs& meta,
                             const char* indent) {
  if (meta.empty()) return;
  std::fprintf(f, "%s\"provenance\": {", indent);
  for (std::size_t i = 0; i < meta.size(); ++i) {
    std::fprintf(f, "%s\"%s\": \"%s\"", i == 0 ? "" : ", ",
                 json_escape(meta[i].first).c_str(),
                 json_escape(meta[i].second).c_str());
  }
  std::fprintf(f, "},\n");
}

/// Prints one figure panel: the empirical CDF of `values` labelled as the
/// paper's plots are (e.g. "Fig1a MNIST normalized-cost JL+FSS").
inline void print_cdf(const std::string& panel, const std::string& series,
                      std::span<const double> values) {
  const EmpiricalCdf cdf = empirical_cdf(values);
  std::printf("# %s — CDF for %s (x p)\n", panel.c_str(), series.c_str());
  std::fputs(format_cdf(cdf, 16).c_str(), stdout);
}

/// Prints a paper-style summary row.
inline void print_row(const std::string& name, const ExperimentSeries& s) {
  const Summary cost = summarize(s.costs());
  const Summary comm = summarize(s.comm_bits());
  const Summary time = summarize(s.device_times());
  std::printf("%-14s cost=%.4f (sd %.4f)  comm=%.3e  time=%.3fs\n",
              name.c_str(), cost.mean, cost.stddev, comm.mean, time.mean);
}

}  // namespace ekm::bench
