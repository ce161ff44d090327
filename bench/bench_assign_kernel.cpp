// Micro-bench for the batched assignment kernel: naive per-point scan
// (the seed's nearest_center loop) vs. the GEMM-style batched kernel at
// one thread vs. the kernel with the full pool. Emits points/sec so the
// perf trajectory is trackable across PRs (tools/run_bench.sh ->
// BENCH_assign.json).
//
// Usage: bench_assign_kernel [--n N] [--d D] [--k K] [--reps R]
//                            [--threads T] [--json PATH]
//                            [--meta key=value ...]
// Defaults match the acceptance shape: n=50000, d=64, k=50.
// Timing goes through bench_util's time_best_of, one WallSpan per
// repetition (obs/span.hpp), the span the pipeline's stages also use.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/parallel.hpp"
#include "data/generators.hpp"
#include "kmeans/assign.hpp"
#include "kmeans/cost.hpp"

using namespace ekm;
using ekm::bench::time_best_of;

int main(int argc, char** argv) {
  std::size_t n = 50000, d = 64, k = 50;
  int reps = 5;
  std::size_t threads = 0;  // 0 = pool default (EKM_THREADS / hardware)
  std::string json_path;
  bench::MetaPairs meta;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](std::size_t& out) {
      if (i + 1 < argc) out = static_cast<std::size_t>(std::atoll(argv[++i]));
    };
    if (std::strcmp(argv[i], "--n") == 0) next(n);
    else if (std::strcmp(argv[i], "--d") == 0) next(d);
    else if (std::strcmp(argv[i], "--k") == 0) next(k);
    else if (std::strcmp(argv[i], "--threads") == 0) next(threads);
    else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc)
      reps = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
    else if (std::strcmp(argv[i], "--meta") == 0 && i + 1 < argc) {
      if (!bench::parse_meta_pair(argv[++i], meta)) return 2;
    }
  }

  GaussianMixtureSpec spec;
  spec.n = n;
  spec.dim = d;
  spec.k = std::max<std::size_t>(4, k / 2);
  Rng rng = make_rng(2024, 0xbe7cULL);
  const Dataset data = make_gaussian_mixture(spec, rng);
  const Matrix centers = Matrix::gaussian(k, d, rng, 2.0);

  std::vector<std::size_t> idx(n);
  std::vector<double> sq(n);

  // Naive: the seed's per-point scan over checked rows.
  const double t_naive = time_best_of("assign_naive", reps, [&] {
    for (std::size_t i = 0; i < n; ++i) {
      const NearestCenter nc = nearest_center(data.point(i), centers);
      idx[i] = nc.index;
      sq[i] = nc.sq_dist;
    }
  });

  set_parallel_threads(1);
  const double t_batched_1t = time_best_of("assign_batched_1t", reps, [&] {
    assign_batch_into(data.points(), centers, idx, sq);
  });

  set_parallel_threads(threads);
  const std::size_t pool_threads = parallel_threads();
  const double t_batched_mt = time_best_of("assign_batched_mt", reps, [&] {
    assign_batch_into(data.points(), centers, idx, sq);
  });
  set_parallel_threads(0);

  const double pps_naive = static_cast<double>(n) / t_naive;
  const double pps_1t = static_cast<double>(n) / t_batched_1t;
  const double pps_mt = static_cast<double>(n) / t_batched_mt;

  std::printf("assign kernel  n=%zu d=%zu k=%zu reps=%d\n", n, d, k, reps);
  std::printf("  naive           %10.3e points/s\n", pps_naive);
  std::printf("  batched (1t)    %10.3e points/s  (%.2fx naive)\n", pps_1t,
              pps_1t / pps_naive);
  std::printf("  batched (%zut)    %10.3e points/s  (%.2fx naive, %.2fx 1t)\n",
              pool_threads, pps_mt, pps_mt / pps_naive, pps_mt / pps_1t);

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"assign_kernel\",\n");
    bench::write_provenance(f, meta, "  ");
    std::fprintf(f,
                 "  \"n\": %zu, \"d\": %zu, \"k\": %zu, \"reps\": %d,\n"
                 "  \"threads\": %zu,\n"
                 "  \"naive_points_per_sec\": %.6e,\n"
                 "  \"batched_1t_points_per_sec\": %.6e,\n"
                 "  \"batched_mt_points_per_sec\": %.6e,\n"
                 "  \"speedup_1t_vs_naive\": %.3f,\n"
                 "  \"speedup_mt_vs_naive\": %.3f\n"
                 "}\n",
                 n, d, k, reps, pool_threads, pps_naive, pps_1t, pps_mt,
                 pps_1t / pps_naive, pps_mt / pps_naive);
    std::fclose(f);
  }
  return 0;
}
