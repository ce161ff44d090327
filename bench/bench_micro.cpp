// google-benchmark microbenchmarks for the substrates: the MNIST-like
// generator, the matrix product kernel, truncated SVD (alone on the pool,
// and disPCA's batch of ten shard SVDs, BM_TruncatedSvdBatch), JL apply, PCA,
// sensitivity sampling, FSS, quantizer, k-means, codec. These guard the
// complexity claims of Table 2 at the kernel level (e.g. FSS scaling
// with d vs JL apply scaling with d').
#include <benchmark/benchmark.h>

#include <algorithm>
#include <random>
#include <vector>

#include "common/parallel.hpp"
#include "cr/fss.hpp"
#include "cr/sensitivity.hpp"
#include "data/generators.hpp"
#include "dr/jl.hpp"
#include "dr/pca.hpp"
#include "kmeans/lloyd.hpp"
#include "linalg/matrix.hpp"
#include "linalg/svd.hpp"
#include "net/summary_codec.hpp"
#include "qt/quantizer.hpp"

namespace {

using namespace ekm;

Dataset bench_data(std::size_t n, std::size_t d) {
  Rng rng = make_rng(1234, n * 31 + d);
  MnistLikeSpec spec;
  spec.n = n;
  spec.dim = d;
  spec.latent_dim = 12;
  return make_mnist_like(spec, rng);
}

// The MNIST-like generator at bklw_mnist's shape (20000x784) and at a
// tenth of it: serial draws, then the rows decoded on the pool, so it
// times wall clock. Args: rows, cols.
void BM_MakeMnistLike(benchmark::State& state) {
  MnistLikeSpec spec;
  spec.n = static_cast<std::size_t>(state.range(0));
  spec.dim = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    Rng rng = make_rng(1, 0xdadaULL);
    benchmark::DoNotOptimize(make_mnist_like(spec, rng));
  }
}
BENCHMARK(BM_MakeMnistLike)
    ->Args({20000, 784})
    ->Args({2000, 784})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Rate counter for a kernel that does `flops` floating-point operations
// per call. The products run on the pool, so their benchmarks time wall
// clock (UseRealTime), not the calling thread's CPU time.
benchmark::Counter gflops(double flops) {
  return benchmark::Counter(flops / 1e9,
                            benchmark::Counter::kIsIterationInvariantRate);
}

// Gram products at the shapes BKLW forms them: a bklw_mnist shard
// (2013x784, AᵀA), the disPCA merge of ten 16-row summaries (160x784,
// AAᵀ), fleet_sim's merge (32768x16, AᵀA) and its per-site 16x16.
// Args: rows, cols. Like e2ebench's linalg.gram_gflops, the counter
// charges 2·n·d² for an n x d operand with d <= n, so for the symmetric
// update, which forms half the cells, it is an effective rate.
void BM_Gram(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  const auto cols = static_cast<std::size_t>(state.range(1));
  const Dataset data = bench_data(rows, cols);
  const Matrix& a = data.points();
  for (auto _ : state) {
    benchmark::DoNotOptimize(cols <= rows ? matmul_at_b(a, a)
                                          : matmul_a_bt(a, a));
  }
  const double small = static_cast<double>(std::min(rows, cols));
  const double large = static_cast<double>(std::max(rows, cols));
  state.counters["GFLOP/s"] = gflops(2.0 * large * small * small);
}
BENCHMARK(BM_Gram)
    ->Args({2013, 784})
    ->Args({160, 784})
    ->Args({32768, 16})
    ->Args({16, 16})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// truncated_svd at the shapes disPCA calls it: a bklw_mnist shard
// (2013x784) and the merge of ten 16-row summaries (160x784), both
// t = 16, on the blocked reduction and bisection; and fleet_sim's
// per-site 16x16 at t = 8, on the per-column reduction and QL. Args:
// rows, cols, t.
void BM_TruncatedSvd(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  const auto cols = static_cast<std::size_t>(state.range(1));
  const auto t = static_cast<std::size_t>(state.range(2));
  const Dataset data = bench_data(rows, cols);
  for (auto _ : state) {
    benchmark::DoNotOptimize(truncated_svd(data.points(), t));
  }
}
BENCHMARK(BM_TruncatedSvd)
    ->Args({2013, 784, 16})
    ->Args({160, 784, 16})
    ->Args({16, 16, 8})
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// disPCA's local step on bklw_mnist as the phase scheduler runs it: ten
// 2013x784 shard SVDs at t = 16, one per chunk of one
// parallel_for_chunks(10, 1, ...) job, each taking Σ and V only. Inside
// the job each SVD's Gram, reduction and matvecs run inline on its
// thread (packed single-chunk products), which BM_TruncatedSvd, one SVD
// on the whole pool, does not time.
void BM_TruncatedSvdBatch(benchmark::State& state) {
  constexpr std::size_t kShards = 10;
  constexpr std::size_t kRows = 2013;
  const Dataset data = bench_data(kShards * kRows, 784);
  std::vector<Matrix> shards;
  for (std::size_t c = 0; c < kShards; ++c) {
    shards.push_back(data.points().row_range(c * kRows, (c + 1) * kRows));
  }
  for (auto _ : state) {
    parallel_for_chunks(kShards, 1,
                        [&](std::size_t c, std::size_t, std::size_t) {
                          benchmark::DoNotOptimize(
                              truncated_svd(shards[c], 16, SvdFactors::kV));
                        });
  }
}
BENCHMARK(BM_TruncatedSvdBatch)->UseRealTime()->Unit(benchmark::kMillisecond);

// The server's solve, kmeans() with the pipeline's five restarts
// advanced in lock step: on nr_mnist's 20000x784 shape at k = 10, where
// each pass reads 125 MB of points and, after the first, re-adds only
// the members of the per-chunk update sums that a point joined or left;
// on 20000x64 at k = 50, where the pass is compute-bound and Hamerly's
// bounds skip most of it; on a weighted 300x16 input at k = 10, the
// size of BKLW's server coreset, below the bounds gate, where per-pass
// overhead dominates; and on a weighted 131072x16 input at k = 4, the
// size of fleet_sim's server solve, where the unbounded pass runs 64
// chunks of chunk-private sums and in-chunk cost tiles (bench_data needs
// d >= 12, its latent dimension). Args: rows, cols, weighted, k.
void BM_KMeans(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  const auto cols = static_cast<std::size_t>(state.range(1));
  Dataset data = bench_data(rows, cols);
  if (state.range(2) != 0) {
    Rng rng = make_rng(5);
    std::uniform_real_distribution<double> unif(0.5, 120.0);
    std::vector<double> w(rows);
    for (double& x : w) x = unif(rng);
    data = Dataset(data.points(), std::move(w));
  }
  KMeansOptions opts;
  opts.k = static_cast<std::size_t>(state.range(3));
  for (auto _ : state) {
    benchmark::DoNotOptimize(kmeans(data, opts));
  }
}
BENCHMARK(BM_KMeans)
    ->Args({20000, 784, 0, 10})
    ->Args({20000, 64, 0, 50})
    ->Args({300, 16, 1, 10})
    ->Args({131072, 16, 1, 4})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// A shard times 16 columns: U = A·V in disPCA's local SVD and the BKLW
// projection onto the merged basis. Args: rows, inner, cols.
void BM_Matmul(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  const auto inner = static_cast<std::size_t>(state.range(1));
  const auto cols = static_cast<std::size_t>(state.range(2));
  const Dataset data = bench_data(rows, inner);
  Rng rng = make_rng(7);
  const Matrix v = Matrix::gaussian(inner, cols, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul(data.points(), v));
  }
  state.counters["GFLOP/s"] = gflops(2.0 * static_cast<double>(rows) *
                                     static_cast<double>(inner) *
                                     static_cast<double>(cols));
}
BENCHMARK(BM_Matmul)
    ->Args({2013, 784, 16})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_JlApply(benchmark::State& state) {
  const auto d_out = static_cast<std::size_t>(state.range(0));
  const Dataset data = bench_data(1024, 512);
  const LinearMap map = make_jl_projection(512, d_out, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.apply(data.points()));
  }
}
BENCHMARK(BM_JlApply)->Arg(16)->Arg(64)->Arg(128);

void BM_JlGenerate(benchmark::State& state) {
  const auto family = static_cast<JlFamily>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_jl_projection(1024, 96, 11, family));
  }
}
BENCHMARK(BM_JlGenerate)->Arg(0)->Arg(1)->Arg(2);

void BM_PcaProject(benchmark::State& state) {
  const Dataset data = bench_data(1024, 256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pca_project(data, 16));
  }
}
BENCHMARK(BM_PcaProject);

void BM_SensitivitySample(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Dataset data = bench_data(n, 64);
  SensitivitySampleOptions opts;
  opts.k = 2;
  opts.sample_size = 200;
  for (auto _ : state) {
    Rng rng = make_rng(9);
    benchmark::DoNotOptimize(sensitivity_sample(data, opts, rng));
  }
}
BENCHMARK(BM_SensitivitySample)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_FssCoreset(benchmark::State& state) {
  const Dataset data = bench_data(2048, static_cast<std::size_t>(state.range(0)));
  FssOptions opts;
  opts.k = 2;
  opts.sample_size = 200;
  opts.intrinsic_dim = 16;
  for (auto _ : state) {
    Rng rng = make_rng(10);
    benchmark::DoNotOptimize(fss_coreset(data, opts, rng));
  }
}
BENCHMARK(BM_FssCoreset)->Arg(64)->Arg(192)->Arg(384);

void BM_Quantizer(benchmark::State& state) {
  const Dataset data = bench_data(1024, 256);
  const RoundingQuantizer q(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.quantize(data.points()));
  }
}
BENCHMARK(BM_Quantizer)->Arg(4)->Arg(23)->Arg(52);

void BM_WeightedKMeans(benchmark::State& state) {
  const Dataset data = bench_data(static_cast<std::size_t>(state.range(0)), 32);
  KMeansOptions opts;
  opts.k = 4;
  opts.restarts = 2;
  opts.seed = 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kmeans(data, opts));
  }
}
BENCHMARK(BM_WeightedKMeans)->Arg(512)->Arg(2048);

void BM_CoresetCodec(benchmark::State& state) {
  Coreset cs;
  Rng rng = make_rng(12);
  cs.points = Dataset(Matrix::gaussian(256, 64, rng),
                      std::vector<double>(256, 1.0));
  cs.basis = Matrix::gaussian(64, 512, rng);
  for (auto _ : state) {
    const Message msg = encode_coreset(cs);
    benchmark::DoNotOptimize(decode_coreset(msg));
  }
}
BENCHMARK(BM_CoresetCodec);

}  // namespace

BENCHMARK_MAIN();
