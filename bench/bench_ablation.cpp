// Ablation bench for three design choices of the reproduction:
//  1. JL family (Gaussian vs Rademacher vs sparse Achlioptas) — same
//     accuracy, different device cost;
//  2. sensitivity sampling vs uniform sampling inside the coreset step;
//  3. with vs without the bicriteria-center weight top-up in sensitivity
//     sampling (the [4] variant the QT analysis relies on).
#include <cstdio>

#include "bench/bench_util.hpp"
#include "cr/fss.hpp"
#include "cr/sensitivity.hpp"
#include "core/experiment.hpp"
#include "dr/jl.hpp"
#include "kmeans/cost.hpp"
#include "kmeans/lloyd.hpp"

using namespace ekm;
using namespace ekm::bench;

namespace {

void ablate_jl_family(const Dataset& data, std::uint64_t seed) {
  std::printf("# Ablation 1 — JL family (d=%zu -> 96)\n", data.dim());
  KMeansOptions kopts;
  kopts.k = 2;
  kopts.seed = seed;
  const double base = kmeans(data, kopts).cost;
  for (auto [family, name] :
       {std::pair{JlFamily::kGaussian, "gaussian"},
        std::pair{JlFamily::kRademacher, "rademacher"},
        std::pair{JlFamily::kSparse, "sparse"}}) {
    LinearMap map;
    const double gen_s = time_best_of("jl_generate", 1, [&] {
      map = make_jl_projection(data.dim(), 96, seed, family);
    });
    Dataset proj;
    const double apply_s =
        time_best_of("jl_apply", 1, [&] { proj = map.apply(data); });
    const KMeansResult res = kmeans(proj, kopts);
    const Matrix lifted = map.lift(res.centers);
    std::printf("%-12s gen=%.4fs apply=%.4fs lifted-cost=%.4f\n", name, gen_s,
                apply_s, kmeans_cost(data, lifted) / base);
  }
}

void ablate_sampling(const Dataset& data, std::uint64_t seed) {
  std::printf("# Ablation 2 — sensitivity vs uniform coreset (|S|=200)\n");
  KMeansOptions kopts;
  kopts.k = 2;
  kopts.seed = seed;
  const double base = kmeans(data, kopts).cost;
  for (int variant = 0; variant < 2; ++variant) {
    double worst_cost = 0.0;
    for (std::uint64_t r = 0; r < 5; ++r) {
      Rng rng = make_rng(seed, 10 + r);
      Coreset cs;
      if (variant == 0) {
        SensitivitySampleOptions opts;
        opts.k = 2;
        opts.sample_size = 200;
        cs = sensitivity_sample(data, opts, rng);
      } else {
        cs = uniform_sample_coreset(data, 200, rng);
      }
      const KMeansResult res = kmeans(cs.points, kopts);
      worst_cost = std::max(worst_cost, kmeans_cost(data, res.centers) / base);
    }
    std::printf("%-12s worst normalized cost over 5 runs = %.4f\n",
                variant == 0 ? "sensitivity" : "uniform", worst_cost);
  }
}

void ablate_topup(const Dataset& data, std::uint64_t seed) {
  std::printf("# Ablation 3 — bicriteria-center weight top-up\n");
  for (bool topup : {true, false}) {
    double worst_weight_err = 0.0;
    for (std::uint64_t r = 0; r < 5; ++r) {
      Rng rng = make_rng(seed, 20 + r);
      SensitivitySampleOptions opts;
      opts.k = 2;
      opts.sample_size = 150;
      opts.include_bicriteria_centers = topup;
      const Coreset cs = sensitivity_sample(data, opts, rng);
      const double err =
          std::abs(cs.points.total_weight() - static_cast<double>(data.size())) /
          static_cast<double>(data.size());
      worst_weight_err = std::max(worst_weight_err, err);
    }
    std::printf("top-up=%-5s worst |sum(w) - n|/n over 5 runs = %.4f\n",
                topup ? "on" : "off", worst_weight_err);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv);
  const Dataset data = mnist_dataset(args, /*n_fast=*/3000);
  std::printf("== Ablations on MNIST-scale data: n=%zu d=%zu ==\n", data.size(),
              data.dim());
  ablate_jl_family(data, args.seed);
  ablate_sampling(data, args.seed);
  ablate_topup(data, args.seed);
  return 0;
}
