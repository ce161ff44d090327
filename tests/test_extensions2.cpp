// Tests for the second wave of extensions: alias-method sampling,
// k-means|| seeding, and k-median.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "common/sampling.hpp"
#include "cr/sensitivity.hpp"
#include "data/generators.hpp"
#include "kmeans/cost.hpp"
#include "kmeans/kmedian.hpp"
#include "kmeans/lloyd.hpp"
#include "kmeans/parallel_seed.hpp"

namespace ekm {
namespace {

TEST(AliasTable, MatchesTargetDistribution) {
  const std::vector<double> weights{1.0, 2.0, 3.0, 4.0};
  const AliasTable table(weights);
  EXPECT_DOUBLE_EQ(table.total_weight(), 10.0);

  Rng rng = make_rng(800);
  std::vector<std::size_t> counts(4, 0);
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) ++counts[table.sample(rng)];
  for (std::size_t j = 0; j < 4; ++j) {
    const double expected = weights[j] / 10.0;
    const double observed = static_cast<double>(counts[j]) / draws;
    EXPECT_NEAR(observed, expected, 0.01) << "bucket " << j;
  }
}

TEST(AliasTable, ZeroWeightNeverSampled) {
  const std::vector<double> weights{0.0, 1.0, 0.0, 1.0};
  const AliasTable table(weights);
  Rng rng = make_rng(801);
  for (int i = 0; i < 5000; ++i) {
    const std::size_t s = table.sample(rng);
    EXPECT_TRUE(s == 1 || s == 3);
  }
}

TEST(AliasTable, SingletonAndValidation) {
  const std::vector<double> one{5.0};
  const AliasTable table(one);
  Rng rng = make_rng(802);
  EXPECT_EQ(table.sample(rng), 0u);
  EXPECT_THROW(AliasTable(std::vector<double>{}), precondition_error);
  EXPECT_THROW(AliasTable(std::vector<double>{0.0, 0.0}), precondition_error);
  EXPECT_THROW(AliasTable(std::vector<double>{-1.0, 2.0}), precondition_error);
}

TEST(AliasTable, ExtremeWeightRatios) {
  // 1e12 : 1 ratio — the heavy index must dominate without starving the
  // light one entirely across many draws.
  const std::vector<double> weights{1e12, 1.0};
  const AliasTable table(weights);
  Rng rng = make_rng(803);
  std::size_t heavy = 0;
  for (int i = 0; i < 10000; ++i) heavy += (table.sample(rng) == 0);
  EXPECT_GE(heavy, 9990u);
}

TEST(ParallelSeed, ReturnsKCentersWithBoundedCost) {
  Rng rng = make_rng(810);
  GaussianMixtureSpec spec;
  spec.n = 1000;
  spec.dim = 10;
  spec.k = 5;
  spec.separation = 12.0;
  const Dataset d = make_gaussian_mixture(spec, rng);

  ParallelSeedOptions opts;
  opts.k = 5;
  Rng srng = make_rng(811);
  const Matrix seeds = kmeans_parallel_seed(d, opts, srng);
  EXPECT_EQ(seeds.rows(), 5u);
  EXPECT_EQ(seeds.cols(), 10u);

  // Seeding alone should land within a constant factor of a full solve.
  KMeansOptions kopts;
  kopts.k = 5;
  kopts.restarts = 8;
  kopts.seed = 9;
  const double opt = kmeans(d, kopts).cost;
  EXPECT_LT(kmeans_cost(d, seeds), 30.0 * opt);
}

TEST(ParallelSeed, ScalableSolverMatchesLloydQuality) {
  Rng rng = make_rng(812);
  GaussianMixtureSpec spec;
  spec.n = 1500;
  spec.dim = 8;
  spec.k = 6;
  spec.separation = 10.0;
  const Dataset d = make_gaussian_mixture(spec, rng);

  KMeansOptions kopts;
  kopts.k = 6;
  kopts.restarts = 4;
  kopts.seed = 10;
  ParallelSeedOptions sopts;
  sopts.k = 6;
  const KMeansResult scalable = kmeans_scalable(d, kopts, sopts);
  const KMeansResult classic = kmeans(d, kopts);
  EXPECT_LT(scalable.cost, 1.2 * classic.cost);
  EXPECT_THROW((void)kmeans_scalable(d, kopts, ParallelSeedOptions{.k = 3}),
               precondition_error);
}

TEST(KMedian, CostUsesFirstPowerDistances) {
  const Dataset d(Matrix{{0.0}, {3.0}});
  const Matrix centers{{0.0}};
  EXPECT_DOUBLE_EQ(kmedian_cost(d, centers), 3.0);   // not 9
  EXPECT_DOUBLE_EQ(kmeans_cost(d, centers), 9.0);    // contrast
}

TEST(KMedian, GeometricMedianOfTriangle) {
  // Equilateral triangle: the geometric median is the centroid.
  const double h = std::sqrt(3.0) / 2.0;
  const Dataset d(Matrix{{0.0, 0.0}, {1.0, 0.0}, {0.5, h}});
  const std::vector<double> med = geometric_median(d);
  EXPECT_NEAR(med[0], 0.5, 1e-6);
  EXPECT_NEAR(med[1], h / 3.0, 1e-6);
}

TEST(KMedian, MedianIsRobustToOutlierUnlikeMean) {
  // 9 points at 0, one at 1000: median stays near 0, mean does not.
  Matrix pts(10, 1);
  pts(9, 0) = 1000.0;
  const Dataset d(std::move(pts));
  const std::vector<double> med = geometric_median(d);
  EXPECT_LT(std::fabs(med[0]), 1.0);
  EXPECT_NEAR(weighted_mean(d)[0], 100.0, 1e-9);
}

TEST(KMedian, SolvesSeparatedClusters) {
  Rng rng = make_rng(830);
  GaussianMixtureSpec spec;
  spec.n = 400;
  spec.dim = 4;
  spec.k = 3;
  spec.separation = 15.0;
  const Dataset d = make_gaussian_mixture(spec, rng);
  KMedianOptions opts;
  opts.k = 3;
  opts.seed = 7;
  const KMedianResult res = kmedian(d, opts);
  EXPECT_EQ(res.centers.rows(), 3u);
  // Against the 1-median cost the 3-median solution must be far better.
  const Matrix one_center(1, 4);
  const Matrix med1 = [&] {
    Matrix m(1, 4);
    const std::vector<double> gm = geometric_median(d);
    std::copy(gm.begin(), gm.end(), m.row(0).begin());
    return m;
  }();
  EXPECT_LT(res.cost, 0.3 * kmedian_cost(d, med1));
}

TEST(KMedian, WeightedMedianShifts) {
  const Dataset d(Matrix{{0.0}, {10.0}}, {10.0, 1.0});
  const std::vector<double> med = geometric_median(d);
  EXPECT_LT(med[0], 1.0);  // heavy point pins the median
}

TEST(KMedian, CoresetFromSensitivitySamplingWorksForMedianToo) {
  // The paper's CR machinery targets k-means, but the same summary gives
  // a serviceable k-median solve — the cross-objective reuse motivating
  // summaries over model shipping ([5][6] in the paper's intro).
  Rng rng = make_rng(831);
  GaussianMixtureSpec spec;
  spec.n = 1200;
  spec.dim = 6;
  spec.k = 3;
  spec.separation = 12.0;
  const Dataset d = make_gaussian_mixture(spec, rng);
  SensitivitySampleOptions sopts;
  sopts.k = 3;
  sopts.sample_size = 200;
  Rng srng = make_rng(832);
  const Coreset cs = sensitivity_sample(d, sopts, srng);

  KMedianOptions opts;
  opts.k = 3;
  opts.seed = 8;
  const KMedianResult on_coreset = kmedian(cs.points, opts);
  const KMedianResult full = kmedian(d, opts);
  EXPECT_LT(kmedian_cost(d, on_coreset.centers), 1.3 * full.cost);
}

}  // namespace
}  // namespace ekm
