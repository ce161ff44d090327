// Tests for src/kmeans: cost functions, seeding, Lloyd, bicriteria
// sampling, and the brute-force and exact 1-D oracles.
#include <gtest/gtest.h>

#include <cmath>

#include "data/generators.hpp"
#include "kmeans/assign.hpp"
#include "kmeans/bicriteria.hpp"
#include "kmeans/cost.hpp"
#include "kmeans/lloyd.hpp"
#include "kmeans1d_oracle.hpp"
#include "kmeans_brute_force.hpp"

namespace ekm {
namespace {

using test::kmeans_1d_exact;
using test::kmeans_brute_force;

Dataset two_clusters() {
  // Cluster A near 0, cluster B near 10 (1-D for hand computation).
  return Dataset(Matrix{{0.0}, {0.5}, {1.0}, {10.0}, {10.5}, {11.0}});
}

// kmeans()'s k-means++ seeding alone: one restart and no Lloyd pass.
Matrix kmeanspp_seeds(const Dataset& d, std::size_t k, std::uint64_t seed) {
  KMeansOptions opts;
  opts.k = k;
  opts.max_iters = 0;
  opts.restarts = 1;
  opts.seed = seed;
  return kmeans(d, opts).centers;
}

TEST(Cost, NearestCenterAndCost) {
  const Matrix centers{{0.5}, {10.5}};
  const Dataset d = two_clusters();
  EXPECT_EQ(nearest_center(d.point(0), centers).index, 0u);
  EXPECT_EQ(nearest_center(d.point(5), centers).index, 1u);
  // cost = 0.25 + 0 + 0.25 per cluster, both clusters.
  EXPECT_DOUBLE_EQ(kmeans_cost(d, centers), 1.0);
  EXPECT_THROW((void)nearest_center(d.point(0), Matrix()), precondition_error);
}

TEST(Cost, WeightedCostScalesWithWeights) {
  const Dataset d(Matrix{{0.0}, {2.0}}, {3.0, 1.0});
  const Matrix centers{{0.0}};
  EXPECT_DOUBLE_EQ(kmeans_cost(d, centers), 4.0);  // 3*0 + 1*4
}

TEST(Cost, WeightedMeanIsOptimalOneMeans) {
  const Dataset d(Matrix{{0.0}, {4.0}}, {1.0, 3.0});
  KMeansOptions one;
  one.k = 1;
  const KMeansResult res = kmeans(d, one);
  EXPECT_DOUBLE_EQ(res.centers(0, 0), 3.0);  // the weighted mean μ
  // Sweep candidate 1-means centers: μ must minimize.
  const double at_mu = kmeans_cost(d, res.centers);
  EXPECT_DOUBLE_EQ(at_mu, 12.0);  // 1·3² + 3·1²
  for (double c : {2.0, 2.9, 3.1, 4.0}) {
    const Matrix center{{c}};
    EXPECT_GE(kmeans_cost(d, center) + 1e-12, at_mu);
  }
}

TEST(Cost, ZeroTotalWeightRejected) {
  const Dataset d(Matrix{{1.0}}, {0.0});
  EXPECT_THROW((void)kmeans(d, KMeansOptions{}), precondition_error);
}

TEST(Assign, MatchesNearest) {
  const Dataset d = two_clusters();
  const Matrix centers{{0.5}, {10.5}};
  std::vector<std::size_t> assign(d.size());
  (void)assign_and_cost(d, centers, assign);
  EXPECT_EQ(assign, (std::vector<std::size_t>{0, 0, 0, 1, 1, 1}));
}

TEST(KMeansPp, SpreadsSeedsAcrossClusters) {
  const Dataset d = two_clusters();
  int split = 0;
  for (std::uint64_t s = 0; s < 20; ++s) {
    const Matrix seeds = kmeanspp_seeds(d, 2, s);
    // D² seeding should almost always pick one seed per cluster.
    const bool one_low = seeds(0, 0) < 5.0;
    const bool other_high = seeds(1, 0) >= 5.0;
    if (one_low == other_high) ++split;
  }
  EXPECT_GE(split, 18);
}

TEST(KMeansPp, RespectsWeights) {
  // Point 1 has overwhelming weight: it must be picked first (w.h.p.).
  const Dataset d(Matrix{{0.0}, {5.0}}, {1e-9, 1.0});
  int heavy_first = 0;
  for (std::uint64_t s = 0; s < 20; ++s) {
    const Matrix seeds = kmeanspp_seeds(d, 1, 100 + s);
    if (seeds(0, 0) == 5.0) ++heavy_first;
  }
  EXPECT_GE(heavy_first, 19);
}

TEST(Lloyd, SolvesWellSeparatedTwoClusters) {
  const Dataset d = two_clusters();
  KMeansOptions opts;
  opts.k = 2;
  opts.seed = 42;
  const KMeansResult res = kmeans(d, opts);
  EXPECT_NEAR(res.cost, 1.0, 1e-9);  // optimal: centers at 0.5 and 10.5
  const double lo = std::min(res.centers(0, 0), res.centers(1, 0));
  const double hi = std::max(res.centers(0, 0), res.centers(1, 0));
  EXPECT_NEAR(lo, 0.5, 1e-9);
  EXPECT_NEAR(hi, 10.5, 1e-9);
}

TEST(Lloyd, IteratesBeyondSeeding) {
  Rng rng = make_rng(13);
  GaussianMixtureSpec spec;
  spec.n = 400;
  spec.dim = 6;
  spec.k = 4;
  spec.separation = 8.0;
  const Dataset d = make_gaussian_mixture(spec, rng);
  KMeansOptions opts;
  opts.k = 4;
  opts.restarts = 1;
  opts.seed = 5;
  const KMeansResult res = kmeans(d, opts);
  // Regression guard for the early-termination bug: Lloyd must actually
  // improve on the raw seeding, which takes > 1 iteration.
  EXPECT_GT(res.iterations, 1);
  const Matrix seeds = kmeanspp_seeds(d, 4, 5);
  EXPECT_LE(res.cost, kmeans_cost(d, seeds) + 1e-9);
}

TEST(Lloyd, CostMonotoneInRestarts) {
  Rng rng = make_rng(14);
  GaussianMixtureSpec spec;
  spec.n = 300;
  spec.dim = 5;
  spec.k = 5;
  spec.separation = 4.0;  // moderately hard
  const Dataset d = make_gaussian_mixture(spec, rng);
  KMeansOptions few;
  few.k = 5;
  few.restarts = 1;
  few.seed = 9;
  KMeansOptions many = few;
  many.restarts = 8;
  EXPECT_LE(kmeans(d, many).cost, kmeans(d, few).cost + 1e-12);
}

TEST(Lloyd, WeightedEqualsDuplicated) {
  // Integer weights == duplicating points: identical optimal cost.
  const Dataset weighted(Matrix{{0.0}, {1.0}, {7.0}}, {2.0, 1.0, 3.0});
  const Dataset duplicated(
      Matrix{{0.0}, {0.0}, {1.0}, {7.0}, {7.0}, {7.0}});
  KMeansOptions opts;
  opts.k = 2;
  opts.restarts = 8;
  opts.seed = 3;
  const double wc = kmeans(weighted, opts).cost;
  const double dc = kmeans(duplicated, opts).cost;
  EXPECT_NEAR(wc, dc, 1e-9);
}

TEST(Lloyd, KGreaterEqualDistinctPointsGivesZeroCost) {
  const Dataset d(Matrix{{1.0}, {2.0}, {3.0}});
  KMeansOptions opts;
  opts.k = 3;
  opts.seed = 77;
  EXPECT_NEAR(kmeans(d, opts).cost, 0.0, 1e-18);
}

TEST(Lloyd, HandlesDuplicatePoints) {
  const Dataset d(Matrix{{1.0}, {1.0}, {1.0}, {1.0}});
  KMeansOptions opts;
  opts.k = 2;
  opts.seed = 1;
  EXPECT_NEAR(kmeans(d, opts).cost, 0.0, 1e-18);
}

TEST(Lloyd, ZeroWeightPointsIgnoredInUpdate) {
  const Dataset d(Matrix{{0.0}, {100.0}, {1.0}}, {1.0, 0.0, 1.0});
  KMeansOptions opts;
  opts.k = 1;
  opts.seed = 2;
  const KMeansResult res = kmeans(d, opts);
  EXPECT_NEAR(res.centers(0, 0), 0.5, 1e-9);
}

class BruteForceParam : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BruteForceParam, LloydMatchesOptimalOnTinyInstances) {
  const std::size_t n = GetParam();
  Rng rng = make_rng(500 + n);
  GaussianMixtureSpec spec;
  spec.n = n;
  spec.dim = 2;
  spec.k = 2;
  spec.separation = 6.0;
  const Dataset d = make_gaussian_mixture(spec, rng);
  const KMeansResult opt = kmeans_brute_force(d, 2);
  KMeansOptions opts;
  opts.k = 2;
  opts.restarts = 20;
  opts.seed = 4;
  const KMeansResult heur = kmeans(d, opts);
  EXPECT_GE(heur.cost + 1e-9, opt.cost);  // optimality of the oracle
  EXPECT_LE(heur.cost, 1.05 * opt.cost + 1e-9);  // Lloyd is near-optimal here
}

INSTANTIATE_TEST_SUITE_P(Sizes, BruteForceParam,
                         ::testing::Values<std::size_t>(4, 6, 8, 10, 12));

TEST(BruteForce, RejectsHugeInstances) {
  const Dataset d(Matrix(40, 1));
  EXPECT_THROW((void)kmeans_brute_force(d, 3), precondition_error);
}

TEST(Bicriteria, ConstantFactorOnMixture) {
  Rng rng = make_rng(15);
  GaussianMixtureSpec spec;
  spec.n = 500;
  spec.dim = 6;
  spec.k = 4;
  spec.separation = 12.0;
  const Dataset d = make_gaussian_mixture(spec, rng);
  KMeansOptions opts;
  opts.k = 4;
  opts.restarts = 10;
  opts.seed = 6;
  const double opt_cost = kmeans(d, opts).cost;

  BicriteriaOptions bopts;
  bopts.k = 4;
  Rng brng = make_rng(16);
  const Matrix centers = bicriteria_centers(d, bopts, brng);
  EXPECT_GE(centers.rows(), 4u);
  // Bicriteria uses more centers, so it should be within a small constant
  // factor of (often below) the optimal k-means cost.
  EXPECT_LE(kmeans_cost(d, centers), 20.0 * opt_cost + 1e-9);
}

TEST(Bicriteria, LowerBoundIsBelowOptimal) {
  Rng rng = make_rng(17);
  GaussianMixtureSpec spec;
  spec.n = 400;
  spec.dim = 4;
  spec.k = 3;
  const Dataset d = make_gaussian_mixture(spec, rng);
  KMeansOptions opts;
  opts.k = 3;
  opts.restarts = 10;
  opts.seed = 8;
  const double opt_cost = kmeans(d, opts).cost;
  Rng erng = make_rng(18);
  const double lb = estimate_opt_cost_lower_bound(d, 3, 4, erng);
  EXPECT_GT(lb, 0.0);
  EXPECT_LE(lb, opt_cost + 1e-9);
}

TEST(Bicriteria, WorksWithWeights) {
  const Dataset d(Matrix{{0.0}, {10.0}, {20.0}}, {1.0, 5.0, 1.0});
  BicriteriaOptions opts;
  opts.k = 1;
  opts.rounds = 2;
  Rng rng = make_rng(19);
  const Matrix centers = bicriteria_centers(d, opts, rng);
  EXPECT_GE(centers.rows(), 1u);
}

TEST(KMeans1d, KnownOptimum) {
  // {0, 1, 10, 11}, k=2: split {0,1} | {10,11}, cost 0.5 + 0.5 = 1.
  const std::vector<double> xs{10.0, 0.0, 11.0, 1.0};  // unsorted on purpose
  const KMeansResult res = kmeans_1d_exact(xs, 2);
  EXPECT_NEAR(res.cost, 1.0, 1e-12);
  EXPECT_NEAR(res.centers(0, 0), 0.5, 1e-12);
  EXPECT_NEAR(res.centers(1, 0), 10.5, 1e-12);
  // Assignment is reported in ORIGINAL input order.
  EXPECT_EQ(res.assignment[0], res.assignment[2]);  // 10 with 11
  EXPECT_EQ(res.assignment[1], res.assignment[3]);  // 0 with 1
  EXPECT_NE(res.assignment[0], res.assignment[1]);
}

TEST(KMeans1d, WeightsShiftTheOptimum) {
  // With weight 10 on the value 2, the single center moves toward 2.
  const std::vector<double> xs{0.0, 2.0};
  const std::vector<double> ws{1.0, 10.0};
  const KMeansResult res = kmeans_1d_exact(xs, ws, 1);
  EXPECT_NEAR(res.centers(0, 0), 20.0 / 11.0, 1e-12);
}

TEST(KMeans1d, MatchesBruteForceOnRandomInstances) {
  Rng rng = make_rng(330);
  std::uniform_real_distribution<double> unif(-5.0, 5.0);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 8;
    Matrix pts(n, 1);
    std::vector<double> xs(n);
    for (std::size_t i = 0; i < n; ++i) {
      xs[i] = unif(rng);
      pts(i, 0) = xs[i];
    }
    const KMeansResult dp = kmeans_1d_exact(xs, 3);
    const KMeansResult bf = kmeans_brute_force(Dataset(std::move(pts)), 3);
    EXPECT_NEAR(dp.cost, bf.cost, 1e-9) << "trial " << trial;
  }
}

TEST(KMeans1d, KGreaterEqualNIsZeroCost) {
  const std::vector<double> xs{1.0, 2.0, 3.0};
  const KMeansResult res = kmeans_1d_exact(xs, 5);
  EXPECT_NEAR(res.cost, 0.0, 1e-15);
  EXPECT_EQ(res.centers.rows(), 3u);
}

TEST(KMeans1d, IsTheOracleLloydCannotBeat) {
  Rng rng = make_rng(331);
  std::uniform_real_distribution<double> unif(0.0, 1.0);
  std::vector<double> xs(200);
  Matrix pts(200, 1);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = unif(rng) < 0.5 ? unif(rng) : 5.0 + unif(rng) * 0.1;
    pts(i, 0) = xs[i];
  }
  const KMeansResult dp = kmeans_1d_exact(xs, 4);
  KMeansOptions opts;
  opts.k = 4;
  opts.restarts = 10;
  opts.seed = 12;
  const KMeansResult heur = kmeans(Dataset(std::move(pts)), opts);
  EXPECT_GE(heur.cost + 1e-9, dp.cost);
}

}  // namespace
}  // namespace ekm
