// Tests for src/cr: coreset semantics, sensitivity sampling, FSS, and
// the weighted-union merge layer. The central property test sweeps
// random center sets and checks the ε-coreset inequality (3)
// empirically.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "coreset_eps.hpp"
#include "cr/coreset.hpp"
#include "cr/fss.hpp"
#include "cr/merge.hpp"
#include "cr/sensitivity.hpp"
#include "data/generators.hpp"
#include "eigen_oracle.hpp"
#include "kmeans/cost.hpp"
#include "kmeans/lloyd.hpp"
#include "matrix_helpers.hpp"

namespace ekm {
namespace {

using test::coreset_cost;
using test::coreset_eps_for;
using test::frobenius_norm;
using test::identity;
using test::subtract;

Dataset mixture(std::size_t n, std::size_t dim, std::size_t k,
                std::uint64_t seed, double separation = 10.0) {
  Rng rng = make_rng(seed);
  GaussianMixtureSpec spec;
  spec.n = n;
  spec.dim = dim;
  spec.k = k;
  spec.separation = separation;
  return make_gaussian_mixture(spec, rng);
}

TEST(Coreset, CostAddsDelta) {
  Coreset cs;
  cs.points = Dataset(Matrix{{0.0}}, {2.0});
  cs.delta = 5.0;
  const Matrix centers{{1.0}};
  EXPECT_DOUBLE_EQ(coreset_cost(cs, centers), 2.0 * 1.0 + 5.0);
}

TEST(Coreset, ToAmbientAppliesBasis) {
  Coreset cs;
  cs.points = Dataset(Matrix{{2.0}}, {1.0});        // coords in R^1
  cs.basis = Matrix{{0.6, 0.8}};                    // 1 x 2, unit row
  const Dataset ambient = cs.to_ambient();
  EXPECT_EQ(ambient.dim(), 2u);
  EXPECT_DOUBLE_EQ(ambient.point(0)[0], 1.2);
  EXPECT_DOUBLE_EQ(ambient.point(0)[1], 1.6);
}

TEST(Coreset, EpsForExactCoresetIsZero) {
  const Dataset d = mixture(50, 4, 2, 31);
  Coreset cs;
  std::vector<double> w(d.size(), 1.0);
  cs.points = Dataset(d.points(), std::move(w));
  Rng rng = make_rng(32);
  const Matrix centers = Matrix::gaussian(2, 4, rng);
  EXPECT_NEAR(coreset_eps_for(cs, d, centers), 0.0, 1e-12);
}

TEST(Sensitivity, TotalWeightMatchesInput) {
  const Dataset d = mixture(500, 6, 3, 33);
  SensitivitySampleOptions opts;
  opts.k = 3;
  opts.sample_size = 60;
  Rng rng = make_rng(34);
  const Coreset cs = sensitivity_sample(d, opts, rng);
  // With bicriteria top-up the total weight matches n up to the clamping
  // of negative residuals (small).
  EXPECT_NEAR(cs.points.total_weight(), 500.0, 0.1 * 500.0);
}

TEST(Sensitivity, PassthroughWhenSampleCoversData) {
  const Dataset d = mixture(20, 3, 2, 35);
  SensitivitySampleOptions opts;
  opts.k = 2;
  opts.sample_size = 50;
  Rng rng = make_rng(36);
  const Coreset cs = sensitivity_sample(d, opts, rng);
  EXPECT_EQ(cs.size(), 20u);
  EXPECT_DOUBLE_EQ(cs.points.total_weight(), 20.0);
}

class CoresetQuality : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CoresetQuality, EpsilonPropertyOverRandomCenters) {
  const std::size_t sample_size = GetParam();
  const Dataset d = mixture(800, 8, 3, 37);
  SensitivitySampleOptions opts;
  opts.k = 3;
  opts.sample_size = sample_size;
  Rng rng = make_rng(38);
  const Coreset cs = sensitivity_sample(d, opts, rng);

  // Check (3) on (a) random centers, (b) solved centers, (c) far centers.
  Rng crng = make_rng(39);
  double worst_eps = 0.0;
  for (int trial = 0; trial < 12; ++trial) {
    const Matrix centers = Matrix::gaussian(3, 8, crng, trial < 6 ? 1.0 : 10.0);
    worst_eps = std::max(worst_eps, coreset_eps_for(cs, d, centers));
  }
  KMeansOptions kopts;
  kopts.k = 3;
  kopts.seed = 40;
  const Matrix solved = kmeans(d, kopts).centers;
  worst_eps = std::max(worst_eps, coreset_eps_for(cs, d, solved));

  // Larger samples must be accurate; smaller ones looser but bounded.
  const double allowance = sample_size >= 200 ? 0.15 : 0.35;
  EXPECT_LT(worst_eps, allowance);
}

INSTANTIATE_TEST_SUITE_P(SampleSizes, CoresetQuality,
                         ::testing::Values<std::size_t>(100, 200, 400));

TEST(Sensitivity, BeatsUniformOnSkewedData) {
  // A dominant heavy cluster plus a tiny far-away cluster: uniform
  // sampling routinely misses the tiny cluster, sensitivity sampling
  // keeps it (via the distance term). Compare worst-case coreset error
  // over centers that isolate the tiny cluster.
  Rng rng = make_rng(41);
  Matrix pts(1000, 2);
  std::normal_distribution<double> noise(0.0, 0.5);
  for (std::size_t i = 0; i < 990; ++i) {
    pts(i, 0) = noise(rng);
    pts(i, 1) = noise(rng);
  }
  for (std::size_t i = 990; i < 1000; ++i) {
    pts(i, 0) = 100.0 + noise(rng);
    pts(i, 1) = 100.0 + noise(rng);
  }
  const Dataset d(std::move(pts));
  const Matrix probe{{0.0, 0.0}, {100.0, 100.0}};

  double sens_err = 0.0;
  double unif_err = 0.0;
  for (std::uint64_t t = 0; t < 8; ++t) {
    SensitivitySampleOptions opts;
    opts.k = 2;
    opts.sample_size = 40;
    Rng r1 = make_rng(42 + t);
    Rng r2 = make_rng(142 + t);
    sens_err += coreset_eps_for(sensitivity_sample(d, opts, r1), d, probe);
    unif_err += coreset_eps_for(uniform_sample_coreset(d, 40, r2), d, probe);
  }
  EXPECT_LT(sens_err, unif_err);
}

TEST(Fss, CoresetEpsilonPropertyWithDelta) {
  const Dataset d = mixture(600, 30, 3, 43);
  FssOptions opts;
  opts.k = 3;
  opts.epsilon = 0.3;
  opts.sample_size = 250;
  Rng rng = make_rng(44);
  const Coreset cs = fss_coreset(d, opts, rng);
  EXPECT_TRUE(cs.basis.has_value());
  EXPECT_GE(cs.delta, 0.0);

  Rng crng = make_rng(45);
  double worst = 0.0;
  for (int trial = 0; trial < 10; ++trial) {
    const Matrix centers = Matrix::gaussian(3, 30, crng, 2.0);
    worst = std::max(worst, coreset_eps_for(cs, d, centers));
  }
  KMeansOptions kopts;
  kopts.k = 3;
  kopts.seed = 46;
  worst = std::max(worst, coreset_eps_for(cs, d, kmeans(d, kopts).centers));
  EXPECT_LT(worst, 0.3);
}

TEST(Fss, DeltaEqualsDiscardedEnergy) {
  // Δ against the Jacobi oracle's tail Σ_{j>t} λ_j(AᵀA), on a tall input,
  // a wide one (n < d, where the SVD takes the A Aᵀ Gram) and one of
  // rank 3 < t, whose Δ is zero.
  Rng rng = make_rng(47);
  const Matrix tall = Matrix::gaussian(100, 20, rng);
  const Matrix wide = Matrix::gaussian(15, 40, rng);
  const Matrix rank3 =
      matmul(Matrix::gaussian(100, 3, rng), Matrix::gaussian(3, 20, rng));
  for (const Matrix* points : {&tall, &wide, &rank3}) {
    SCOPED_TRACE(std::to_string(points->rows()) + "x" +
                 std::to_string(points->cols()) +
                 (points == &rank3 ? " rank 3" : ""));
    const Dataset d(*points);
    FssOptions opts;
    opts.k = 2;
    opts.intrinsic_dim = 5;
    opts.sample_size = 200;  // >= n => passthrough sampling, pure PCA effect
    Rng frng = make_rng(48);
    const Coreset cs = fss_coreset(d, opts, frng);
    const std::vector<double> lambda =
        test::eigen_symmetric_jacobi(matmul_at_b(*points, *points)).values;
    double tail = 0.0;
    for (std::size_t j = 5; j < lambda.size(); ++j) tail += lambda[j];
    EXPECT_NEAR(cs.delta, tail, 1e-6 * (1.0 + tail));
    // With passthrough sampling the coreset is exact: cost identity holds
    // for the optimal 1-mean center of the full data.
    const Matrix mu(1, d.dim());  // origin: near-optimal for centered data
    EXPECT_NEAR(coreset_cost(cs, mu), kmeans_cost(d, mu),
                0.02 * kmeans_cost(d, mu));
  }
}

TEST(Fss, BasisRowsOrthonormal) {
  const Dataset d = mixture(200, 16, 2, 49);
  FssOptions opts;
  opts.k = 2;
  opts.sample_size = 50;
  Rng rng = make_rng(50);
  const Coreset cs = fss_coreset(d, opts, rng);
  ASSERT_TRUE(cs.basis.has_value());
  const Matrix btb = matmul_a_bt(*cs.basis, *cs.basis);  // t x t
  EXPECT_LT(
      frobenius_norm(subtract(btb, identity(btb.rows()))), 1e-9);
}

TEST(Fss, SolveOnCoresetApproximatesFullSolve) {
  const Dataset d = mixture(800, 24, 3, 51);
  FssOptions opts;
  opts.k = 3;
  opts.sample_size = 300;
  Rng rng = make_rng(52);
  const Coreset cs = fss_coreset(d, opts, rng);

  KMeansOptions kopts;
  kopts.k = 3;
  kopts.restarts = 8;
  kopts.seed = 53;
  const double full_cost = kmeans(d, kopts).cost;
  const KMeansResult on_coreset = kmeans(cs.points, kopts);
  const Matrix lifted = matmul(on_coreset.centers, *cs.basis);
  EXPECT_LT(kmeans_cost(d, lifted), 1.25 * full_cost);
}

TEST(Fss, SizeHeuristicClampsSanely) {
  EXPECT_GE(fss_coreset_size(2, 0.3, 0.1, 100000), 8u);
  EXPECT_LE(fss_coreset_size(2, 0.05, 0.1, 500), 500u);
  EXPECT_THROW((void)fss_coreset_size(2, 0.0, 0.1, 100), precondition_error);
}

TEST(Fss, RejectsEmptyInput) {
  FssOptions opts;
  Rng rng = make_rng(54);
  EXPECT_THROW((void)fss_coreset(Dataset(), opts, rng), precondition_error);
}

Coreset make_coreset(std::size_t n, std::size_t d, std::uint64_t salt) {
  Rng rng = make_rng(97, salt);
  std::normal_distribution<double> normal;
  std::uniform_real_distribution<double> uniform;
  Matrix pts(n, d);
  std::vector<double> weights(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) pts(i, j) = normal(rng);
    weights[i] = 1.0 + uniform(rng);
  }
  Coreset c;
  c.points = Dataset(std::move(pts), std::move(weights));
  return c;
}

/// A dataset's weighted rows as a sortable multiset.
std::vector<std::vector<double>> weighted_rows(const Dataset& ds) {
  std::vector<std::vector<double>> rows;
  rows.reserve(ds.size());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    auto p = ds.point(i);
    std::vector<double> row(p.begin(), p.end());
    row.push_back(ds.weight(i));
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(Merge, WeightedUnionIsOrderInvariantAndStable) {
  const Coreset a = make_coreset(7, 4, 0xaULL);
  const Coreset b = make_coreset(5, 4, 0xbULL);

  const Dataset ab = merge_weighted(a, b);
  const Dataset ba = merge_weighted(b, a);
  ASSERT_EQ(ab.size(), 12u);
  ASSERT_EQ(ba.size(), 12u);
  // Permuting the operands permutes rows but preserves the weighted
  // point multiset exactly — no tolerance needed, the merge never
  // touches a coordinate.
  EXPECT_EQ(weighted_rows(ab), weighted_rows(ba));
  EXPECT_NE(ab.point(0)[0], ba.point(0)[0]);  // but the order did move

  // Fixed operand order is bitwise stable across repeated folds.
  const Dataset again = merge_weighted(a, b);
  ASSERT_EQ(again.size(), ab.size());
  for (std::size_t i = 0; i < ab.size(); ++i) {
    auto x = ab.point(i);
    auto y = again.point(i);
    EXPECT_TRUE(std::equal(x.begin(), x.end(), y.begin()));
    EXPECT_EQ(ab.weight(i), again.weight(i));
  }
}

TEST(Merge, UnionSkipsEmptiesAndConcatenatesInOrder) {
  const Coreset a = make_coreset(3, 4, 0xcULL);
  const Coreset b = make_coreset(2, 4, 0xdULL);
  std::vector<Dataset> pieces;
  pieces.push_back({});
  pieces.push_back(a.points);
  pieces.push_back({});
  pieces.push_back(b.points);
  const Dataset u = merge_union(std::move(pieces));
  ASSERT_EQ(u.size(), 5u);
  // Concatenation order: a's rows then b's rows, coordinates untouched.
  EXPECT_EQ(u.point(0)[0], a.points.point(0)[0]);
  EXPECT_EQ(u.point(3)[0], b.points.point(0)[0]);
  EXPECT_EQ(u.weight(4), b.points.weight(1));

  EXPECT_EQ(merge_union({}).size(), 0u);
  std::vector<Dataset> empties(3);
  EXPECT_EQ(merge_union(std::move(empties)).size(), 0u);
}

}  // namespace
}  // namespace ekm
