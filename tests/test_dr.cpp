// Tests for src/dr: JL projections (norm preservation, data
// obliviousness), PCA projections, and linear-map lift-backs.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "data/generators.hpp"
#include "dr/jl.hpp"
#include "dr/linear_map.hpp"
#include "dr/pca.hpp"
#include "kmeans/cost.hpp"
#include "matrix_helpers.hpp"

namespace ekm {
namespace {

using test::frobenius_norm;
using test::identity;
using test::subtract;

TEST(LinearMap, AppliesProjectionToRows) {
  const LinearMap map(Matrix{{1.0, 0.0}, {0.0, 2.0}, {3.0, 0.0}});
  const Matrix pts{{1.0, 1.0, 1.0}};
  const Matrix out = map.apply(pts);
  ASSERT_EQ(out.cols(), 2u);
  EXPECT_DOUBLE_EQ(out(0, 0), 4.0);  // 1*1 + 0 + 1*3
  EXPECT_DOUBLE_EQ(out(0, 1), 2.0);
  EXPECT_THROW((void)map.apply(Matrix(1, 4)), precondition_error);
}

TEST(LinearMap, PreservesWeights) {
  const LinearMap map(Matrix{{1.0}, {1.0}});
  const Dataset d(Matrix{{1.0, 2.0}}, {7.0});
  const Dataset out = map.apply(d);
  EXPECT_TRUE(out.is_weighted());
  EXPECT_DOUBLE_EQ(out.weight(0), 7.0);
}

TEST(LinearMap, LiftRecoversPointsInRowSpace) {
  // For x in the row space of Π^T (i.e. x = y Π for some y), lifting the
  // projection with the Moore–Penrose inverse recovers the min-norm
  // preimage whose projection is exact.
  Rng rng = make_rng(21);
  const Matrix pi = Matrix::gaussian(8, 3, rng);
  const LinearMap map(pi);
  const Matrix y = Matrix::gaussian(5, 3, rng);
  const Matrix lifted = map.lift(y);                // 5 x 8
  const Matrix reprojected = map.apply(lifted);     // 5 x 3
  EXPECT_LT(frobenius_norm(subtract(reprojected, y)),
            1e-9 * (1.0 + frobenius_norm(y)));
}

TEST(Jl, TargetDimIsClampedAndGrowsWithN) {
  // Clamped to [4, input_dim]: a tight ε asks for more dims than the
  // input has, and no map is narrower than 4.
  EXPECT_EQ(jl_target_dim(0.999, 1, 1, 0.9, 784), 6u);
  EXPECT_EQ(jl_target_dim(0.01, 1000, 2, 0.1, 784), 784u);
  EXPECT_EQ(jl_target_dim(0.999, 1, 1, 0.9, 5), 5u);
  EXPECT_EQ(jl_target_dim(0.01, 1000, 2, 0.1, 2), 4u);
  // ceil(4 ln(4nk/δ) / ε²), non-decreasing in n.
  const double expect = std::ceil(4.0 * std::log(4.0 * 2000.0 / 0.1) / 0.25);
  EXPECT_EQ(jl_target_dim(0.5, 1000, 2, 0.1, 784),
            static_cast<std::size_t>(expect));
  std::size_t prev = 0;
  for (std::size_t n = 1; n <= (1u << 20); n *= 4) {
    const std::size_t dim = jl_target_dim(0.3, n, 5, 0.1, 1u << 20);
    EXPECT_GE(dim, prev) << n;
    prev = dim;
  }
  EXPECT_THROW((void)jl_target_dim(0.0, 10, 2, 0.1, 784), precondition_error);
  EXPECT_THROW((void)jl_target_dim(0.5, 10, 2, 1.5, 784), precondition_error);
}

TEST(Jl, DataObliviousSameSeedSameMatrix) {
  for (JlFamily fam :
       {JlFamily::kGaussian, JlFamily::kRademacher, JlFamily::kSparse}) {
    const LinearMap a = make_jl_projection(64, 16, 99, fam);
    const LinearMap b = make_jl_projection(64, 16, 99, fam);
    EXPECT_EQ(a.projection(), b.projection());
    const LinearMap c = make_jl_projection(64, 16, 100, fam);
    EXPECT_NE(c.projection(), a.projection());
  }
}

struct JlCase {
  JlFamily family;
  std::size_t d;
  std::size_t d_out;
  double tolerance;  // empirical distortion allowance
};

class JlNormPreservation : public ::testing::TestWithParam<JlCase> {};

TEST_P(JlNormPreservation, MedianDistortionSmall) {
  const JlCase c = GetParam();
  const LinearMap map = make_jl_projection(c.d, c.d_out, 7, c.family);
  Rng rng = make_rng(23);
  const Matrix pts = Matrix::gaussian(200, c.d, rng);
  const Matrix proj = map.apply(pts);
  std::vector<double> ratios;
  for (std::size_t i = 0; i < pts.rows(); ++i) {
    const double before = norm2(pts.row(i));
    const double after = norm2(proj.row(i));
    ratios.push_back(after / before);
  }
  // The median distortion should be near 1 with deviation ~1/sqrt(d_out).
  std::nth_element(ratios.begin(), ratios.begin() + ratios.size() / 2,
                   ratios.end());
  const double median = ratios[ratios.size() / 2];
  EXPECT_NEAR(median, 1.0, c.tolerance);
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndDims, JlNormPreservation,
    ::testing::Values(JlCase{JlFamily::kGaussian, 256, 64, 0.15},
                      JlCase{JlFamily::kGaussian, 256, 128, 0.10},
                      JlCase{JlFamily::kRademacher, 256, 64, 0.15},
                      JlCase{JlFamily::kRademacher, 512, 128, 0.10},
                      JlCase{JlFamily::kSparse, 256, 64, 0.20},
                      JlCase{JlFamily::kSparse, 512, 128, 0.12}));

TEST(Jl, PreservesKMeansCostApproximately) {
  // Lemma 4.1 in action: the k-means cost of a projected dataset under
  // projected centers tracks the original cost.
  Rng rng = make_rng(24);
  GaussianMixtureSpec spec;
  spec.n = 400;
  spec.dim = 300;
  spec.k = 3;
  const Dataset d = make_gaussian_mixture(spec, rng);
  const LinearMap map = make_jl_projection(300, 80, 5);
  const Dataset proj = map.apply(d);

  const Matrix centers = Matrix::gaussian(3, 300, rng);
  const Matrix proj_centers = map.apply(centers);
  const double orig = kmeans_cost(d, centers);
  const double after = kmeans_cost(proj, proj_centers);
  EXPECT_NEAR(after / orig, 1.0, 0.35);
}

TEST(Pca, ProjectsOntoPrincipalSubspace) {
  // Points on a line in R^5 plus tiny noise: t=1 captures nearly all.
  Rng rng = make_rng(25);
  Matrix pts(100, 5);
  std::normal_distribution<double> noise(0.0, 1e-3);
  for (std::size_t i = 0; i < 100; ++i) {
    const double t = static_cast<double>(i) / 10.0;
    for (std::size_t j = 0; j < 5; ++j) {
      pts(i, j) = t * static_cast<double>(j + 1) + noise(rng);
    }
  }
  const Dataset d(std::move(pts));
  const PcaProjection pca = pca_project(d, 1);
  EXPECT_EQ(pca.coords.dim(), 1u);
  EXPECT_LT(pca.residual_sq, 1e-2);

  // Residual identity: ||A||² = ||coords||² + residual.
  const double total = frobenius_norm(d.points());
  const double kept = frobenius_norm(pca.coords.points());
  EXPECT_NEAR(total * total, kept * kept + pca.residual_sq,
              1e-6 * (1.0 + total * total));
}

TEST(Pca, BasisOrthonormal) {
  Rng rng = make_rng(27);
  const Dataset d(Matrix::gaussian(30, 10, rng));
  const PcaProjection pca = pca_project(d, 3);
  const Matrix& v = pca.map.projection();
  EXPECT_LT(
      frobenius_norm(subtract(matmul_at_b(v, v), identity(3))),
      1e-10);
}

TEST(Pca, ClampsRankAndRejectsEmpty) {
  Rng rng = make_rng(28);
  const Dataset d(Matrix::gaussian(5, 3, rng));
  const PcaProjection pca = pca_project(d, 100);
  EXPECT_EQ(pca.coords.dim(), 3u);
  EXPECT_EQ(pca.residual_sq, 0.0);  // nothing discarded at t = min(n, d)
  EXPECT_THROW((void)pca_project(Dataset(), 2), precondition_error);
}

TEST(Pca, FssIntrinsicDimFormula) {
  // t = k + ceil(4k/ε²) - 1, clamped to min(n, d).
  EXPECT_EQ(fss_intrinsic_dim(2, 1.0, 1000, 1000), 2u + 8u - 1u);
  EXPECT_EQ(fss_intrinsic_dim(2, 0.5, 1000, 1000), 2u + 32u - 1u);
  EXPECT_EQ(fss_intrinsic_dim(2, 0.1, 20, 1000), 20u);  // clamped by n
  EXPECT_THROW((void)fss_intrinsic_dim(2, 0.0, 10, 10), precondition_error);
}

TEST(Pca, WeightsSurviveProjection) {
  const Dataset d(Matrix{{1.0, 0.0}, {0.0, 1.0}}, {2.0, 5.0});
  const PcaProjection pca = pca_project(d, 1);
  EXPECT_TRUE(pca.coords.is_weighted());
  EXPECT_DOUBLE_EQ(pca.coords.weight(1), 5.0);
}

}  // namespace
}  // namespace ekm
