// Tests for the batched assignment kernel (src/kmeans/assign.*) and the
// thread pool underneath it: agreement with the naive per-point scan
// across n/k/d sweeps, and bitwise thread-count determinism of kmeans().
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/parallel.hpp"
#include "data/generators.hpp"
#include "kmeans/assign.hpp"
#include "kmeans/cost.hpp"
#include "kmeans/lloyd.hpp"

namespace ekm {
namespace {

Dataset random_weighted(std::size_t n, std::size_t d, std::uint64_t seed) {
  Rng rng = make_rng(seed);
  Matrix pts = Matrix::gaussian(n, d, rng, 2.0);
  std::vector<double> w(n);
  std::uniform_real_distribution<double> unif(0.0, 3.0);
  for (double& v : w) v = unif(rng);
  return Dataset(std::move(pts), std::move(w));
}

// The kernel computes d² through ‖p‖²+‖c‖²−2⟨p,c⟩, the naive scan through
// Σ(p−c)²; the two differ by O(eps·‖p‖·‖c‖), so when the winners differ
// the two candidates must be equidistant to that precision.
void expect_agreement(const Dataset& data, const Matrix& centers) {
  const BatchAssignment batch = assign_batch(data.points(), centers);
  ASSERT_EQ(batch.index.size(), data.size());
  ASSERT_EQ(batch.sq_dist.size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    const NearestCenter nc = nearest_center(data.point(i), centers);
    const double tol = 1e-9 * (1.0 + nc.sq_dist);
    if (batch.index[i] != nc.index) {
      const double via_batch =
          squared_distance(data.point(i), centers.row(batch.index[i]));
      EXPECT_NEAR(via_batch, nc.sq_dist, tol)
          << "point " << i << ": batch picked " << batch.index[i]
          << ", naive picked " << nc.index;
    }
    EXPECT_NEAR(batch.sq_dist[i], nc.sq_dist, tol) << "point " << i;
  }
}

TEST(AssignKernel, AgreesWithNaiveAcrossShapes) {
  const struct {
    std::size_t n, d, k;
  } shapes[] = {{1, 1, 1},   {7, 1, 3},    {64, 1, 9},  {100, 2, 10},
                {128, 3, 8}, {200, 17, 7}, {333, 33, 23}, {512, 64, 50}};
  std::uint64_t seed = 1;
  for (const auto& s : shapes) {
    const Dataset data = random_weighted(s.n, s.d, seed++);
    Rng rng = make_rng(900 + seed);
    const Matrix centers = Matrix::gaussian(s.k, s.d, rng, 2.0);
    expect_agreement(data, centers);
  }
}

TEST(AssignKernel, DuplicatePointsAndCentersTieToLowestIndex) {
  // Every point duplicated; two identical centers. Both the naive scan
  // and the kernel must resolve ties to the lowest center index.
  Matrix pts(6, 2);
  for (std::size_t i = 0; i < 6; ++i) {
    pts(i, 0) = static_cast<double>(i / 2);  // three distinct locations, x2
    pts(i, 1) = -1.0;
  }
  const Dataset data(std::move(pts));
  const Matrix centers{{0.0, -1.0}, {0.0, -1.0}, {2.0, -1.0}};
  const BatchAssignment batch = assign_batch(data.points(), centers);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const NearestCenter nc = nearest_center(data.point(i), centers);
    EXPECT_EQ(batch.index[i], nc.index) << "point " << i;
    EXPECT_DOUBLE_EQ(batch.sq_dist[i], nc.sq_dist) << "point " << i;
  }
  EXPECT_EQ(batch.index[0], 0u);  // tie between centers 0 and 1
}

TEST(AssignKernel, WeightedCostMatchesNaiveSum) {
  const Dataset data = random_weighted(257, 9, 77);
  Rng rng = make_rng(78);
  const Matrix centers = Matrix::gaussian(6, 9, rng);
  double naive = 0.0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    naive += data.weight(i) * nearest_center(data.point(i), centers).sq_dist;
  }
  std::vector<std::size_t> idx(data.size());
  const double batched = assign_and_cost(data, centers, idx);
  EXPECT_NEAR(batched, naive, 1e-9 * (1.0 + naive));
  EXPECT_EQ(idx, assign_to_centers(data, centers));

  // Precomputed point norms (the per-iteration cache Lloyd uses) must be
  // bitwise-equivalent to the internally computed ones.
  const std::vector<double> norms = row_sq_norms(data.points());
  EXPECT_EQ(assign_and_cost(data, centers, idx, {}, norms), batched);
}

TEST(AssignKernel, UpdateMinSqDistMatchesNaive) {
  const Dataset data = random_weighted(300, 5, 11);
  Rng rng = make_rng(12);
  const Matrix first = Matrix::gaussian(4, 5, rng);
  const Matrix second = Matrix::gaussian(3, 5, rng);
  std::vector<double> d2(data.size(), std::numeric_limits<double>::infinity());
  update_min_sq_dist(data.points(), first, d2);
  update_min_sq_dist(data.points(), second, d2);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const double naive =
        std::min(nearest_center(data.point(i), first).sq_dist,
                 nearest_center(data.point(i), second).sq_dist);
    EXPECT_NEAR(d2[i], naive, 1e-9 * (1.0 + naive)) << "point " << i;
  }
}

TEST(AssignKernel, RejectsShapeMismatch) {
  const Dataset data = random_weighted(4, 3, 5);
  EXPECT_THROW((void)assign_batch(data.points(), Matrix()),
               precondition_error);
  EXPECT_THROW((void)assign_batch(data.points(), Matrix{{1.0, 2.0}}),
               precondition_error);
}

// EKM_THREADS=1 vs EKM_THREADS=8 must produce bitwise-identical results;
// set_parallel_threads() is the same code path the env variable seeds.
TEST(ThreadDeterminism, KMeansResultIdenticalAcrossThreadCounts) {
  GaussianMixtureSpec spec;
  spec.n = 2500;
  spec.dim = 24;
  spec.k = 6;
  Rng rng = make_rng(321);
  const Dataset data = make_gaussian_mixture(spec, rng);

  KMeansOptions opts;
  opts.k = 6;
  opts.restarts = 2;
  opts.seed = 99;

  set_parallel_threads(1);
  ASSERT_EQ(parallel_threads(), 1u);
  const KMeansResult serial = kmeans(data, opts);

  set_parallel_threads(8);
  ASSERT_EQ(parallel_threads(), 8u);
  const KMeansResult threaded = kmeans(data, opts);
  set_parallel_threads(0);  // restore default

  EXPECT_TRUE(serial.centers == threaded.centers);  // bitwise (operator==)
  EXPECT_EQ(serial.cost, threaded.cost);
  EXPECT_EQ(serial.assignment, threaded.assignment);
  EXPECT_EQ(serial.iterations, threaded.iterations);
}

TEST(ThreadDeterminism, CostAndSeedingIdenticalAcrossThreadCounts) {
  const Dataset data = random_weighted(3000, 16, 1234);

  set_parallel_threads(1);
  Rng rng1 = make_rng(7);
  const Matrix seeds1 = kmeanspp_seed(data, 12, rng1);
  const double cost1 = kmeans_cost(data, seeds1);

  set_parallel_threads(8);
  Rng rng2 = make_rng(7);
  const Matrix seeds2 = kmeanspp_seed(data, 12, rng2);
  const double cost2 = kmeans_cost(data, seeds2);
  set_parallel_threads(0);

  EXPECT_TRUE(seeds1 == seeds2);
  EXPECT_EQ(cost1, cost2);
}

}  // namespace
}  // namespace ekm
