// Tests for the merge-and-reduce streaming coreset.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "cr/streaming.hpp"
#include "data/generators.hpp"
#include "kmeans/cost.hpp"
#include "kmeans/lloyd.hpp"

namespace ekm {
namespace {

Dataset mixture(std::size_t n, std::size_t dim, std::size_t k,
                std::uint64_t seed) {
  Rng rng = make_rng(seed);
  GaussianMixtureSpec spec;
  spec.n = n;
  spec.dim = dim;
  spec.k = k;
  return make_gaussian_mixture(spec, rng);
}

StreamingCoresetOptions small_opts() {
  StreamingCoresetOptions opts;
  opts.k = 3;
  opts.leaf_size = 128;
  opts.coreset_size = 96;
  opts.seed = 7;
  return opts;
}

TEST(Streaming, CountsAndMemoryStayLogarithmic) {
  StreamingCoreset stream(small_opts());
  const Dataset d = mixture(4000, 6, 3, 400);
  stream.insert(d);
  EXPECT_EQ(stream.points_seen(), 4000u);
  // 4000/128 = 31 leaves -> <= ceil(log2(31)) + 1 live levels.
  EXPECT_LE(stream.live_levels(), 6u);
  // Resident memory is levels * coreset_size + partial leaf, not O(n).
  EXPECT_LT(stream.resident_points(), 6u * 96 * 2 + 128);
}

TEST(Streaming, TotalWeightTracksStreamLength) {
  StreamingCoreset stream(small_opts());
  const Dataset d = mixture(3000, 4, 3, 401);
  stream.insert(d);
  const Coreset cs = stream.finalize();
  EXPECT_NEAR(cs.points.total_weight(), 3000.0, 0.15 * 3000.0);
}

TEST(Streaming, FinalCoresetSupportsNearOptimalSolve) {
  const Dataset d = mixture(5000, 8, 3, 402);
  StreamingCoresetOptions opts = small_opts();
  opts.coreset_size = 160;
  StreamingCoreset stream(opts);
  // Feed in adversarial order: sorted by first coordinate, so early
  // leaves see only part of the space.
  std::vector<std::size_t> order(d.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return d.point(a)[0] < d.point(b)[0];
  });
  Matrix sorted(d.size(), d.dim());
  for (std::size_t i = 0; i < order.size(); ++i) {
    std::copy_n(d.point(order[i]).data(), d.dim(), sorted.row_ptr(i));
  }
  stream.insert(Dataset(std::move(sorted)));

  const Coreset cs = stream.finalize();
  EXPECT_LE(cs.size(), 2u * opts.coreset_size + opts.leaf_size);

  KMeansOptions kopts;
  kopts.k = 3;
  kopts.restarts = 8;
  kopts.seed = 11;
  const double full = kmeans(d, kopts).cost;
  const KMeansResult on_cs = kmeans(cs.points, kopts);
  EXPECT_LT(kmeans_cost(d, on_cs.centers), 1.35 * full);
}

TEST(Streaming, FinalizeIsNonDestructive) {
  StreamingCoreset stream(small_opts());
  stream.insert(mixture(500, 4, 3, 403));
  const Coreset first = stream.finalize();
  stream.insert(mixture(500, 4, 3, 404));
  const Coreset second = stream.finalize();
  EXPECT_EQ(stream.points_seen(), 1000u);
  EXPECT_NEAR(second.points.total_weight(), 1000.0, 200.0);
  EXPECT_NEAR(first.points.total_weight(), 500.0, 100.0);
}

TEST(Streaming, PartialLeafOnlyStream) {
  StreamingCoreset stream(small_opts());
  const Dataset d = mixture(50, 4, 3, 405);  // less than one leaf
  stream.insert(d);
  EXPECT_EQ(stream.live_levels(), 0u);
  const Coreset cs = stream.finalize();
  EXPECT_DOUBLE_EQ(cs.points.total_weight(), 50.0);  // exact: no sampling yet
}

TEST(Streaming, RejectsDimensionChangeAndEmptyFinalize) {
  StreamingCoreset stream(small_opts());
  EXPECT_THROW((void)stream.finalize(), precondition_error);
  stream.insert(Dataset(Matrix{{1.0, 2.0}}));
  EXPECT_THROW(stream.insert(Dataset(Matrix{{1.0, 2.0, 3.0}})),
               precondition_error);
}

TEST(Streaming, EquivalentToBatchCoresetQuality) {
  // Stream vs one-shot sensitivity sampling at the same budget: the
  // streaming result may be slightly worse (merge-reduce error growth)
  // but must stay in the same quality class.
  const Dataset d = mixture(4000, 6, 3, 406);
  KMeansOptions kopts;
  kopts.k = 3;
  kopts.restarts = 6;
  kopts.seed = 13;
  const double full = kmeans(d, kopts).cost;

  StreamingCoresetOptions opts = small_opts();
  opts.coreset_size = 128;
  StreamingCoreset stream(opts);
  stream.insert(d);
  const KMeansResult via_stream = kmeans(stream.finalize().points, kopts);

  SensitivitySampleOptions sopts;
  sopts.k = 3;
  sopts.sample_size = 128;
  Rng rng = make_rng(407);
  const KMeansResult via_batch =
      kmeans(sensitivity_sample(d, sopts, rng).points, kopts);

  const double stream_ratio = kmeans_cost(d, via_stream.centers) / full;
  const double batch_ratio = kmeans_cost(d, via_batch.centers) / full;
  EXPECT_LT(stream_ratio, batch_ratio + 0.3);
  EXPECT_LT(stream_ratio, 1.4);
}

}  // namespace
}  // namespace ekm
