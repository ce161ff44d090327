// Tests for src/distributed: disPCA merge quality, disSS protocol and
// coreset property, BKLW end-to-end.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/parallel.hpp"
#include "core/pipeline.hpp"
#include "coreset_eps.hpp"
#include "cr/coreset.hpp"
#include "data/generators.hpp"
#include "distributed/bklw.hpp"
#include "distributed/dispca.hpp"
#include "distributed/disss.hpp"
#include "dr/pca.hpp"
#include "kmeans/cost.hpp"
#include "kmeans/lloyd.hpp"
#include "matrix_helpers.hpp"
#include "net/summary_codec.hpp"
#include "swapped_frame.hpp"

namespace ekm {
namespace {

// In the protocols the second uplink frame is disPCA's V or disSS's
// coreset, the first downlink frame BKLW's basis broadcast.
using test::coreset_eps_for;
using test::frobenius_norm;
using test::identity;
using test::Link;
using test::subtract;
using test::SwappedFrame;

std::vector<Dataset> make_parts(std::size_t n, std::size_t dim, std::size_t k,
                                std::size_t m, std::uint64_t seed) {
  Rng rng = make_rng(seed);
  GaussianMixtureSpec spec;
  spec.n = n;
  spec.dim = dim;
  spec.k = k;
  const Dataset d = make_gaussian_mixture(spec, rng);
  return partition_random(d, m, rng);
}

TEST(DisPca, MergedSubspaceCapturesEnergyLikeCentralizedPca) {
  const std::vector<Dataset> parts = make_parts(600, 24, 3, 4, 80);
  const Dataset full = concatenate(parts);

  Network net(4);
  Stopwatch work;
  DisPcaOptions opts;
  opts.t1 = 6;
  opts.t2 = 6;
  const DisPcaResult res = dispca(parts, opts, net, work);
  EXPECT_EQ(res.v.rows(), 24u);
  EXPECT_EQ(res.v.cols(), 6u);

  // Orthonormal columns.
  const Matrix vtv = matmul_at_b(res.v, res.v);
  EXPECT_LT(frobenius_norm(subtract(vtv, identity(6))), 1e-8);

  // Captured energy within a whisker of centralized top-6 PCA.
  const Matrix coords = matmul(full.points(), res.v);
  const double captured = std::pow(frobenius_norm(coords), 2);
  const PcaProjection central = pca_project(full, 6);
  const double central_captured =
      std::pow(frobenius_norm(central.coords.points()), 2);
  EXPECT_GT(captured, 0.95 * central_captured);

  // Communication: each source ships t1 + t1*d scalars (+ headers).
  EXPECT_EQ(net.total_uplink().scalars, 4u * (6 + 6 * 24));
  EXPECT_GT(work.total_seconds(), 0.0);
}

TEST(DisPca, SingleSourceEqualsLocalPca) {
  const std::vector<Dataset> parts = make_parts(200, 10, 2, 1, 81);
  Network net(1);
  Stopwatch work;
  DisPcaOptions opts;
  opts.t1 = 3;
  opts.t2 = 3;
  const DisPcaResult res = dispca(parts, opts, net, work);
  const PcaProjection local = pca_project(parts[0], 3);
  // Subspaces coincide: projector difference is ~0.
  const Matrix p1 = matmul_a_bt(res.v, res.v);
  const Matrix p2 = matmul_a_bt(local.map.projection(), local.map.projection());
  EXPECT_LT(frobenius_norm(subtract(p1, p2)), 1e-6);
}

TEST(DisPca, ToleratesEmptySource) {
  std::vector<Dataset> parts = make_parts(200, 8, 2, 2, 82);
  parts.push_back(Dataset());  // third, empty source
  Network net(3);
  Stopwatch work;
  DisPcaOptions opts;
  opts.t1 = 4;
  opts.t2 = 4;
  const DisPcaResult res = dispca(parts, opts, net, work);
  EXPECT_EQ(res.v.cols(), 4u);
}

// The collect site checks each decoded (Σ, V) pair against the round's
// dimension: a V of d - 1 rows is bad input that names the source and
// both shapes, not a later shape mismatch in the merge.
TEST(DisPca, RejectsSummaryOfWrongShape) {
  const std::vector<Dataset> parts = make_parts(300, 8, 2, 3, 92);
  Rng rng = make_rng(93);
  SwappedFrame net(3, 1, Link::kUplink, 2,
                   encode_matrix(Matrix::gaussian(7, 4, rng)));
  Stopwatch work;
  DisPcaOptions opts;
  opts.t1 = 4;
  opts.t2 = 4;
  try {
    (void)dispca(parts, opts, net, work);
    FAIL() << "a 7-row V in an 8-dimensional round was accepted";
  } catch (const precondition_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("source 1 sent Σ 1x4 and V 7x4"), std::string::npos)
        << what;
    EXPECT_NE(what.find("V 8xr with 1 <= r <= 4"), std::string::npos) << what;
  }
}

// disSS's collect sites check each decoded coreset against the round's
// width. A coreset of d - 1 columns names the source and both widths:
// among responders, before it can set the width of the union, and as the
// only responder, where nothing else would notice.
TEST(DisSs, RejectsCoresetOfWrongWidth) {
  for (const std::size_t sources : {3u, 1u}) {
    SCOPED_TRACE(::testing::Message() << sources << " sources");
    const std::vector<Dataset> parts = make_parts(300, 8, 2, sources, 94);
    Rng rng = make_rng(95);
    Coreset narrow;
    narrow.points = Dataset(Matrix::gaussian(5, 7, rng));
    const std::size_t victim = sources - 1;
    SwappedFrame net(sources, victim, Link::kUplink, 2, encode_coreset(narrow));
    Stopwatch work;
    DisSsOptions opts;
    opts.k = 2;
    opts.total_samples = 60;
    try {
      (void)disss(parts, opts, net, work, 96);
      FAIL() << "a 7-column coreset in an 8-dimensional round was accepted";
    } catch (const precondition_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("source " + std::to_string(victim) +
                          " sent a coreset of 7 columns"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("expected 8 columns"), std::string::npos) << what;
    }
  }
}

TEST(DisSs, CoresetWeightApproximatesCardinality) {
  const std::vector<Dataset> parts = make_parts(800, 12, 3, 5, 83);
  Network net(5);
  Stopwatch work;
  DisSsOptions opts;
  opts.k = 3;
  opts.total_samples = 120;
  const Coreset cs = disss(parts, opts, net, work, 84);
  EXPECT_GT(cs.size(), 0u);
  EXPECT_NEAR(cs.points.total_weight(), 800.0, 80.0);
}

TEST(DisSs, CoresetEpsilonProperty) {
  const std::vector<Dataset> parts = make_parts(1000, 10, 3, 4, 85);
  const Dataset full = concatenate(parts);
  Network net(4);
  Stopwatch work;
  DisSsOptions opts;
  opts.k = 3;
  opts.total_samples = 300;
  const Coreset cs = disss(parts, opts, net, work, 86);

  Rng crng = make_rng(87);
  double worst = 0.0;
  for (int t = 0; t < 10; ++t) {
    const Matrix centers = Matrix::gaussian(3, 10, crng, 3.0);
    worst = std::max(worst, coreset_eps_for(cs, full, centers));
  }
  KMeansOptions kopts;
  kopts.k = 3;
  kopts.seed = 88;
  worst = std::max(worst, coreset_eps_for(cs, full, kmeans(full, kopts).centers));
  EXPECT_LT(worst, 0.3);
}

TEST(DisSs, ProtocolLedger) {
  const std::vector<Dataset> parts = make_parts(300, 6, 2, 3, 89);
  Network net(3);
  Stopwatch work;
  DisSsOptions opts;
  opts.k = 2;
  opts.total_samples = 60;
  (void)disss(parts, opts, net, work, 90);
  // Per source: 1 cost scalar + the coreset frame = 2 uplink messages.
  EXPECT_EQ(net.total_uplink().messages, 6u);
  // Per source: 1 allocation scalar downlink.
  EXPECT_EQ(net.total_downlink().messages, 3u);
}

TEST(DisSs, AllocationProportionalToCost) {
  // Source 1 holds the dispersed half (higher local cost): it must get
  // (almost all of) the samples. Build two sources directly.
  Rng rng = make_rng(91);
  Matrix tight(200, 4);   // all points identical -> zero local cost
  Matrix spread = Matrix::gaussian(200, 4, rng, 10.0);
  std::vector<Dataset> parts;
  parts.emplace_back(std::move(tight));
  parts.emplace_back(std::move(spread));

  Network net(2);
  Stopwatch work;
  DisSsOptions opts;
  opts.k = 2;
  opts.total_samples = 50;
  const Coreset cs = disss(parts, opts, net, work, 92);
  // All sampled points must come from the spread source; the tight
  // source contributes only its (zero-cost) bicriteria centers.
  std::size_t from_spread = 0;
  for (std::size_t i = 0; i < cs.size(); ++i) {
    if (norm2(cs.points.point(i)) > 1e-9) ++from_spread;
  }
  EXPECT_GT(from_spread, 40u);
}

TEST(Bklw, CoresetSupportsNearOptimalSolve) {
  const std::vector<Dataset> parts = make_parts(900, 20, 3, 5, 93);
  const Dataset full = concatenate(parts);
  Network net(5);
  Stopwatch work;
  BklwOptions opts;
  opts.k = 3;
  opts.epsilon = 0.4;
  opts.intrinsic_dim = 8;
  opts.total_samples = 250;
  const Coreset cs = bklw_coreset(parts, opts, net, work, 94);
  ASSERT_TRUE(cs.basis.has_value());
  EXPECT_EQ(cs.basis->cols(), 20u);
  EXPECT_EQ(cs.points.dim(), cs.basis->rows());

  KMeansOptions kopts;
  kopts.k = 3;
  kopts.restarts = 8;
  kopts.seed = 95;
  const double full_cost = kmeans(full, kopts).cost;
  const KMeansResult on_cs = kmeans(cs.points, kopts);
  const Matrix lifted = matmul(on_cs.centers, *cs.basis);
  EXPECT_LT(kmeans_cost(full, lifted), 1.3 * full_cost);
}

TEST(Bklw, CommunicationDominatedByDisPca) {
  const std::vector<Dataset> parts = make_parts(600, 100, 2, 4, 96);
  Network net(4);
  Stopwatch work;
  BklwOptions opts;
  opts.k = 2;
  opts.epsilon = 0.5;
  opts.intrinsic_dim = 10;
  opts.total_samples = 80;
  (void)bklw_coreset(parts, opts, net, work, 97);
  const std::uint64_t dispca_scalars = 4u * (10 + 10 * 100);
  // disPCA's V transfers dominate: > 2/3 of all uplink scalars.
  EXPECT_GT(static_cast<double>(dispca_scalars),
            0.66 * static_cast<double>(net.total_uplink().scalars));
}

// Each site checks the decoded basis broadcast against the round's
// dimension and t: a V of d - 1 rows names the receiving source and both
// shapes, not a later shape mismatch in its projection.
TEST(Bklw, RejectsBasisOfWrongShape) {
  const std::vector<Dataset> parts = make_parts(300, 8, 2, 3, 99);
  Rng rng = make_rng(100);
  SwappedFrame net(3, 1, Link::kDownlink, 1,
                   encode_matrix(Matrix::gaussian(7, 4, rng)));
  Stopwatch work;
  BklwOptions opts;
  opts.k = 2;
  opts.intrinsic_dim = 4;
  opts.total_samples = 60;
  try {
    (void)bklw_coreset(parts, opts, net, work, 101);
    FAIL() << "a 7-row basis in an 8-dimensional round was accepted";
  } catch (const precondition_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("source 1 received V 7x4"), std::string::npos)
        << what;
    EXPECT_NE(what.find("expected V 8xr with 1 <= r <= 4"), std::string::npos)
        << what;
  }
}

// The scheduler runs the sources' computes side by side on the pool, and
// the kernels inside each run their fixed chunk grids inline on its pool
// thread: the Gram, and from order 256 the blocked tridiagonalization's
// pooled matvec. Shards 300 wide take that path (their Grams are
// 300x300). Centers, ledgers and disPCA's basis must not depend on the
// thread count.
TEST(Bklw, ResultsIndependentOfThreadCountOnWideShards) {
  const std::vector<Dataset> parts = make_parts(1600, 300, 4, 4, 102);
  for (const Dataset& p : parts) ASSERT_GT(p.size(), 300u);
  struct Outcome {
    Matrix basis;
    PipelineResult bklw;
    PipelineResult jl_bklw;
  };
  const auto run = [&parts](std::size_t threads) {
    set_parallel_threads(threads);
    Outcome out;
    Network pca_net(4);
    Stopwatch work;
    DisPcaOptions popts;
    popts.t1 = 16;
    popts.t2 = 16;
    out.basis = dispca(parts, popts, pca_net, work).v;
    PipelineConfig cfg;
    cfg.k = 4;
    cfg.pca_dim = 16;
    cfg.coreset_size = 200;
    cfg.seed = 103;
    Network bklw_net(4);
    out.bklw =
        run_distributed_pipeline(PipelineKind::kBklw, parts, cfg, bklw_net);
    cfg.jl_dim = 260;
    Network jl_net(4);
    out.jl_bklw =
        run_distributed_pipeline(PipelineKind::kJlBklw, parts, cfg, jl_net);
    return out;
  };
  const Outcome one = run(1);
  const Outcome four = run(4);
  set_parallel_threads(0);
  EXPECT_EQ(one.basis.rows(), 300u);
  EXPECT_TRUE(one.basis == four.basis);
  for (const auto member : {&Outcome::bklw, &Outcome::jl_bklw}) {
    const PipelineResult& a = one.*member;
    const PipelineResult& b = four.*member;
    EXPECT_EQ(a.centers.rows(), 4u);
    EXPECT_TRUE(a.centers == b.centers);
    EXPECT_EQ(a.uplink, b.uplink);
    EXPECT_EQ(a.downlink, b.downlink);
    EXPECT_EQ(a.summary_points, b.summary_points);
  }
}

TEST(Bklw, RejectsAllEmpty) {
  std::vector<Dataset> parts(2);
  Network net(2);
  Stopwatch work;
  BklwOptions opts;
  EXPECT_THROW((void)bklw_coreset(parts, opts, net, work, 98),
               precondition_error);
}

}  // namespace
}  // namespace ekm
