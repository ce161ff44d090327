// Tests for src/core: ε-calibration, the seven pipelines end to end
// (single and multi source, with and without QT), and the experiment
// harness.
#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>
#include <string>

#include "core/calibration.hpp"
#include "core/experiment.hpp"
#include "core/pipeline.hpp"
#include "data/generators.hpp"
#include "kmeans/cost.hpp"
#include "kmeans/lloyd.hpp"
#include "net/summary_codec.hpp"
#include "swapped_frame.hpp"

namespace ekm {
namespace {

using test::Link;
using test::SwappedFrame;

Dataset small_mnist_like(std::size_t n = 600, std::size_t dim = 100) {
  Rng rng = make_rng(200);
  MnistLikeSpec spec;
  spec.n = n;
  spec.dim = dim;
  spec.latent_dim = 8;
  return make_mnist_like(spec, rng);
}

PipelineConfig test_config() {
  PipelineConfig cfg;
  cfg.k = 2;
  cfg.epsilon = 0.5;
  cfg.seed = 11;
  cfg.coreset_size = 120;
  cfg.jl_dim = 32;
  cfg.pca_dim = 12;
  cfg.solver_restarts = 4;
  return cfg;
}

TEST(Calibration, SolvesDefiningEquations) {
  for (double target : {0.1, 0.5, 1.0}) {
    const double e1 = epsilon_for_alg1(target);
    EXPECT_NEAR(std::pow(1 + e1, 5) / (1 - e1), 1 + target, 1e-9);
    const double e2 = epsilon_for_fss(target);
    EXPECT_NEAR((1 + e2) / (1 - e2), 1 + target, 1e-9);
    const double e3 = epsilon_for_alg3(target);
    EXPECT_NEAR(std::pow(1 + e3, 9) / (1 - e3), 1 + target, 1e-9);
    const double e4 = epsilon_for_bklw(target);
    EXPECT_NEAR(std::pow(1 + e4, 2) / std::pow(1 - e4, 2), 1 + target, 1e-9);
    const double e5 = epsilon_for_alg4(target);
    EXPECT_NEAR(std::pow(1 + e5, 6) / std::pow(1 - e5, 2), 1 + target, 1e-9);
  }
}

TEST(Calibration, MorePowersNeedSmallerEpsilon) {
  const double t = 0.5;
  EXPECT_GT(epsilon_for_fss(t), epsilon_for_alg1(t));
  EXPECT_GT(epsilon_for_alg1(t), epsilon_for_alg3(t));
  EXPECT_GT(epsilon_for_bklw(t), epsilon_for_alg4(t));
  EXPECT_THROW((void)solve_internal_epsilon(-0.1, 5, 1), precondition_error);
}

TEST(PipelineNames, Complete) {
  EXPECT_STREQ(pipeline_name(PipelineKind::kJlFssJl), "JL+FSS+JL");
  EXPECT_FALSE(pipeline_is_distributed(PipelineKind::kFss));
  EXPECT_TRUE(pipeline_is_distributed(PipelineKind::kJlBklw));
}

class SingleSourcePipeline : public ::testing::TestWithParam<PipelineKind> {};

TEST_P(SingleSourcePipeline, EndToEndApproximation) {
  const PipelineKind kind = GetParam();
  const Dataset data = small_mnist_like();
  const PipelineConfig cfg = test_config();
  const PipelineResult res = run_pipeline(kind, data, cfg);

  // Centers live in the ORIGINAL space.
  EXPECT_EQ(res.centers.rows(), 2u);
  EXPECT_EQ(res.centers.cols(), data.dim());

  // Approximation: within 2x of a well-restarted full solve (the test
  // config is deliberately aggressive; the benches tune for ~1.1).
  KMeansOptions opts;
  opts.k = 2;
  opts.restarts = 8;
  opts.seed = 3;
  const double opt_cost = kmeans(data, opts).cost;
  EXPECT_LT(kmeans_cost(data, res.centers), 2.0 * opt_cost);

  // Communication: summaries beat raw transfer by a lot.
  const std::uint64_t raw_bits = data.scalar_count() * 64;
  if (kind != PipelineKind::kNoReduction) {
    EXPECT_LT(res.uplink.bits, raw_bits / 4);
    EXPECT_LT(res.summary_points, data.size());
  } else {
    EXPECT_EQ(res.uplink.bits, raw_bits);
  }
}

TEST_P(SingleSourcePipeline, DeterministicGivenSeed) {
  const PipelineKind kind = GetParam();
  const Dataset data = small_mnist_like(300, 64);
  const PipelineConfig cfg = test_config();
  const PipelineResult a = run_pipeline(kind, data, cfg);
  const PipelineResult b = run_pipeline(kind, data, cfg);
  EXPECT_EQ(a.centers, b.centers);
  EXPECT_EQ(a.uplink.bits, b.uplink.bits);
}

INSTANTIATE_TEST_SUITE_P(Kinds, SingleSourcePipeline,
                         ::testing::Values(PipelineKind::kNoReduction,
                                           PipelineKind::kFss,
                                           PipelineKind::kJlFss,
                                           PipelineKind::kFssJl,
                                           PipelineKind::kJlFssJl));

TEST(Pipeline, CommunicationOrdering) {
  // JL+FSS must beat FSS on the wire (no d x t basis at full ambient d);
  // FSS+JL and JL+FSS+JL ship no basis at all.
  const Dataset data = small_mnist_like(800, 200);
  PipelineConfig cfg = test_config();
  const auto bits = [&](PipelineKind k) {
    return run_pipeline(k, data, cfg).uplink.bits;
  };
  const auto fss = bits(PipelineKind::kFss);
  const auto jl_fss = bits(PipelineKind::kJlFss);
  const auto nr = bits(PipelineKind::kNoReduction);
  EXPECT_LT(jl_fss, fss);
  EXPECT_LT(fss, nr / 4);
}

TEST(Pipeline, QuantizationCutsBitsWithoutHurtingCost) {
  const Dataset data = small_mnist_like(700, 128);
  PipelineConfig cfg = test_config();
  const PipelineResult full = run_pipeline(PipelineKind::kJlFssJl, data, cfg);
  cfg.significant_bits = 10;
  const PipelineResult q = run_pipeline(PipelineKind::kJlFssJl, data, cfg);
  EXPECT_LT(q.uplink.bits, 0.6 * static_cast<double>(full.uplink.bits));
  const double c_full = kmeans_cost(data, full.centers);
  const double c_q = kmeans_cost(data, q.centers);
  EXPECT_LT(c_q, 1.1 * c_full);
}

TEST(Pipeline, RefinementRecoversLargeKAccuracy) {
  // At k = 10 the Moore–Penrose lift of JL-projected centers loses most
  // of the between-cluster variance; one device-side Lloyd round fixes it.
  Rng rng = make_rng(210);
  MnistLikeSpec spec;
  spec.n = 1200;
  spec.dim = 196;
  const Dataset data = make_mnist_like(spec, rng);
  PipelineConfig cfg = test_config();
  cfg.k = 10;
  cfg.coreset_size = 300;

  KMeansOptions opts;
  opts.k = 10;
  opts.restarts = 8;
  opts.seed = 3;
  const double opt_cost = kmeans(data, opts).cost;

  const PipelineResult raw = run_pipeline(PipelineKind::kJlFssJl, data, cfg);
  cfg.refine_iters = 1;
  const PipelineResult refined =
      run_pipeline(PipelineKind::kJlFssJl, data, cfg);

  const double raw_ratio = kmeans_cost(data, raw.centers) / opt_cost;
  const double refined_ratio = kmeans_cost(data, refined.centers) / opt_cost;
  EXPECT_LT(refined_ratio, raw_ratio);
  EXPECT_LT(refined_ratio, 1.3);
  // Refinement ships the final k x d model: bits grow, but stay far
  // below raw-data transfer.
  EXPECT_GT(refined.uplink.bits, raw.uplink.bits);
  EXPECT_LT(refined.uplink.bits, data.scalar_count() * 64 / 4);
}

TEST(Pipeline, DistributedRefinementAccountsTraffic) {
  Rng rng = make_rng(211);
  MnistLikeSpec spec;
  spec.n = 900;
  spec.dim = 100;
  const Dataset data = make_mnist_like(spec, rng);
  Rng prng = make_rng(212);
  const std::vector<Dataset> parts = partition_random(data, 4, prng);
  PipelineConfig cfg = test_config();
  cfg.refine_iters = 2;
  const PipelineResult res =
      run_distributed_pipeline(PipelineKind::kJlBklw, parts, cfg);
  // 2 rounds x 4 sources x k x (d+1) stats scalars on top of the summary.
  const PipelineResult base = [&] {
    PipelineConfig c = cfg;
    c.refine_iters = 0;
    return run_distributed_pipeline(PipelineKind::kJlBklw, parts, c);
  }();
  EXPECT_EQ(res.uplink.scalars - base.uplink.scalars,
            2u * 4 * cfg.k * (data.dim() + 1));
}

TEST(Pipeline, CommBitsMonotoneInQuantizerBits) {
  const Dataset data = small_mnist_like(500, 80);
  PipelineConfig cfg = test_config();
  std::uint64_t prev = 0;
  for (int s : {4, 10, 24, 52}) {
    cfg.significant_bits = s;
    const PipelineResult res = run_pipeline(PipelineKind::kJlFssJl, data, cfg);
    EXPECT_GT(res.uplink.bits, prev);
    prev = res.uplink.bits;
  }
}

TEST(Pipeline, SecondJlDimControlsWireWidth) {
  const Dataset data = small_mnist_like(600, 128);
  PipelineConfig cfg = test_config();
  cfg.jl_dim2 = 16;
  const PipelineResult narrow = run_pipeline(PipelineKind::kJlFssJl, data, cfg);
  cfg.jl_dim2 = 32;
  const PipelineResult wide = run_pipeline(PipelineKind::kJlFssJl, data, cfg);
  // Same |S|; wire width scales with the post-CR dimension.
  EXPECT_LT(narrow.uplink.bits, wide.uplink.bits);
  EXPECT_EQ(narrow.summary_points, wide.summary_points);
  // Algorithm 2 honours it too.
  const PipelineResult alg2 = run_pipeline(PipelineKind::kFssJl, data, cfg);
  EXPECT_EQ(alg2.uplink.scalars,
            wide.uplink.scalars);  // same |S| x d2 + weights + delta
}

TEST(Pipeline, SingleSourceRejectsDistributedKinds) {
  const Dataset data = small_mnist_like(100, 32);
  EXPECT_THROW((void)run_pipeline(PipelineKind::kBklw, data, test_config()),
               precondition_error);
}

class MultiSourcePipeline : public ::testing::TestWithParam<PipelineKind> {};

TEST_P(MultiSourcePipeline, EndToEndApproximation) {
  const PipelineKind kind = GetParam();
  const Dataset data = small_mnist_like(800, 100);
  Rng rng = make_rng(201);
  const std::vector<Dataset> parts = partition_random(data, 4, rng);
  const PipelineConfig cfg = test_config();
  const PipelineResult res = run_distributed_pipeline(kind, parts, cfg);

  EXPECT_EQ(res.centers.rows(), 2u);
  EXPECT_EQ(res.centers.cols(), data.dim());
  KMeansOptions opts;
  opts.k = 2;
  opts.restarts = 8;
  opts.seed = 3;
  const double opt_cost = kmeans(data, opts).cost;
  EXPECT_LT(kmeans_cost(data, res.centers), 2.0 * opt_cost);
  if (kind != PipelineKind::kNoReduction) {
    EXPECT_LT(res.uplink.bits, data.scalar_count() * 64 / 4);
    EXPECT_GT(res.device_seconds, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, MultiSourcePipeline,
                         ::testing::Values(PipelineKind::kNoReduction,
                                           PipelineKind::kBklw,
                                           PipelineKind::kJlBklw));

TEST(Pipeline, JlBklwBeatsBklwOnWire) {
  const Dataset data = small_mnist_like(800, 256);
  Rng rng = make_rng(202);
  const std::vector<Dataset> parts = partition_random(data, 5, rng);
  PipelineConfig cfg = test_config();
  const auto bklw = run_distributed_pipeline(PipelineKind::kBklw, parts, cfg);
  const auto jl = run_distributed_pipeline(PipelineKind::kJlBklw, parts, cfg);
  EXPECT_LT(jl.uplink.bits, bklw.uplink.bits);
}

// Every point times s = 2^j: exact in binary floating point, short of
// overflow and underflow.
Dataset scaled(const Dataset& data, double s) {
  Matrix points = data.points();
  points.scale(s);
  return data.is_weighted() ? Dataset(std::move(points), *data.weights())
                            : Dataset(std::move(points));
}

Matrix scaled(Matrix m, double s) {
  m.scale(s);
  return m;
}

// No stage uses an absolute threshold: scaling the data by a power of
// two scales every kind's centers by exactly that power and leaves its
// uplink ledger as it was, with QT and a refine round too, and it scales
// the k-means cost by exactly its square.
TEST(Pipeline, PowerOfTwoScalingCommutes) {
  const Dataset data = small_mnist_like(800, 100);
  Rng rng = make_rng(203);
  const std::vector<Dataset> parts = partition_random(data, 4, rng);
  PipelineConfig quantized = test_config();
  quantized.significant_bits = 12;
  quantized.refine_iters = 1;
  for (const PipelineConfig& cfg : {test_config(), quantized}) {
    for (const PipelineKind kind :
         {PipelineKind::kNoReduction, PipelineKind::kFss, PipelineKind::kJlFss,
          PipelineKind::kFssJl, PipelineKind::kJlFssJl}) {
      const PipelineResult base = run_pipeline(kind, data, cfg);
      for (const double s : {0.5, 8.0}) {
        const PipelineResult res = run_pipeline(kind, scaled(data, s), cfg);
        EXPECT_EQ(res.centers, scaled(base.centers, s))
            << pipeline_name(kind) << " s=" << s;
        EXPECT_EQ(res.uplink, base.uplink) << pipeline_name(kind) << " s=" << s;
      }
    }
    for (const PipelineKind kind :
         {PipelineKind::kNoReduction, PipelineKind::kBklw,
          PipelineKind::kJlBklw}) {
      const PipelineResult base = run_distributed_pipeline(kind, parts, cfg);
      for (const double s : {0.5, 8.0}) {
        std::vector<Dataset> scaled_parts;
        for (const Dataset& part : parts) {
          scaled_parts.push_back(scaled(part, s));
        }
        const PipelineResult res =
            run_distributed_pipeline(kind, scaled_parts, cfg);
        EXPECT_EQ(res.centers, scaled(base.centers, s))
            << pipeline_name(kind) << " s=" << s;
        EXPECT_EQ(res.uplink, base.uplink) << pipeline_name(kind) << " s=" << s;
      }
    }
  }

  KMeansOptions opts;
  opts.k = 4;
  opts.seed = 5;
  const KMeansResult base = kmeans(data, opts);
  for (const double s : {0.25, 2.0, 1024.0}) {
    const KMeansResult res = kmeans(scaled(data, s), opts);
    EXPECT_EQ(res.cost, base.cost * s * s) << "s=" << s;
    EXPECT_EQ(res.centers, scaled(base.centers, s)) << "s=" << s;
  }
}

// The NR server checks each decoded shard's width against the round's
// dimension; a mismatch is bad input naming the source and both widths.
TEST(Pipeline, NoReductionRejectsShardOfWrongWidth) {
  const Dataset data = small_mnist_like(300, 16);
  Rng rng = make_rng(203);
  std::vector<Dataset> parts = partition_random(data, 3, rng);
  parts[1] = Dataset(Matrix::gaussian(parts[1].size(), 15, rng));
  try {
    (void)run_distributed_pipeline(PipelineKind::kNoReduction, parts,
                                   test_config());
    FAIL() << "a 15-column shard in a 16-dimensional round was accepted";
  } catch (const precondition_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("source 1 sent 15 columns"), std::string::npos)
        << what;
    EXPECT_NE(what.find("dimension is 16"), std::string::npos) << what;
  }
}

// `run` must throw a precondition_error whose message holds each of
// `parts`.
template <class Run>
void expect_rejected(Run run, std::initializer_list<const char*> parts) {
  try {
    run();
    ADD_FAILURE() << "a frame of the wrong shape was accepted";
  } catch (const precondition_error& e) {
    const std::string what = e.what();
    for (const char* part : parts) {
      EXPECT_NE(what.find(part), std::string::npos) << what;
    }
  }
}

// Each single-source receive checks its frame's shape: a wrong shape is
// bad input that names the frame and both shapes, not a failure, or a
// quiet result, somewhere in the solve or the lift.
TEST(Pipeline, SingleSourceNoReductionRejectsMatrixOfWrongShape) {
  // A single source's NR is the NR round over one shard: it checks the
  // frame's columns against the round, then its rows against the shard.
  const Dataset data = small_mnist_like(300, 16);
  Rng rng = make_rng(204);
  SwappedFrame narrow(1, 0, Link::kUplink, 1,
                      encode_matrix(Matrix::gaussian(300, 15, rng)));
  expect_rejected(
      [&] {
        (void)run_pipeline(PipelineKind::kNoReduction, data, test_config(),
                           narrow);
      },
      {"NR round: source 0 sent 15 columns",
       "the round's dimension is 16"});
  SwappedFrame short_rows(1, 0, Link::kUplink, 1,
                          encode_matrix(Matrix::gaussian(299, 16, rng)));
  expect_rejected(
      [&] {
        (void)run_pipeline(PipelineKind::kNoReduction, data, test_config(),
                           short_rows);
      },
      {"NR round: source 0 sent a matrix 299x16", "expected 300x16"});
}

// The NR round decodes each frame straight into its rows of one matrix:
// the server solves on exactly concatenate(parts). A frame one row short,
// one column wide or of another kind is rejected by its header, naming
// the source, before any of its rows is read. An empty shard's frame is
// skipped by its header but still checked whole.
TEST(Pipeline, NoReductionJoinsFramesAsConcatenate) {
  const Dataset data = small_mnist_like(300, 16);
  Rng rng = make_rng(206);
  const std::vector<Dataset> parts = partition_random(data, 3, rng);
  const PipelineConfig cfg = test_config();
  const PipelineResult nr =
      run_distributed_pipeline(PipelineKind::kNoReduction, parts, cfg);
  EXPECT_EQ(nr.summary_points, data.size());
  EXPECT_EQ(nr.centers,
            kmeans(concatenate(parts), server_solver_options(cfg)).centers);

  const auto run = [&](Fabric& net) {
    (void)run_distributed_pipeline(PipelineKind::kNoReduction, parts, cfg,
                                   net);
  };
  const std::size_t rows = parts[1].size();
  SwappedFrame short_rows(3, 1, Link::kUplink, 1,
                          encode_matrix(Matrix::gaussian(rows - 1, 16, rng)));
  const std::string sent = "NR round: source 1 sent a matrix " +
                           std::to_string(rows - 1) + "x16";
  const std::string expected = "expected " + std::to_string(rows) + "x16";
  expect_rejected([&] { run(short_rows); }, {sent.c_str(), expected.c_str()});
  SwappedFrame wide(3, 1, Link::kUplink, 1,
                    encode_matrix(Matrix::gaussian(rows, 17, rng)));
  expect_rejected([&] { run(wide); },
                  {"NR round: source 1 sent 17 columns",
                   "the round's dimension is 16"});
  SwappedFrame scalar(3, 1, Link::kUplink, 1, encode_scalar(1.0));
  expect_rejected([&] { run(scalar); }, {"not a matrix frame"});

  std::vector<Dataset> with_empty = parts;
  with_empty.emplace_back();
  EXPECT_EQ(
      run_distributed_pipeline(PipelineKind::kNoReduction, with_empty, cfg)
          .centers,
      nr.centers);
  Message padded = encode_matrix(Matrix());
  padded.payload.push_back(std::byte{0});
  SwappedFrame trailing(4, 3, Link::kUplink, 1, padded);
  expect_rejected(
      [&] {
        (void)run_distributed_pipeline(PipelineKind::kNoReduction,
                                       with_empty, cfg, trailing);
      },
      {"matrix frame: payload has trailing bytes"});
}

TEST(Pipeline, SingleSourceRejectsSummaryOfWrongShape) {
  const Dataset data = small_mnist_like(300, 16);
  Rng rng = make_rng(205);
  // FSS ships coordinates in a basis of the data's width.
  Coreset wide_basis;
  wide_basis.points = Dataset(Matrix::gaussian(50, 4, rng));
  wide_basis.basis = Matrix::gaussian(4, 15, rng);
  SwappedFrame fss_net(1, 0, Link::kUplink, 1, encode_coreset(wide_basis));
  expect_rejected(
      [&] {
        (void)run_pipeline(PipelineKind::kFss, data, test_config(), fss_net);
      },
      {"single-source summary: the source sent points 50x4 in a basis 4x15",
       "expected points mx16, or coordinates in a basis tx16"});
  // FSS+JL ships points of the JL width, 8 here, and no basis.
  Coreset narrow;
  narrow.points = Dataset(Matrix::gaussian(50, 7, rng));
  SwappedFrame jl_net(1, 0, Link::kUplink, 1, encode_coreset(narrow));
  PipelineConfig cfg = test_config();
  cfg.jl_dim = 8;
  expect_rejected(
      [&] { (void)run_pipeline(PipelineKind::kFssJl, data, cfg, jl_net); },
      {"the source sent points 50x7 and no basis", "expected points mx8"});
}

TEST(Pipeline, SingleSourceRefineRejectsCentersOfWrongShape) {
  const Dataset data = small_mnist_like(300, 16);
  Rng rng = make_rng(206);
  SwappedFrame net(1, 0, Link::kDownlink, 1,
                   encode_matrix(Matrix::gaussian(2, 15, rng)));
  PipelineConfig cfg = test_config();
  cfg.refine_iters = 2;
  expect_rejected(
      [&] { (void)run_pipeline(PipelineKind::kFss, data, cfg, net); },
      {"refine round: the device received centers 2x15",
       "expected centers jx16 with 1 <= j <= 2"});
}

// The distributed refine round checks the pushed centers at each source
// and each source's sufficient statistics at the server, whose rows are
// k sums d + 1 wide. BKLW's frames come first: each source hears the
// basis and its sample allocation, and uplinks disPCA's Σ and V and
// disSS's cost and coreset; so the push is the third downlink frame and
// the statistics the fifth uplink frame.
TEST(Pipeline, DistributedRefineRejectsFramesOfWrongShape) {
  const Dataset data = small_mnist_like(300, 16);
  Rng rng = make_rng(207);
  const std::vector<Dataset> parts = partition_random(data, 3, rng);
  PipelineConfig cfg = test_config();
  cfg.refine_iters = 1;
  SwappedFrame push(3, 1, Link::kDownlink, 3,
                    encode_matrix(Matrix::gaussian(2, 15, rng)));
  expect_rejected(
      [&] {
        (void)run_distributed_pipeline(PipelineKind::kBklw, parts, cfg, push);
      },
      {"refine round: source 1 received centers 2x15",
       "expected centers jx16 with 1 <= j <= 2"});
  SwappedFrame stats(3, 1, Link::kUplink, 5,
                     encode_matrix(Matrix::gaussian(2, 16, rng)));
  expect_rejected(
      [&] {
        (void)run_distributed_pipeline(PipelineKind::kBklw, parts, cfg, stats);
      },
      {"refine round: source 1 sent statistics 2x16", "expected 2x17"});
}

TEST(Experiment, ContextMetricsAreNormalized) {
  ExperimentContext ctx(small_mnist_like(500, 80), 2, 7, 3);
  EXPECT_GT(ctx.baseline_cost(), 0.0);
  EXPECT_EQ(ctx.parts().size(), 3u);

  const ExperimentSeries series =
      ctx.run(PipelineKind::kJlFss, test_config(), 3);
  EXPECT_EQ(series.runs.size(), 3u);
  EXPECT_EQ(series.name, "JL+FSS");
  for (const RunMetrics& m : series.runs) {
    EXPECT_GE(m.normalized_cost, 0.95);  // can't beat the baseline by much
    EXPECT_LT(m.normalized_cost, 2.5);
    EXPECT_GT(m.normalized_comm_bits, 0.0);
    EXPECT_LT(m.normalized_comm_bits, 1.0);
  }
  // NR normalizes to exactly 1.0 comm.
  const ExperimentSeries nr =
      ctx.run(PipelineKind::kNoReduction, test_config(), 1);
  EXPECT_DOUBLE_EQ(nr.runs[0].normalized_comm_bits, 1.0);
  EXPECT_DOUBLE_EQ(nr.runs[0].normalized_comm_scalars, 1.0);
}

TEST(Experiment, MonteCarloRunsDiffer) {
  ExperimentContext ctx(small_mnist_like(400, 64), 2, 8);
  const ExperimentSeries series =
      ctx.run(PipelineKind::kJlFss, test_config(), 3);
  // Different seeds => different JL matrices => (almost surely)
  // different costs.
  EXPECT_NE(series.runs[0].normalized_cost, series.runs[1].normalized_cost);
}

TEST(Experiment, FormatTableContainsAllRows) {
  ExperimentContext ctx(small_mnist_like(300, 49), 2, 9);
  std::vector<ExperimentSeries> all;
  all.push_back(ctx.run(PipelineKind::kNoReduction, test_config(), 1));
  all.push_back(ctx.run(PipelineKind::kFss, test_config(), 1));
  const std::string table = format_series_table(all);
  EXPECT_NE(table.find("NR"), std::string::npos);
  EXPECT_NE(table.find("FSS"), std::string::npos);
}

}  // namespace
}  // namespace ekm
