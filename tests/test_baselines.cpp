// Tests for the distributed baselines (federated Lloyd, MapReduce merge,
// gossip P2P) — correctness, protocol accounting, and the qualitative
// contrasts the paper asserts about them.
#include <gtest/gtest.h>

#include <initializer_list>
#include <string>

#include "data/generators.hpp"
#include "distributed/baselines.hpp"
#include "kmeans/cost.hpp"
#include "kmeans/lloyd.hpp"
#include "kmeans1d_oracle.hpp"
#include "net/summary_codec.hpp"
#include "swapped_frame.hpp"

namespace ekm {
namespace {

using test::kmeans_1d_exact;
using test::Link;
using test::SwappedFrame;

std::vector<Dataset> make_parts(std::size_t n, std::size_t dim, std::size_t k,
                                std::size_t m, std::uint64_t seed,
                                double separation = 12.0) {
  Rng rng = make_rng(seed);
  GaussianMixtureSpec spec;
  spec.n = n;
  spec.dim = dim;
  spec.k = k;
  spec.separation = separation;
  const Dataset d = make_gaussian_mixture(spec, rng);
  return partition_random(d, m, rng);
}

double solved_cost(const std::vector<Dataset>& parts, std::size_t k) {
  const Dataset full = concatenate(parts);
  KMeansOptions opts;
  opts.k = k;
  opts.restarts = 8;
  opts.seed = 3;
  return kmeans(full, opts).cost;
}

TEST(DistributedLloyd, ConvergesToNearOptimal) {
  const auto parts = make_parts(800, 8, 3, 4, 700);
  Network net(4);
  Stopwatch work;
  DistributedLloydOptions opts;
  opts.k = 3;
  opts.seed = 11;
  const DistributedBaselineResult res =
      distributed_lloyd(parts, opts, net, work);
  EXPECT_LT(res.cost, 1.25 * solved_cost(parts, 3));
  EXPECT_GE(res.rounds, 2);
  EXPECT_GT(work.total_seconds(), 0.0);
}

TEST(DistributedLloyd, CommunicationGrowsWithRounds) {
  const auto parts = make_parts(600, 6, 3, 4, 701, /*separation=*/3.0);
  // Tight tolerance => more rounds => more uplink bits.
  Network net_loose(4);
  Network net_tight(4);
  Stopwatch w1;
  Stopwatch w2;
  DistributedLloydOptions loose;
  loose.k = 3;
  loose.max_rounds = 2;
  DistributedLloydOptions tight = loose;
  tight.max_rounds = 20;
  tight.rel_tol = 1e-12;
  const auto r1 = distributed_lloyd(parts, loose, net_loose, w1);
  const auto r2 = distributed_lloyd(parts, tight, net_tight, w2);
  EXPECT_GT(r2.rounds, r1.rounds);
  EXPECT_GT(net_tight.total_uplink().bits, net_loose.total_uplink().bits);
  // Per-round uplink = m * k * (d+2) scalars (+seeding round).
  const std::uint64_t per_round = 4ull * 3 * (6 + 2);
  EXPECT_EQ(net_tight.total_uplink().scalars - net_loose.total_uplink().scalars,
            per_round * static_cast<std::uint64_t>(r2.rounds - r1.rounds));
}

TEST(DistributedLloyd, HandlesEmptySource) {
  auto parts = make_parts(300, 5, 2, 2, 702);
  parts.push_back(Dataset());
  Network net(3);
  Stopwatch work;
  DistributedLloydOptions opts;
  opts.k = 2;
  const auto res = distributed_lloyd(parts, opts, net, work);
  EXPECT_EQ(res.centers.rows(), 2u);
}

TEST(MapReduce, OneRoundCheapAndReasonableOnSeparatedData) {
  const auto parts = make_parts(900, 10, 3, 5, 703, /*separation=*/15.0);
  Network net(5);
  Stopwatch work;
  MapReduceOptions opts;
  opts.k = 3;
  const auto res = mapreduce_kmeans(parts, opts, net, work);
  EXPECT_EQ(res.rounds, 1);
  // Well-separated clusters: the merge heuristic is fine here.
  EXPECT_LT(res.cost, 1.3 * solved_cost(parts, 3));
  // Uplink = m * k * (d + 1) scalars exactly.
  EXPECT_EQ(net.total_uplink().scalars, 5u * 3 * (10 + 1));
}

TEST(MapReduce, OneShotMergeBracketedByExactOptimum) {
  // 1-D instance scored against the EXACT optimum (DP oracle), so solver
  // luck cannot flip the verdict. Empirically the mass-weighted merge is
  // strong (it is a size-mk summary of the data); what it lacks — the
  // paper's §2 point — is a tunable (1+ε) guarantee: its gap is whatever
  // the instance induces and cannot be driven down by spending more
  // communication, unlike the coreset pipelines. Here we pin the bracket:
  // never below the oracle, and measurably lossy on subcluster splits.
  Rng rng = make_rng(704);
  std::normal_distribution<double> jitter(0.0, 0.01);
  const auto group_points = [&](double center, std::size_t n, Matrix& out,
                                std::size_t offset) {
    for (std::size_t i = 0; i < n; ++i) out(offset + i, 0) = center + jitter(rng);
  };
  // Source 1: 0 x160, 10 x160, 100 x80. Source 2: 0 x40, 10 x280, 100 x80.
  Matrix p1(400, 1);
  group_points(0.0, 160, p1, 0);
  group_points(10.0, 160, p1, 160);
  group_points(100.0, 80, p1, 320);
  Matrix p2(400, 1);
  group_points(0.0, 40, p2, 0);
  group_points(10.0, 280, p2, 40);
  group_points(100.0, 80, p2, 320);
  std::vector<Dataset> parts;
  parts.emplace_back(std::move(p1));
  parts.emplace_back(std::move(p2));

  const Dataset full = concatenate(parts);
  std::vector<double> values(full.size());
  for (std::size_t i = 0; i < full.size(); ++i) values[i] = full.point(i)[0];
  const double exact_opt = kmeans_1d_exact(values, 2).cost;

  Network net(2);
  Stopwatch work;
  MapReduceOptions opts;
  opts.k = 2;
  const auto res = mapreduce_kmeans(parts, opts, net, work);
  EXPECT_GE(res.cost, exact_opt - 1e-6);  // oracle is a true lower bound
  EXPECT_LT(res.cost, 1.5 * exact_opt);   // bounded heuristic on this data
  // (On this instance the merge in fact lands on the optimum — evidence
  // for "empirically strong, theoretically unguaranteed".)
}

TEST(Gossip, ConsensusImprovesOverLocalSolves) {
  const auto parts = make_parts(1000, 8, 3, 5, 705);
  // Local-only reference: best single-node solve scored globally.
  double local_only = std::numeric_limits<double>::infinity();
  const Dataset full = concatenate(parts);
  for (const Dataset& p : parts) {
    if (p.empty()) continue;
    KMeansOptions kopts;
    kopts.k = 3;
    kopts.restarts = 1;
    kopts.max_iters = 10;
    kopts.seed = 7;
    const KMeansResult local = kmeans(p, kopts);
    local_only = std::min(local_only, kmeans_cost(full, local.centers));
  }

  Network net(5);
  Stopwatch work;
  GossipOptions opts;
  opts.k = 3;
  opts.rounds = 15;
  const auto res = gossip_kmeans(parts, opts, net, work);
  EXPECT_LE(res.cost, local_only * 1.05);
  EXPECT_GT(net.total_uplink().bits, 0u);
}

TEST(Gossip, TrafficScalesWithRounds) {
  const auto parts = make_parts(400, 6, 2, 4, 706);
  Network few(4);
  Network many(4);
  Stopwatch w1;
  Stopwatch w2;
  GossipOptions opts;
  opts.k = 2;
  opts.rounds = 3;
  (void)gossip_kmeans(parts, opts, few, w1);
  opts.rounds = 12;
  (void)gossip_kmeans(parts, opts, many, w2);
  EXPECT_GT(many.total_uplink().bits, 2u * few.total_uplink().bits);
}

TEST(Baselines, ValidateInputs) {
  std::vector<Dataset> empty_parts(2);
  Network net(2);
  Stopwatch work;
  DistributedLloydOptions opts;
  EXPECT_THROW((void)distributed_lloyd(empty_parts, opts, net, work),
               precondition_error);
  MapReduceOptions mr;
  EXPECT_THROW((void)mapreduce_kmeans(empty_parts, mr, net, work),
               precondition_error);
  GossipOptions go;
  EXPECT_THROW((void)gossip_kmeans(empty_parts, go, net, work),
               precondition_error);
}

// Each receive checks its frame's shape before reading it: a frame of
// the wrong shape is rejected with a precondition_error that names the
// round, the source and both shapes.
template <typename Run>
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

Message frame_of(std::size_t rows, std::size_t cols) {
  return encode_matrix(Matrix(rows, cols));
}

TEST(DistributedLloyd, RejectsSeedingCandidatesOfWrongShape) {
  const auto parts = make_parts(300, 8, 2, 3, 710);
  SwappedFrame net(3, 1, Link::kUplink, 1, frame_of(2, 14));
  Stopwatch work;
  DistributedLloydOptions opts;
  opts.k = 2;
  expect_rejected([&] { (void)distributed_lloyd(parts, opts, net, work); },
                  {"seeding round: source 1 sent candidates 2x14",
                   "expected jx8 with 0 <= j <= 2"});
}

TEST(DistributedLloyd, RejectsPushedCentersOfWrongShape) {
  const auto parts = make_parts(300, 4, 2, 3, 711);
  SwappedFrame net(3, 2, Link::kDownlink, 1, frame_of(2, 5));
  Stopwatch work;
  DistributedLloydOptions opts;
  opts.k = 2;
  expect_rejected([&] { (void)distributed_lloyd(parts, opts, net, work); },
                  {"Lloyd round: source 2 received centers 2x5",
                   "expected jx4 with 1 <= j <= 2"});
}

TEST(DistributedLloyd, RejectsStatisticsOfWrongShape) {
  const auto parts = make_parts(300, 4, 2, 3, 712);
  // The source's first uplink frame is its seeding sample, the second
  // its first round's statistics.
  SwappedFrame net(3, 1, Link::kUplink, 2, frame_of(2, 3));
  Stopwatch work;
  DistributedLloydOptions opts;
  opts.k = 2;
  expect_rejected([&] { (void)distributed_lloyd(parts, opts, net, work); },
                  {"Lloyd round: source 1 sent statistics 2x3",
                   "expected 2x6"});
}

TEST(MapReduce, RejectsLocalCentersOfWrongShape) {
  const auto parts = make_parts(300, 4, 2, 3, 713);
  SwappedFrame net(3, 1, Link::kUplink, 1, frame_of(2, 3));
  Stopwatch work;
  MapReduceOptions opts;
  opts.k = 2;
  expect_rejected([&] { (void)mapreduce_kmeans(parts, opts, net, work); },
                  {"map round: source 1 sent local centers 2x3",
                   "expected jx5 with 0 <= j <= 2"});
}

TEST(Gossip, RejectsPeerCentersOfWrongShape) {
  const auto parts = make_parts(300, 4, 2, 3, 714);
  SwappedFrame net(3, 0, Link::kUplink, 1, frame_of(2, 3));
  Stopwatch work;
  GossipOptions opts;
  opts.k = 2;
  expect_rejected([&] { (void)gossip_kmeans(parts, opts, net, work); },
                  {"gossip exchange: source 0 sent centers 2x3",
                   "expected jx4 with 1 <= j <= 2"});
}

}  // namespace
}  // namespace ekm
