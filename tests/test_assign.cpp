// Tests for the batched assignment kernel (src/kmeans/assign.*) and the
// thread pool underneath it: agreement with the naive per-point scan
// across n/k/d sweeps, a bitwise contract table for the kernel and
// Lloyd, and bitwise thread-count determinism of kmeans().
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/sampling.hpp"
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
  std::vector<std::size_t> naive_idx(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    const NearestCenter nc = nearest_center(data.point(i), centers);
    naive += data.weight(i) * nc.sq_dist;
    naive_idx[i] = nc.index;
  }
  std::vector<std::size_t> idx(data.size());
  const double batched = assign_and_cost(data, centers, idx);
  EXPECT_NEAR(batched, naive, 1e-9 * (1.0 + naive));
  EXPECT_EQ(idx, naive_idx);

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

// ---- Contract table ---------------------------------------------------------
//
// The kernel and Lloyd's fused pass are held bit for bit to plain
// per-cell reference loops over one registered table of shapes, at one
// and at four pool threads. The reference runs each restart alone, from
// its own seeding, so it shares nothing with the library's lock-step
// restarts but the per-cell arithmetic.

// One step of an accumulator chain as the library compiles it: fused
// where the target has a fast FMA, a multiply and an add elsewhere.
double chain_step(double s, double x, double y) {
#if defined(__FP_FAST_FMA)
  return std::fma(x, y, s);
#else
  return s + x * y;
#endif
}

// ⟨x, y⟩ as four j-split chains, the d mod 4 tail on the first, folded
// as (a0+a1)+(a2+a3).
double split_dot(std::span<const double> x, std::span<const double> y) {
  double a[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t j = 0;
  for (; j + 4 <= x.size(); j += 4) {
    for (std::size_t r = 0; r < 4; ++r) {
      a[r] = chain_step(a[r], x[j + r], y[j + r]);
    }
  }
  for (; j < x.size(); ++j) a[0] = chain_step(a[0], x[j], y[j]);
  return (a[0] + a[1]) + (a[2] + a[3]);
}

// Each point scans the centers in ascending order with a strict < against
// its running best, which starts from seed[i] where given, else +inf.
// The cell is ‖p‖²+‖c‖²−2⟨p,c⟩ clamped at zero. The norms are the cached
// inputs the kernel reads, so they come from row_sq_norms: its loop is a
// vectorized in-order reduction whose split between fused and unfused
// steps is the compiler's, so a test-side chain need not match it.
BatchAssignment ref_assign(const Matrix& pts, const Matrix& centers,
                           const std::vector<double>* seed = nullptr) {
  const std::vector<double> pn = row_sq_norms(pts);
  const std::vector<double> cn = row_sq_norms(centers);
  BatchAssignment out;
  for (std::size_t i = 0; i < pts.rows(); ++i) {
    double best = seed != nullptr ? (*seed)[i]
                                  : std::numeric_limits<double>::infinity();
    std::size_t best_c = 0;
    for (std::size_t c = 0; c < centers.rows(); ++c) {
      const double dot = split_dot(pts.row(i), centers.row(c));
      const double d2 = std::max(0.0, (pn[i] + cn[c]) - 2.0 * dot);
      if (d2 < best) {
        best = d2;
        best_c = c;
      }
    }
    out.index.push_back(best_c);
    out.sq_dist.push_back(best);
  }
  return out;
}

// Points whose two nearest per-cell distances lie within 64 ulps.
std::size_t near_ties(const Matrix& pts, const Matrix& centers) {
  const std::vector<double> pn = row_sq_norms(pts);
  const std::vector<double> cn = row_sq_norms(centers);
  std::size_t ties = 0;
  for (std::size_t i = 0; i < pts.rows(); ++i) {
    double best = std::numeric_limits<double>::infinity();
    double second = best;
    for (std::size_t c = 0; c < centers.rows(); ++c) {
      const double dot = split_dot(pts.row(i), centers.row(c));
      const double d2 = std::max(0.0, (pn[i] + cn[c]) - 2.0 * dot);
      second = std::min(second, std::max(best, d2));
      best = std::min(best, d2);
    }
    if (second - best <= 64.0 * std::numeric_limits<double>::epsilon() * best) {
      ++ties;
    }
  }
  return ties;
}

// The weighted cost, one partial per 256-point tile, folded in tile order.
double ref_cost(const Dataset& data, const std::vector<double>& sq_dist) {
  double cost = 0.0;
  for (std::size_t t0 = 0; t0 < data.size(); t0 += 256) {
    double local = 0.0;
    for (std::size_t i = t0; i < std::min(data.size(), t0 + 256); ++i) {
      local = chain_step(local, data.weight(i), sq_dist[i]);
    }
    cost += local;
  }
  return cost;
}

// What one restart of a reference solve went through, so each case can
// prove it covers the branches it was registered for.
struct RefPaths {
  bool converged = false;  // stopped on the tolerance test
  bool capped = false;     // stopped at max_iters
  int reseeds = 0;         // empty clusters reseated
  int late_reseeds = 0;    // of those, after a pass other than the first
};

// A plain two-pass Lloyd: assign and cost, then sum per 2048-point chunk
// (lloyd's update grain at these shapes) and fold in chunk order. After
// the loop it always refreshes the assignment and cost, so the table
// also shows that lloyd's skipped refresh after a converged break is
// bit-identical.
KMeansResult ref_lloyd(const Dataset& data, Matrix centers,
                       const KMeansOptions& opts, RefPaths& paths) {
  constexpr std::size_t kGrain = 2048;
  const std::size_t n = data.size();
  const std::size_t k = centers.rows();
  const std::size_t d = data.dim();
  KMeansResult res;
  double prev_cost = std::numeric_limits<double>::infinity();
  bool converged = false;
  for (int it = 0; it < opts.max_iters; ++it) {
    BatchAssignment a = ref_assign(data.points(), centers);
    const double cost = ref_cost(data, a.sq_dist);
    res.assignment = a.index;
    res.cost = cost;
    res.iterations = it + 1;
    if (std::isfinite(prev_cost) &&
        prev_cost - cost <= opts.rel_tol * std::max(prev_cost, 1e-300)) {
      converged = true;
      break;
    }
    prev_cost = cost;
    Matrix sums(k, d);
    std::vector<double> weight(k, 0.0);
    for (std::size_t g0 = 0; g0 < n; g0 += kGrain) {
      Matrix part(k, d);
      std::vector<double> part_weight(k, 0.0);
      for (std::size_t i = g0; i < std::min(n, g0 + kGrain); ++i) {
        const double w = data.weight(i);
        if (w == 0.0) continue;
        const std::size_t c = a.index[i];
        part_weight[c] += w;
        for (std::size_t j = 0; j < d; ++j) {
          part(c, j) = chain_step(part(c, j), w, data.point(i)[j]);
        }
      }
      for (std::size_t c = 0; c < k; ++c) {
        weight[c] += part_weight[c];
        for (std::size_t j = 0; j < d; ++j) sums(c, j) += part(c, j);
      }
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (weight[c] > 0.0) {
        for (std::size_t j = 0; j < d; ++j) {
          centers(c, j) = sums(c, j) / weight[c];
        }
        continue;
      }
      double worst = -1.0;
      std::size_t worst_i = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (data.weight(i) > 0.0 && a.sq_dist[i] > worst) {
          worst = a.sq_dist[i];
          worst_i = i;
        }
      }
      for (std::size_t j = 0; j < d; ++j) {
        centers(c, j) = data.point(worst_i)[j];
      }
      a.sq_dist[worst_i] = 0.0;
      paths.reseeds += 1;
      paths.late_reseeds += it > 0;
    }
  }
  (converged ? paths.converged : paths.capped) = true;
  const BatchAssignment a = ref_assign(data.points(), centers);
  res.assignment = a.index;
  res.cost = ref_cost(data, a.sq_dist);
  res.centers = std::move(centers);
  return res;
}

// k-means++ seeding from ref_assign's distances: the first center is
// drawn ∝ weight, each next one ∝ weight × d² to the nearest chosen
// center (uniformly once every point is covered), by prefix sums and
// sample_from_prefix; at most n centers.
Matrix ref_seed(const Dataset& data, std::size_t k, Rng& rng) {
  const std::size_t n = data.size();
  Matrix centers(std::min(k, n), data.dim());
  std::vector<double> cum(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += data.weight(i);
    cum[i] = total;
  }
  std::vector<double> d2;
  for (std::size_t c = 0; c < centers.rows(); ++c) {
    std::size_t next = 0;
    if (c > 0) {
      total = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        total += data.weight(i) * d2[i];
        cum[i] = total;
      }
    }
    if (total > 0.0) {
      next = sample_from_prefix(cum, rng);
    } else {
      next = std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
    }
    for (std::size_t j = 0; j < data.dim(); ++j) {
      centers(c, j) = data.point(next)[j];
    }
    const Matrix chosen = centers.row_range(c, c + 1);
    d2 = ref_assign(data.points(), chosen, c == 0 ? nullptr : &d2).sq_dist;
  }
  return centers;
}

// kmeans(): restart r seeded by ref_seed from stream r, then the
// reference Lloyd, one restart after another; the first strictly
// cheapest run kept. `paths` gets one entry per restart.
KMeansResult ref_kmeans(const Dataset& data, const KMeansOptions& opts,
                        std::vector<RefPaths>& paths) {
  KMeansResult best;
  best.cost = std::numeric_limits<double>::infinity();
  for (int r = 0; r < std::max(1, opts.restarts); ++r) {
    Rng rng = make_rng(opts.seed, static_cast<std::uint64_t>(r));
    KMeansResult res = ref_lloyd(data, ref_seed(data, opts.k, rng), opts,
                                 paths.emplace_back());
    if (res.cost < best.cost) best = std::move(res);
  }
  return best;
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool same_bits(double a, double b) { return same_bits({&a, 1}, {&b, 1}); }

enum class Weights { kUnit, kRandom, kWithZeros };

// How many of a solve's restarts took a path.
enum class Share { kNone, kSome, kAll };

struct ContractCase {
  const char* name;
  std::size_t n, d, k;
  Weights weights;
  std::size_t distinct;  // > 0: points repeat this many locations
  int max_iters;
  int restarts;
  Share reseeded;   // restarts that reseated an empty cluster
  Share converged;  // restarts that stopped on the tolerance test
  Share capped;     // restarts that stopped at max_iters
  // k/2 tight clusters and their mirror images about the plane x0 = 0,
  // far from the origin, with every fifth point of each cluster moved
  // onto the plane at zero weight: a pair's two centers mirror each other
  // to within rounding, so the plane's points tie to within rounding.
  // `weights` and `distinct` do not apply.
  bool bisector = false;
};

constexpr Share kNone = Share::kNone;
constexpr Share kSome = Share::kSome;
constexpr Share kAll = Share::kAll;

// n mod 4 ∈ {1, 2, 3} puts a ragged tail behind the 4-point blocks;
// n = 4099 and 5001 span three 2048-point update chunks, the last one
// ragged. 20 restarts are more than one lock-step pass holds. From
// k = 7 and n = 4096 up, Lloyd's pass keeps Hamerly's bounds: the
// bounds_ cases run the own-cell tail (d mod 4 = 1), converge and stop
// at max_iters side by side (so restarts leave mid-batch and their
// bounds move slots), reseat empty clusters (a large drift), also
// after a later pass (bounds_d9_late_reseat: coincident centers tie,
// so its chunks write their sums afresh instead of carrying them), put
// near-ties on bisectors, and sit on the gate's edge (k = 7, n = 4097:
// a one-point last chunk).
const ContractCase kContractCases[] = {
    {"k1_d3", 5, 3, 1, Weights::kUnit, 0, 100, 2, kNone, kAll, kNone},
    {"k7_d1", 102, 1, 7, Weights::kRandom, 0, 100, 2, kNone, kAll, kNone},
    {"k10_d784_capped", 259, 784, 10, Weights::kRandom, 0, 3, 1, kNone, kNone,
     kAll},
    {"three_chunks_zero_weights", 5001, 3, 10, Weights::kWithZeros, 0, 100, 2,
     kNone, kAll, kNone},
    {"k50_d17", 1003, 17, 50, Weights::kRandom, 0, 100, 2, kNone, kAll,
     kNone},
    {"duplicates_reseed", 402, 17, 10, Weights::kWithZeros, 6, 100, 2, kAll,
     kAll, kNone},
    {"r20_k2", 9, 2, 2, Weights::kUnit, 0, 100, 20, kNone, kAll, kNone},
    {"stops_differ", 600, 2, 5, Weights::kRandom, 0, 20, 5, kNone, kSome,
     kSome},
    {"reseat_in_some_restarts", 20, 2, 3, Weights::kRandom, 8, 100, 6, kSome,
     kAll, kNone},
    {"k_above_n", 7, 3, 10, Weights::kRandom, 0, 100, 2, kNone, kAll, kNone},
    {"r5_d784_three_chunks", 4099, 784, 10, Weights::kRandom, 0, 2, 5, kNone,
     kNone, kAll},
    {"bounds_d33_three_chunks", 5001, 33, 10, Weights::kWithZeros, 0, 48, 5,
     kNone, kSome, kSome},
    {"bounds_d65_duplicates_reseed", 4402, 65, 10, Weights::kWithZeros, 6,
     100, 2, kAll, kAll, kNone},
    {"bounds_d9_late_reseat", 4099, 9, 8, Weights::kWithZeros, 4, 100, 2,
     kAll, kAll, kNone},
    {"bounds_d33_r20_capped", 4099, 33, 8, Weights::kRandom, 0, 6, 20, kNone,
     kNone, kAll},
    {"bounds_d33_bisector_ties", 4101, 33, 8, Weights::kRandom, 0, 100, 3,
     kNone, kAll, kNone, true},
    {"bounds_d65_k7_gate_edge", 4097, 65, 7, Weights::kRandom, 0, 100, 3,
     kNone, kAll, kNone},
};

Share share(const std::vector<RefPaths>& paths,
            bool (*took)(const RefPaths&)) {
  const auto count = std::count_if(paths.begin(), paths.end(), took);
  return count == 0 ? kNone
         : static_cast<std::size_t>(count) == paths.size() ? kAll
                                                            : kSome;
}

Dataset bisector_data(const ContractCase& c, Rng& rng) {
  Matrix pts = Matrix::gaussian(c.n, c.d, rng, 0.3);
  std::vector<double> w(c.n, 0.0);
  std::uniform_real_distribution<double> unif(0.5, 3.0);
  const std::size_t half = c.n / 2;
  for (std::size_t i = 0; i < half; ++i) {
    const bool on_plane = i % 5 == 0;
    pts(i, 0) = on_plane ? 0.0 : 3.0 + std::abs(pts(i, 0));
    for (std::size_t j = 1; j < c.d; ++j) pts(i, j) += 40.0;
    pts(i, 1 + i % (c.k / 2)) += 10.0;
    if (!on_plane) w[i] = unif(rng);
    for (std::size_t j = 0; j < c.d; ++j) pts(half + i, j) = pts(i, j);
    pts(half + i, 0) = on_plane ? 0.0 : -pts(i, 0);
    w[half + i] = w[i];
  }
  return Dataset(std::move(pts), std::move(w));
}

Dataset contract_data(const ContractCase& c) {
  Rng rng = make_rng(4242, c.n * 1000 + c.d);
  if (c.bisector) return bisector_data(c, rng);
  Matrix pts = Matrix::gaussian(c.n, c.d, rng, 2.0);
  if (c.distinct > 0) {
    for (std::size_t i = c.distinct; i < c.n; ++i) {
      for (std::size_t j = 0; j < c.d; ++j) pts(i, j) = pts(i % c.distinct, j);
    }
  }
  if (c.weights == Weights::kUnit) return Dataset(std::move(pts));
  std::vector<double> w(c.n);
  std::uniform_real_distribution<double> unif(0.0, 3.0);
  for (std::size_t i = 0; i < c.n; ++i) {
    w[i] = c.weights == Weights::kWithZeros && i % 5 == 3 ? 0.0 : unif(rng);
  }
  return Dataset(std::move(pts), std::move(w));
}

void PrintTo(const ContractCase& c, std::ostream* os) { *os << c.name; }

class AssignContract : public ::testing::TestWithParam<ContractCase> {
 protected:
  void TearDown() override { set_parallel_threads(0); }
};

TEST_P(AssignContract, KernelEqualsPerCellReference) {
  const ContractCase& c = GetParam();
  const Dataset data = contract_data(c);
  // Centers are data rows, so duplicate points give exact center ties.
  Matrix centers(c.k, c.d);
  for (std::size_t r = 0; r < c.k; ++r) {
    const auto row = data.point(r * c.n / c.k);
    std::copy(row.begin(), row.end(), centers.row(r).begin());
  }
  const BatchAssignment ref = ref_assign(data.points(), centers);
  const double ref_total = ref_cost(data, ref.sq_dist);
  // update_min_sq_dist over two center batches: +inf seeds, then the
  // first batch's distances as seeds.
  const std::size_t half = std::max<std::size_t>(1, c.k / 2);
  const Matrix first = centers.row_range(0, half);
  const Matrix second = centers.row_range(c.k - half, c.k);
  const std::vector<double> ref_first =
      ref_assign(data.points(), first).sq_dist;
  const std::vector<double> ref_min =
      ref_assign(data.points(), second, &ref_first).sq_dist;
  // The same two batches as the two sets of one lock-step refresh, where
  // the second set may share a tile with the first.
  Matrix both = first;
  both.append_rows(second);
  const std::vector<double> ref_second =
      ref_assign(data.points(), second).sq_dist;

  for (std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    set_parallel_threads(threads);
    const BatchAssignment got = assign_batch(data.points(), centers);
    EXPECT_EQ(got.index, ref.index);
    EXPECT_TRUE(same_bits(got.sq_dist, ref.sq_dist));

    std::vector<std::size_t> idx(c.n);
    std::vector<double> sq(c.n);
    EXPECT_TRUE(same_bits(assign_and_cost(data, centers, idx, sq), ref_total));
    EXPECT_EQ(idx, ref.index);
    EXPECT_TRUE(same_bits(sq, ref.sq_dist));

    std::vector<double> d2(c.n, std::numeric_limits<double>::infinity());
    update_min_sq_dist(data.points(), first, d2);
    EXPECT_TRUE(same_bits(d2, ref_first));
    update_min_sq_dist(data.points(), second, d2);
    EXPECT_TRUE(same_bits(d2, ref_min));

    std::vector<double> two(2 * c.n, std::numeric_limits<double>::infinity());
    update_min_sq_dist(data.points(), both, two, {}, 2);
    EXPECT_TRUE(same_bits(std::span(two).first(c.n), ref_first));
    EXPECT_TRUE(same_bits(std::span(two).last(c.n), ref_second));
  }
}

TEST_P(AssignContract, KMeansEqualsTwoPassLloyd) {
  const ContractCase& c = GetParam();
  const Dataset data = contract_data(c);
  KMeansOptions opts;
  opts.k = c.k;
  opts.max_iters = c.max_iters;
  opts.restarts = c.restarts;
  opts.seed = 17;
  std::vector<RefPaths> paths;
  const KMeansResult ref = ref_kmeans(data, opts, paths);
  // The case covers what it was registered for.
  ASSERT_EQ(paths.size(), static_cast<std::size_t>(c.restarts));
  EXPECT_EQ(share(paths, [](const RefPaths& p) { return p.reseeds > 0; }),
            c.reseeded);
  EXPECT_EQ(share(paths, [](const RefPaths& p) { return p.converged; }),
            c.converged);
  EXPECT_EQ(share(paths, [](const RefPaths& p) { return p.capped; }),
            c.capped);
  if (c.bisector) {
    EXPECT_GT(near_ties(data.points(), ref.centers), 0u);
  }

  for (std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    set_parallel_threads(threads);
    const KMeansResult got = kmeans(data, opts);
    EXPECT_TRUE(same_bits(got.centers.flat(), ref.centers.flat()));
    EXPECT_TRUE(same_bits(got.cost, ref.cost))
        << got.cost << " vs " << ref.cost;
    EXPECT_EQ(got.assignment, ref.assignment);
    EXPECT_EQ(got.iterations, ref.iterations);
  }
}

// A bounded row reseats an empty cluster after a pass other than its
// first, so an update reads sums that a bounded pass left after an
// earlier one. Lloyd keeps bounds from 7 centers and 4096 points up.
TEST(AssignContractTable, BoundedRowReseatsAfterItsFirstPass) {
  std::size_t rows = 0;
  for (const ContractCase& c : kContractCases) {
    if (c.k < 7 || c.n < 4096 || c.reseeded == kNone) continue;
    const Dataset data = contract_data(c);
    KMeansOptions opts;
    opts.k = c.k;
    opts.max_iters = c.max_iters;
    opts.restarts = c.restarts;
    opts.seed = 17;
    std::vector<RefPaths> paths;
    (void)ref_kmeans(data, opts, paths);
    rows += std::any_of(paths.begin(), paths.end(),
                        [](const RefPaths& p) { return p.late_reseeds > 0; });
  }
  EXPECT_GT(rows, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Table, AssignContract, ::testing::ValuesIn(kContractCases),
    [](const ::testing::TestParamInfo<ContractCase>& info) {
      return std::string(info.param.name);
    });

// Two bounded Lloyd passes over two sets of centers, the second after
// the centers move, far from the origin where a cell's rounding is large
// next to its d². Each pass keeps the unbounded pass's bits, and leaves
// per point and set a bound that is valid (at most the exact distance to
// every other center of the set) and tight (above half of it).
TEST(AssignKernel, BoundedPassKeepsBitsAndLeavesValidBounds) {
  constexpr std::size_t n = 3001, d = 33, k = 10, sets = 2, grain = 2048;
  Dataset data = random_weighted(n, d, 31);
  Matrix shifted = data.points();
  for (double& x : shifted.flat()) x += 40.0;
  data = Dataset(std::move(shifted), *data.weights());
  Rng rng = make_rng(32);
  Matrix before(sets * k, d);
  for (std::size_t c = 0; c < sets * k; ++c) {
    const auto row = data.point(c * 97 + 5);
    std::copy(row.begin(), row.end(), before.row(c).begin());
  }
  Matrix after = before;
  for (double& x : after.flat()) {
    x += std::normal_distribution<double>(0.0, 0.05)(rng);
  }
  const std::vector<double> norms = row_sq_norms(data.points());
  const std::size_t chunks = parallel_chunk_count(n, grain);
  std::vector<std::size_t> index(sets * n), want_index(sets * n);
  std::vector<double> sq(sets * n), sums(chunks * sets * k * d),
      weights(chunks * sets * k);
  std::vector<double> want_sq(sq.size()), want_sums(sums.size()),
      want_weights(weights.size());
  std::vector<double> lower(sets * n, 0.0), drift(sets * k, 0.0);
  for (const Matrix* centers : {&before, &after}) {
    if (centers == &after) {
      for (std::size_t c = 0; c < sets * k; ++c) {
        drift[c] = center_drift(before.row(c), after.row(c));
      }
    }
    const std::vector<double> got =
        assign_and_accumulate(data, *centers, sets, norms, grain, index, sq,
                              sums, weights, lower, drift);
    const std::vector<double> want =
        assign_and_accumulate(data, *centers, sets, norms, grain, want_index,
                              want_sq, want_sums, want_weights);
    EXPECT_TRUE(same_bits(got, want));
    EXPECT_EQ(index, want_index);
    EXPECT_TRUE(same_bits(sq, want_sq));
    EXPECT_TRUE(same_bits(sums, want_sums));
    EXPECT_TRUE(same_bits(weights, want_weights));
    std::size_t invalid = 0, loose = 0;
    for (std::size_t s = 0; s < sets; ++s) {
      for (std::size_t i = 0; i < n; ++i) {
        long double other = std::numeric_limits<long double>::infinity();
        for (std::size_t c = 0; c < k; ++c) {
          if (c == index[s * n + i]) continue;
          long double e = 0.0L;
          for (std::size_t j = 0; j < d; ++j) {
            const long double x = static_cast<long double>(data.point(i)[j]) -
                                  centers->row(s * k + c)[j];
            e += x * x;
          }
          other = std::min(other, e);
        }
        const long double l = lower[s * n + i];
        invalid += l * l > other;
        loose += l * l < other / 4;
      }
    }
    EXPECT_EQ(invalid, 0u);
    EXPECT_EQ(loose, 0u);
  }
}

// Bounded passes carry their chunk sums and rewrite only the partials
// that a point joined or left. Six passes, each held bit for bit to a
// from-scratch unbounded pass over the same centers: a first pass over
// three sets; the centers move; they stand still, so no point moves;
// they move again; one center of set 0 jumps far away, so its cluster
// loses every member of the first chunk; then set 1 leaves, and the
// kept sets' assignment, bounds and sums move slots as lloyd moves them.
// Every fourth point has zero weight, and some of those move.
TEST(AssignKernel, CarriedChunkSumsEqualFromScratchPass) {
  constexpr std::size_t n = 3001, d = 9, k = 8, grain = 2048;
  constexpr std::size_t far_set = 0, far_c = 2;
  const Dataset base = random_weighted(n, d, 41);
  std::vector<double> w = *base.weights();
  for (std::size_t i = 0; i < n; i += 4) w[i] = 0.0;
  const Dataset data(base.points(), std::move(w));
  const std::vector<double> norms = row_sq_norms(data.points());
  const std::size_t chunks = parallel_chunk_count(n, grain);
  ASSERT_EQ(chunks, 2u);

  for (std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    set_parallel_threads(threads);
    Rng rng = make_rng(42);
    auto jitter = [&](Matrix m) {
      for (double& x : m.flat()) {
        x += std::normal_distribution<double>(0.0, 0.3)(rng);
      }
      return m;
    };
    std::size_t sets = 3;
    Matrix centers(sets * k, d);
    for (std::size_t c = 0; c < sets * k; ++c) {
      const auto row = data.point(c * 113 + 7);
      std::copy(row.begin(), row.end(), centers.row(c).begin());
    }
    std::vector<std::size_t> index(sets * n);
    std::vector<double> sq(sets * n), lower(sets * n, 0.0),
        drift(sets * k, 0.0), sums(chunks * sets * k * d),
        weights(chunks * sets * k);
    std::size_t zero_weight_moves = 0;

    for (int step = 0; step < 6; ++step) {
      SCOPED_TRACE(::testing::Message() << "pass " << step + 1);
      Matrix next = centers;
      if (step == 1 || step == 3) next = jitter(centers);
      if (step == 4) {
        for (double& x : next.row(far_set * k + far_c)) x += 1000.0;
        ASSERT_GT(weights[far_set * k + far_c], 0.0);
      }
      if (step == 5) {
        // Set 1 leaves: slot 2 becomes slot 1, and slot (chunk, s) of the
        // three-set layout becomes (chunk, t) of the two-set one.
        const std::size_t from[] = {0, 2};
        std::copy_n(index.begin() + 2 * n, n, index.begin() + n);
        std::copy_n(lower.begin() + 2 * n, n, lower.begin() + n);
        for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
          for (std::size_t t = 0; t < 2; ++t) {
            const std::size_t src = chunk * 3 + from[t], dst = chunk * 2 + t;
            std::copy_n(sums.begin() + src * k * d, k * d,
                        sums.begin() + dst * k * d);
            std::copy_n(weights.begin() + src * k, k,
                        weights.begin() + dst * k);
          }
        }
        Matrix kept = centers.row_range(0, k);
        kept.append_rows(centers.row_range(2 * k, 3 * k));
        centers = kept;
        next = jitter(kept);
        sets = 2;
      }
      if (step > 0) {
        // Every bound is nonzero, so the pass carries every partial.
        ASSERT_TRUE(std::all_of(lower.begin(), lower.begin() + sets * n,
                                [](double l) { return l > 0.0; }));
        for (std::size_t c = 0; c < sets * k; ++c) {
          drift[c] = center_drift(centers.row(c), next.row(c));
        }
      }
      const std::vector<std::size_t> before(index.begin(),
                                            index.begin() + sets * n);
      const auto span_of = [&](auto& v, std::size_t per_set) {
        return std::span(v).first(per_set * sets);
      };
      const std::vector<double> got = assign_and_accumulate(
          data, next, sets, norms, grain, span_of(index, n), span_of(sq, n),
          span_of(sums, chunks * k * d), span_of(weights, chunks * k),
          span_of(lower, n), span_of(drift, k));
      std::vector<std::size_t> want_index(sets * n);
      std::vector<double> want_sq(sets * n), want_sums(chunks * sets * k * d),
          want_weights(chunks * sets * k);
      const std::vector<double> want =
          assign_and_accumulate(data, next, sets, norms, grain, want_index,
                                want_sq, want_sums, want_weights);
      EXPECT_TRUE(same_bits(got, want));
      EXPECT_TRUE(std::equal(want_index.begin(), want_index.end(),
                             index.begin()));
      EXPECT_TRUE(same_bits(span_of(sq, n), want_sq));
      EXPECT_TRUE(same_bits(span_of(sums, chunks * k * d), want_sums));
      EXPECT_TRUE(same_bits(span_of(weights, chunks * k), want_weights));

      std::size_t moves = 0;
      for (std::size_t x = 0; x < sets * n; ++x) {
        if (step == 0 || before[x] == index[x]) continue;
        ++moves;
        zero_weight_moves += data.weight(x % n) == 0.0;
      }
      if (step == 2) {
        EXPECT_EQ(moves, 0u);
      } else if (step != 0) {
        EXPECT_GT(moves, 0u);
      }
      if (step == 4) {
        // The far cluster's first-chunk partial is exactly +0.0 again.
        const std::size_t x = far_set * k + far_c;
        EXPECT_TRUE(same_bits(weights[x], 0.0));
        EXPECT_TRUE(same_bits(std::span(sums).subspan(x * d, d),
                              std::vector<double>(d, 0.0)));
      }
      centers = next;
    }
    EXPECT_GT(zero_weight_moves, 0u);
  }
  set_parallel_threads(0);
}

// The fused pass's folds, called directly on three chunk grids: 2048 and
// 512 points, whose chunks hold whole cost tiles, and 300, where tiles
// span two chunks. Unbounded at k = 2 and 4 with d = 1 and 8, so that
// one set's slot is smaller than a cache line, and bounded at k = 8: a
// first pass, then one that carries its sums after the centers move. At
// 1 and 4 threads each set's cost, index and d² equal assign_and_cost on
// that set's centers alone, and the chunk sums and weights equal a
// per-chunk reference, the chain lloyd's update step documents. An
// unbounded pass starts from NaN-filled slots, so a slot it skips shows.
TEST(AssignKernel, FusedPassFoldsEqualPerChunkReference) {
  constexpr std::size_t n = 5001, sets = 3;
  const struct {
    std::size_t k, d;
    bool bounded;
  } shapes[] = {{2, 1, false},
                {4, 1, false},
                {2, 8, false},
                {4, 8, false},
                {8, 8, true}};
  for (const auto& shape : shapes) {
    const std::size_t k = shape.k, d = shape.d;
    const Dataset base = random_weighted(n, d, 50 + k * 10 + d);
    std::vector<double> w = *base.weights();
    for (std::size_t i = 0; i < n; i += 4) w[i] = 0.0;
    const Dataset data(base.points(), std::move(w));
    const std::vector<double> norms = row_sq_norms(data.points());
    Matrix first(sets * k, d);
    for (std::size_t c = 0; c < sets * k; ++c) {
      const auto row = data.point(c * 151 + 3);
      std::copy(row.begin(), row.end(), first.row(c).begin());
    }
    Matrix second = first;
    Rng rng = make_rng(51);
    for (double& x : second.flat()) {
      x += std::normal_distribution<double>(0.0, 0.3)(rng);
    }
    std::vector<double> drift(sets * k);
    for (std::size_t c = 0; c < sets * k; ++c) {
      drift[c] = center_drift(first.row(c), second.row(c));
    }
    for (std::size_t grain : {2048u, 512u, 300u}) {
      SCOPED_TRACE(::testing::Message() << "k " << k << ", d " << d
                                        << ", grain " << grain);
      const std::size_t chunks = parallel_chunk_count(n, grain);
      std::vector<std::size_t> index_1t;
      std::vector<double> sq_1t, sums_1t, weights_1t;
      for (std::size_t threads : {1u, 4u}) {
        SCOPED_TRACE(::testing::Message() << threads << " threads");
        set_parallel_threads(threads);
        std::vector<std::size_t> index(sets * n);
        std::vector<double> sq(sets * n), sums(chunks * sets * k * d),
            weights(chunks * sets * k);
        // Empty bounds make the pass unbounded.
        std::vector<double> lower(shape.bounded ? sets * n : 0, 0.0);
        const std::vector<double> still(lower.empty() ? 0 : sets * k, 0.0);
        auto pass = [&](const Matrix& centers, std::span<const double> moved) {
          if (lower.empty()) {
            std::fill(sums.begin(), sums.end(), std::nan(""));
            std::fill(weights.begin(), weights.end(), std::nan(""));
          }
          const std::vector<double> costs = assign_and_accumulate(
              data, centers, sets, norms, grain, index, sq, sums, weights,
              lower, moved);
          for (std::size_t s = 0; s < sets; ++s) {
            const Matrix own = centers.row_range(s * k, s * k + k);
            std::vector<std::size_t> want_index(n);
            std::vector<double> want_sq(n);
            EXPECT_TRUE(same_bits(
                costs[s], assign_and_cost(data, own, want_index, want_sq)));
            EXPECT_TRUE(std::equal(want_index.begin(), want_index.end(),
                                   index.begin() + s * n));
            EXPECT_TRUE(same_bits(std::span(sq).subspan(s * n, n), want_sq));
            for (std::size_t g = 0; g < chunks; ++g) {
              std::vector<double> want_sums(k * d, 0.0), want_weights(k, 0.0);
              for (std::size_t i = g * grain;
                   i < std::min(n, g * grain + grain); ++i) {
                if (data.weight(i) == 0.0) continue;
                const std::size_t c = want_index[i];
                want_weights[c] += data.weight(i);
                for (std::size_t j = 0; j < d; ++j) {
                  want_sums[c * d + j] = chain_step(
                      want_sums[c * d + j], data.weight(i), data.point(i)[j]);
                }
              }
              const std::size_t slot = g * sets + s;
              EXPECT_TRUE(same_bits(
                  std::span(sums).subspan(slot * k * d, k * d), want_sums));
              EXPECT_TRUE(same_bits(std::span(weights).subspan(slot * k, k),
                                    want_weights));
            }
          }
        };
        pass(first, still);
        if (shape.bounded) pass(second, drift);
        if (threads == 1) {
          index_1t = index;
          sq_1t = sq;
          sums_1t = sums;
          weights_1t = weights;
        } else {
          EXPECT_EQ(index, index_1t);
          EXPECT_TRUE(same_bits(sq, sq_1t));
          EXPECT_TRUE(same_bits(sums, sums_1t));
          EXPECT_TRUE(same_bits(weights, weights_1t));
        }
      }
    }
  }
  set_parallel_threads(0);
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

  // kmeans()'s k-means++ seeding alone: one restart and no Lloyd pass.
  KMeansOptions seeding;
  seeding.k = 12;
  seeding.max_iters = 0;
  seeding.restarts = 1;
  seeding.seed = 7;

  set_parallel_threads(1);
  const Matrix seeds1 = kmeans(data, seeding).centers;
  const double cost1 = kmeans_cost(data, seeds1);

  set_parallel_threads(8);
  const Matrix seeds2 = kmeans(data, seeding).centers;
  const double cost2 = kmeans_cost(data, seeds2);
  set_parallel_threads(0);

  EXPECT_TRUE(seeds1 == seeds2);
  EXPECT_EQ(cost1, cost2);
}

}  // namespace
}  // namespace ekm
