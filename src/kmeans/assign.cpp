#include "kmeans/assign.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "common/parallel.hpp"
#include "obs/recorder.hpp"

namespace ekm {
namespace {

// Points per parallel chunk. This is the deterministic reduction grain:
// weighted costs fold one partial per tile, in tile order.
constexpr std::size_t kPointTile = 256;
// Centers per packed tile — one SIMD lane each (AVX-512: one zmm of
// doubles; AVX2: two ymm). The b-loops below are fixed-trip so the
// compiler turns them into broadcast-FMA vector ops.
constexpr std::size_t kLanes = 8;

// Four-lane dot product with fixed association (deterministic); used for
// the cached row norms.
inline double dot4(const double* a, const double* b, std::size_t d) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t j = 0;
  for (; j + 4 <= d; j += 4) {
    s0 += a[j] * b[j];
    s1 += a[j + 1] * b[j + 1];
    s2 += a[j + 2] * b[j + 2];
    s3 += a[j + 3] * b[j + 3];
  }
  double s = (s0 + s1) + (s2 + s3);
  for (; j < d; ++j) s += a[j] * b[j];
  return s;
}

// Centers repacked GEMM-style: block B holds lanes for centers
// [B·8, B·8+8) transposed to [j][lane] so the lane dimension is
// contiguous — the inner product over j becomes broadcast(p[j]) * tile
// row, eight centers per FMA. Ragged blocks are zero-padded; padded
// lanes carry a +inf norm so their distance is +inf and never wins.
struct PackedCenters {
  std::size_t k = 0;
  std::size_t d = 0;
  std::size_t blocks = 0;
  std::vector<double> tiles;  // [block][j][lane], 64-byte-aligned base
  std::vector<double> norms;  // [block*8 + lane], +inf padding
  std::size_t align_offset = 0;

  explicit PackedCenters(const Matrix& centers)
      : k(centers.rows()),
        d(centers.cols()),
        blocks((centers.rows() + kLanes - 1) / kLanes),
        tiles(blocks * centers.cols() * kLanes + kLanes, 0.0),
        norms(blocks * kLanes, std::numeric_limits<double>::infinity()) {
    // Align the tile base so each [j][lane] row is one aligned cache
    // line (a lane row is exactly 64 bytes).
    const auto base = reinterpret_cast<std::uintptr_t>(tiles.data());
    align_offset = (64 - base % 64) % 64 / sizeof(double);
    for (std::size_t c = 0; c < k; ++c) {
      const double* row = centers.row_ptr(c);
      double* t = tile(c / kLanes);
      const std::size_t lane = c % kLanes;
      for (std::size_t j = 0; j < d; ++j) t[j * kLanes + lane] = row[j];
      norms[c] = dot4(row, row, d);
    }
  }

  [[nodiscard]] double* tile(std::size_t block) {
    return tiles.data() + align_offset + block * d * kLanes;
  }
  [[nodiscard]] const double* tile(std::size_t block) const {
    return tiles.data() + align_offset + block * d * kLanes;
  }
};

// d²(p, centers of block B) for all eight lanes. Four j-split
// accumulator vectors break the FMA latency chain; they are combined in
// a fixed order, so results do not depend on tiling or thread count.
#if defined(__GNUC__) || defined(__clang__)
// GNU vector-extension path: keeps the whole block — accumulate, fold,
// clamp — in one 8-lane register, so the epilogue is a handful of vector
// ops instead of per-lane extracts.
using Lanes8 = double __attribute__((vector_size(kLanes * sizeof(double)),
                                     aligned(64)));

inline void block_sq_dists(const double* p, double pn, const double* tile,
                           const double* cn, std::size_t d, double* out) {
  const auto* t =
      static_cast<const Lanes8*>(__builtin_assume_aligned(tile, 64));
  Lanes8 a0 = {}, a1 = {}, a2 = {}, a3 = {};
  std::size_t j = 0;
  for (; j + 4 <= d; j += 4) {
    a0 += p[j] * t[j];
    a1 += p[j + 1] * t[j + 1];
    a2 += p[j + 2] * t[j + 2];
    a3 += p[j + 3] * t[j + 3];
  }
  for (; j < d; ++j) a0 += p[j] * t[j];
  const Lanes8 dot = (a0 + a1) + (a2 + a3);
  Lanes8 d2;
  for (std::size_t b = 0; b < kLanes; ++b) d2[b] = pn + cn[b];
  d2 -= 2.0 * dot;
  d2 = d2 > 0.0 ? d2 : Lanes8{};  // clamp cancellation noise at zero
  for (std::size_t b = 0; b < kLanes; ++b) out[b] = d2[b];
}
#else
inline void block_sq_dists(const double* p, double pn, const double* tile,
                           const double* cn, std::size_t d, double* out) {
  double a0[kLanes] = {0.0}, a1[kLanes] = {0.0};
  double a2[kLanes] = {0.0}, a3[kLanes] = {0.0};
  std::size_t j = 0;
  for (; j + 4 <= d; j += 4) {
    const double p0 = p[j], p1 = p[j + 1], p2 = p[j + 2], p3 = p[j + 3];
    const double* t = tile + j * kLanes;
    for (std::size_t b = 0; b < kLanes; ++b) a0[b] += p0 * t[b];
    for (std::size_t b = 0; b < kLanes; ++b) a1[b] += p1 * t[kLanes + b];
    for (std::size_t b = 0; b < kLanes; ++b) a2[b] += p2 * t[2 * kLanes + b];
    for (std::size_t b = 0; b < kLanes; ++b) a3[b] += p3 * t[3 * kLanes + b];
  }
  for (; j < d; ++j) {
    const double pj = p[j];
    const double* t = tile + j * kLanes;
    for (std::size_t b = 0; b < kLanes; ++b) a0[b] += pj * t[b];
  }
  for (std::size_t b = 0; b < kLanes; ++b) {
    const double dot = (a0[b] + a1[b]) + (a2[b] + a3[b]);
    out[b] = std::max(0.0, pn + cn[b] - 2.0 * dot);
  }
}
#endif

// Scans all center blocks in ascending order for each point of [i0, i1)
// and calls per_point(i, best_index, best_sq_dist). `seed` (optional)
// caps the running minimum from below — ties against the seed keep the
// seed, ties between centers keep the lowest index, like the naive scan.
template <class PerPoint>
void scan_points(const Matrix& points, const PackedCenters& pc,
                 const double* pnorm, std::size_t i0, std::size_t i1,
                 const double* seed, PerPoint&& per_point) {
  const std::size_t d = pc.d;
  double d2[kLanes];
  for (std::size_t i = i0; i < i1; ++i) {
    const double* p = points.row_ptr(i);
    const double pn = pnorm[i];
    double best = seed != nullptr ? seed[i]
                                  : std::numeric_limits<double>::infinity();
    std::size_t best_c = 0;
    for (std::size_t block = 0; block < pc.blocks; ++block) {
      block_sq_dists(p, pn, pc.tile(block), pc.norms.data() + block * kLanes,
                     d, d2);
      for (std::size_t b = 0; b < kLanes; ++b) {
        if (d2[b] < best) {  // padded lanes are +inf and never win
          best = d2[b];
          best_c = block * kLanes + b;
        }
      }
    }
    per_point(i, best_c, best);
  }
}

void check_shapes(const Matrix& points, const Matrix& centers) {
  EKM_EXPECTS_MSG(centers.rows() > 0, "no centers");
  EKM_EXPECTS_MSG(points.cols() == centers.cols(),
                  "points/centers dimension mismatch");
}

// Caller-provided point norms, or a freshly computed set kept alive in
// `store`. Shared by every public entry point taking point_sq_norms.
std::span<const double> norms_or(std::span<const double> given,
                                 const Matrix& points,
                                 std::vector<double>& store) {
  EKM_EXPECTS(given.empty() || given.size() == points.rows());
  if (!given.empty()) return given;
  store = row_sq_norms(points);
  return store;
}

}  // namespace

std::vector<double> row_sq_norms(const Matrix& m) {
  std::vector<double> out(m.rows());
  const std::size_t d = m.cols();
  parallel_for(m.rows(), 4 * kPointTile,
               [&](std::size_t begin, std::size_t end) {
                 for (std::size_t i = begin; i < end; ++i) {
                   const double* r = m.row_ptr(i);
                   out[i] = dot4(r, r, d);
                 }
               });
  return out;
}

BatchAssignment assign_batch(const Matrix& points, const Matrix& centers) {
  BatchAssignment out;
  out.index.resize(points.rows());
  out.sq_dist.resize(points.rows());
  assign_batch_into(points, centers, out.index, out.sq_dist);
  return out;
}

void assign_batch_into(const Matrix& points, const Matrix& centers,
                       std::span<std::size_t> index,
                       std::span<double> sq_dist,
                       std::span<const double> point_sq_norms) {
  // Wall-clock span for the flight recorder (src/obs/); entered on the
  // calling (protocol) thread, so no pool worker ever touches it.
  ObsKernelScope obs_scope("assign_batch");
  check_shapes(points, centers);
  const std::size_t n = points.rows();
  EKM_EXPECTS(index.empty() || index.size() == n);
  EKM_EXPECTS(sq_dist.empty() || sq_dist.size() == n);
  if (n == 0) return;
  std::vector<double> pn_store;
  const std::span<const double> pn = norms_or(point_sq_norms, points, pn_store);
  const PackedCenters pc(centers);
  std::size_t* idx = index.empty() ? nullptr : index.data();
  double* sd = sq_dist.empty() ? nullptr : sq_dist.data();
  parallel_for(n, kPointTile, [&](std::size_t begin, std::size_t end) {
    scan_points(points, pc, pn.data(), begin, end, nullptr,
                [&](std::size_t i, std::size_t c, double d2) {
                  if (idx != nullptr) idx[i] = c;
                  if (sd != nullptr) sd[i] = d2;
                });
  });
}

double assign_and_cost(const Dataset& data, const Matrix& centers,
                       std::span<std::size_t> index,
                       std::span<double> sq_dist,
                       std::span<const double> point_sq_norms) {
  ObsKernelScope obs_scope("assign_and_cost");
  const Matrix& points = data.points();
  check_shapes(points, centers);
  const std::size_t n = points.rows();
  EKM_EXPECTS(index.empty() || index.size() == n);
  EKM_EXPECTS(sq_dist.empty() || sq_dist.size() == n);
  if (n == 0) return 0.0;
  std::vector<double> pn_store;
  const std::span<const double> pn = norms_or(point_sq_norms, points, pn_store);
  const PackedCenters pc(centers);
  std::size_t* idx = index.empty() ? nullptr : index.data();
  double* sd = sq_dist.empty() ? nullptr : sq_dist.data();
  std::vector<double> partial(parallel_chunk_count(n, kPointTile), 0.0);
  parallel_for_chunks(
      n, kPointTile,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        double local = 0.0;
        scan_points(points, pc, pn.data(), begin, end, nullptr,
                    [&](std::size_t i, std::size_t c, double d2) {
                      if (idx != nullptr) idx[i] = c;
                      if (sd != nullptr) sd[i] = d2;
                      local += data.weight(i) * d2;
                    });
        partial[chunk] = local;
      });
  double cost = 0.0;
  for (double p : partial) cost += p;  // fixed tile order
  return cost;
}

void update_min_sq_dist(const Matrix& points, const Matrix& centers,
                        std::span<double> d2,
                        std::span<const double> point_sq_norms) {
  check_shapes(points, centers);
  const std::size_t n = points.rows();
  EKM_EXPECTS(d2.size() == n);
  if (n == 0) return;
  std::vector<double> pn_store;
  const std::span<const double> pn = norms_or(point_sq_norms, points, pn_store);
  const PackedCenters pc(centers);
  double* out = d2.data();
  parallel_for(n, kPointTile, [&](std::size_t begin, std::size_t end) {
    scan_points(points, pc, pn.data(), begin, end, out,
                [&](std::size_t i, std::size_t, double best) {
                  out[i] = best;
                });
  });
}

}  // namespace ekm
