#include "kmeans/assign.hpp"

#include <algorithm>
#include <cmath>
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
// doubles; AVX2: two ymm).
constexpr std::size_t kLanes = 8;
// Points per register block: each center-tile row load feeds this many
// points. On AVX-512 the block's 16 accumulators and 4 tile rows fit the
// 32 zmm registers.
constexpr std::size_t kPointBlock = 4;

// Four-lane dot product with fixed association (deterministic); used for
// the cached row norms. The compiler vectorizes the loop as an in-order
// reduction, so which steps are fused is the build's choice; the kernel
// only ever reads the norms, never recomputes them.
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

// One step of a weighted-cost chain: s + w·d², fused where the target has
// a fast FMA, as the compiler contracts it inside the assignment scan. A
// plain tile-fold loop would instead be vectorized into separately
// rounded products added in order, so both folds spell the step out.
inline double cost_step(double s, double w, double d2) {
#if defined(__FP_FAST_FMA)
  return std::fma(w, d2, s);
#else
  return s + w * d2;
#endif
}

// The first 64-byte boundary in `buf`, which holds kLanes spare doubles
// for the shift: there each [j][lane] row of a tile is one aligned cache
// line.
inline double* align64(std::vector<double>& buf) {
  const auto base = reinterpret_cast<std::uintptr_t>(buf.data());
  return buf.data() + (64 - base % 64) % 64 / sizeof(double);
}

// Centers repacked GEMM-style: block B holds lanes for centers
// [B·8, B·8+8) transposed to [j][lane] so the lane dimension is
// contiguous — the inner product over j becomes broadcast(p[j]) * tile
// row, eight centers per FMA. The centers split into `sets` equal runs
// of `per_set` consecutive rows, packed densely: a tile may hold the
// end of one set and the start of the next. Only the last block is
// ragged; its zero-padded lanes are never scanned.
struct PackedCenters {
  std::size_t k = 0;
  std::size_t d = 0;
  std::size_t sets = 1;
  std::size_t per_set = 0;
  std::size_t blocks = 0;
  std::vector<double> tiles;  // [block][j][lane], 64-byte-aligned base
  std::vector<double> norms;  // [block*8 + lane], zero padding
  std::size_t align_offset = 0;

  PackedCenters(const Matrix& centers, std::size_t sets)
      : k(centers.rows()),
        d(centers.cols()),
        sets(sets),
        per_set(centers.rows() / sets),
        blocks((centers.rows() + kLanes - 1) / kLanes),
        tiles(blocks * centers.cols() * kLanes + kLanes, 0.0),
        norms(blocks * kLanes, 0.0) {
    align_offset = static_cast<std::size_t>(align64(tiles) - tiles.data());
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

// d²(p_q, centers of one block), all eight lanes, for P points at once
// (Goto & van de Geijn's register blocking): per j-step the four tile
// rows t[j..j+3] are loaded once and feed every point. Each point keeps
// four j-split accumulator vectors that break the FMA latency chain and
// fold as (a0+a1)+(a2+a3), so every (point, center) cell computes the
// same chain whatever P, the tiling, the lane or the thread count. The
// epilogue — fold, ‖p‖²+‖c‖²−2⟨p,c⟩, clamp — stays in 8-lane registers
// (GNU vector extensions, which the sanitizer Debug builds compile too)
// and lands in out[q·stride].
using Lanes8 = double __attribute__((vector_size(kLanes * sizeof(double)),
                                     aligned(64)));

template <std::size_t P>
inline void block_sq_dists(const double* const* p, const double* pn,
                           const double* tile, const double* cn,
                           std::size_t d, Lanes8* out, std::size_t stride) {
  const auto* t =
      static_cast<const Lanes8*>(__builtin_assume_aligned(tile, 64));
  Lanes8 a[P][4] = {};
  std::size_t j = 0;
  for (; j + 4 <= d; j += 4) {
    const Lanes8 t0 = t[j], t1 = t[j + 1], t2 = t[j + 2], t3 = t[j + 3];
#pragma GCC unroll 4
    for (std::size_t q = 0; q < P; ++q) {
      a[q][0] += p[q][j] * t0;
      a[q][1] += p[q][j + 1] * t1;
      a[q][2] += p[q][j + 2] * t2;
      a[q][3] += p[q][j + 3] * t3;
    }
  }
  for (; j < d; ++j) {
#pragma GCC unroll 4
    for (std::size_t q = 0; q < P; ++q) a[q][0] += p[q][j] * t[j];
  }
  Lanes8 c;
  for (std::size_t b = 0; b < kLanes; ++b) c[b] = cn[b];
#pragma GCC unroll 4
  for (std::size_t q = 0; q < P; ++q) {
    const Lanes8 dot = (a[q][0] + a[q][1]) + (a[q][2] + a[q][3]);
    Lanes8 d2 = pn[q] + c;
    d2 -= 2.0 * dot;
    // Clamp cancellation noise at zero.
    out[q * stride] = d2 > 0.0 ? d2 : Lanes8{};
  }
}

// Scans points [i, i+P): every block's distances land in `dist`
// ([q][block]), then each set's lanes are scanned in ascending order and
// per_point(i+q, set, best_index, best_sq_dist) is called, sets
// ascending, then q ascending; best_index counts within the set. `seed`
// (optional, one running minimum per set and point, set s's at
// [s·n, s·n + n)) caps each minimum from below — ties against the seed
// keep the seed, ties between centers keep the lowest index, like the
// naive scan.
template <std::size_t P, class PerPoint>
void scan_block(const Matrix& points, const PackedCenters& pc,
                const double* pnorm, std::size_t i, const double* seed,
                Lanes8* dist, PerPoint& per_point) {
  const double* p[P];
  for (std::size_t q = 0; q < P; ++q) p[q] = points.row_ptr(i + q);
  for (std::size_t block = 0; block < pc.blocks; ++block) {
    block_sq_dists<P>(p, pnorm + i, pc.tile(block),
                      pc.norms.data() + block * kLanes, pc.d, dist + block,
                      pc.blocks);
  }
  // GNU vector types alias their element type: the lanes read back as
  // doubles.
  const double* lanes[P];
  for (std::size_t q = 0; q < P; ++q) {
    lanes[q] = reinterpret_cast<const double*>(dist + q * pc.blocks);
  }
  const std::size_t n = points.rows();
  for (std::size_t s = 0; s < pc.sets; ++s) {
    double best[P];
    std::size_t best_c[P] = {};
    for (std::size_t q = 0; q < P; ++q) {
      best[q] = seed != nullptr ? seed[s * n + i + q]
                                : std::numeric_limits<double>::infinity();
    }
    // The P points' minimum chains are independent: interleaving them
    // hides the compare latency.
    const std::size_t g0 = s * pc.per_set;
    for (std::size_t c = 0; c < pc.per_set; ++c) {
#pragma GCC unroll 4
      for (std::size_t q = 0; q < P; ++q) {
        const double d2 = lanes[q][g0 + c];
        if (d2 < best[q]) {
          best[q] = d2;
          best_c[q] = c;
        }
      }
    }
    for (std::size_t q = 0; q < P; ++q) {
      per_point(i + q, s, best_c[q], best[q]);
    }
  }
}

// Points [i0, i1) in blocks of kPointBlock; the ragged tail runs one
// point at a time through the same template.
template <class PerPoint>
void scan_points(const Matrix& points, const PackedCenters& pc,
                 const double* pnorm, std::size_t i0, std::size_t i1,
                 const double* seed, PerPoint&& per_point) {
  std::vector<double> store(kPointBlock * pc.blocks * kLanes + kLanes);
  auto* dist = reinterpret_cast<Lanes8*>(align64(store));
  std::size_t i = i0;
  for (; i + kPointBlock <= i1; i += kPointBlock) {
    scan_block<kPointBlock>(points, pc, pnorm, i, seed, dist, per_point);
  }
  for (; i < i1; ++i) {
    scan_block<1>(points, pc, pnorm, i, seed, dist, per_point);
  }
}

void check_shapes(const Matrix& points, const Matrix& centers,
                  std::size_t sets = 1) {
  EKM_EXPECTS_MSG(centers.rows() > 0, "no centers");
  EKM_EXPECTS_MSG(points.cols() == centers.cols(),
                  "points/centers dimension mismatch");
  EKM_EXPECTS_MSG(sets >= 1 && centers.rows() % sets == 0,
                  "centers do not split into equal sets");
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
  const PackedCenters pc(centers, 1);
  std::size_t* idx = index.empty() ? nullptr : index.data();
  double* sd = sq_dist.empty() ? nullptr : sq_dist.data();
  parallel_for(n, kPointTile, [&](std::size_t begin, std::size_t end) {
    scan_points(points, pc, pn.data(), begin, end, nullptr,
                [&](std::size_t i, std::size_t, std::size_t c, double d2) {
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
  const PackedCenters pc(centers, 1);
  std::size_t* idx = index.empty() ? nullptr : index.data();
  double* sd = sq_dist.empty() ? nullptr : sq_dist.data();
  std::vector<double> partial(parallel_chunk_count(n, kPointTile), 0.0);
  parallel_for_chunks(
      n, kPointTile,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        double local = 0.0;
        scan_points(points, pc, pn.data(), begin, end, nullptr,
                    [&](std::size_t i, std::size_t, std::size_t c,
                        double d2) {
                      if (idx != nullptr) idx[i] = c;
                      if (sd != nullptr) sd[i] = d2;
                      local = cost_step(local, data.weight(i), d2);
                    });
        partial[chunk] = local;
      });
  double cost = 0.0;
  for (double p : partial) cost += p;  // fixed tile order
  return cost;
}

std::vector<double> assign_and_accumulate(
    const Dataset& data, const Matrix& centers, std::size_t sets,
    std::span<const double> point_sq_norms, std::size_t grain,
    std::span<std::size_t> index, std::span<double> sq_dist,
    std::span<double> chunk_sums, std::span<double> chunk_weights) {
  ObsKernelScope obs_scope("assign_and_accumulate");
  const Matrix& points = data.points();
  check_shapes(points, centers, sets);
  const std::size_t n = points.rows();
  const std::size_t k = centers.rows() / sets;
  const std::size_t d = centers.cols();
  const std::size_t chunks = parallel_chunk_count(n, grain);
  EKM_EXPECTS(point_sq_norms.size() == n && index.size() == sets * n &&
              sq_dist.size() == sets * n);
  EKM_EXPECTS(chunk_sums.size() == chunks * sets * k * d &&
              chunk_weights.size() == chunks * sets * k);
  const PackedCenters pc(centers, sets);
  parallel_for_chunks(
      n, grain, [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        double* psums = chunk_sums.data() + chunk * sets * k * d;
        double* pweight = chunk_weights.data() + chunk * sets * k;
        std::fill_n(psums, sets * k * d, 0.0);
        std::fill_n(pweight, sets * k, 0.0);
        // Each point's sums are added right after its block is scanned,
        // while its row is still in L1.
        scan_points(points, pc, point_sq_norms.data(), begin, end, nullptr,
                    [&](std::size_t i, std::size_t s, std::size_t c,
                        double d2) {
                      index[s * n + i] = c;
                      sq_dist[s * n + i] = d2;
                      const double w = data.weight(i);
                      if (w == 0.0) return;
                      const std::size_t cluster = s * k + c;
                      pweight[cluster] += w;
                      const double* p = points.row_ptr(i);
                      double* sum = psums + cluster * d;
                      for (std::size_t j = 0; j < d; ++j) sum[j] += w * p[j];
                    });
      });
  // assign_and_cost's association, per set: one partial per point tile,
  // folded in tile order.
  std::vector<double> costs(sets, 0.0);
  for (std::size_t s = 0; s < sets; ++s) {
    const double* sd = sq_dist.data() + s * n;
    for (std::size_t t0 = 0; t0 < n; t0 += kPointTile) {
      const std::size_t t1 = std::min(n, t0 + kPointTile);
      double local = 0.0;
      for (std::size_t i = t0; i < t1; ++i) {
        local = cost_step(local, data.weight(i), sd[i]);
      }
      costs[s] += local;
    }
  }
  return costs;
}

void update_min_sq_dist(const Matrix& points, const Matrix& centers,
                        std::span<double> d2,
                        std::span<const double> point_sq_norms,
                        std::size_t sets) {
  check_shapes(points, centers, sets);
  const std::size_t n = points.rows();
  EKM_EXPECTS(d2.size() == sets * n);
  if (n == 0) return;
  std::vector<double> pn_store;
  const std::span<const double> pn = norms_or(point_sq_norms, points, pn_store);
  const PackedCenters pc(centers, sets);
  double* out = d2.data();
  parallel_for(n, kPointTile, [&](std::size_t begin, std::size_t end) {
    scan_points(points, pc, pn.data(), begin, end, out,
                [&](std::size_t i, std::size_t s, std::size_t, double best) {
                  out[s * n + i] = best;
                });
  });
}

}  // namespace ekm
