#include "kmeans/assign.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "common/chain_step.hpp"
#include "common/parallel.hpp"
#include "obs/span.hpp"

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

// Scans the P points ids[0..P) against the sets [s0, s1): the distances
// to every block holding those sets' centers land in `dist`
// ([q][block]), then each set's lanes are scanned in ascending order and
// per_point(id, set, best_index, best_sq_dist, cells) is called, sets
// ascending, then q ascending; best_index counts within the set and
// `cells` holds the set's per_set distances for the point. `seed`
// (optional, one running minimum per set and point, set s's at
// [s·n, s·n + n)) caps each minimum from below — ties against the seed
// keep the seed, ties between centers keep the lowest index, like the
// naive scan.
template <std::size_t P, class PerPoint>
void scan_block(const Matrix& points, const PackedCenters& pc,
                const double* pnorm, const std::size_t* ids, std::size_t s0,
                std::size_t s1, const double* seed, Lanes8* dist,
                PerPoint& per_point) {
  const double* p[P];
  double pn[P];
  for (std::size_t q = 0; q < P; ++q) {
    p[q] = points.row_ptr(ids[q]);
    pn[q] = pnorm[ids[q]];
  }
  const std::size_t b1 = (s1 * pc.per_set + kLanes - 1) / kLanes;
  for (std::size_t block = s0 * pc.per_set / kLanes; block < b1; ++block) {
    block_sq_dists<P>(p, pn, pc.tile(block), pc.norms.data() + block * kLanes,
                      pc.d, dist + block, pc.blocks);
  }
  // GNU vector types alias their element type: the lanes read back as
  // doubles.
  const double* lanes[P];
  for (std::size_t q = 0; q < P; ++q) {
    lanes[q] = reinterpret_cast<const double*>(dist + q * pc.blocks);
  }
  const std::size_t n = points.rows();
  for (std::size_t s = s0; s < s1; ++s) {
    double best[P];
    std::size_t best_c[P] = {};
    for (std::size_t q = 0; q < P; ++q) {
      best[q] = seed != nullptr ? seed[s * n + ids[q]]
                                : std::numeric_limits<double>::infinity();
    }
    // The P points' minimum chains are independent: interleaving them
    // hides the compare latency. Selects, not branches: the winner
    // depends on the data, so a branch on it mispredicts often. The
    // comparison is the same strict <, so ties and NaN keep the best.
    const std::size_t g0 = s * pc.per_set;
    for (std::size_t c = 0; c < pc.per_set; ++c) {
#pragma GCC unroll 4
      for (std::size_t q = 0; q < P; ++q) {
        const double d2 = lanes[q][g0 + c];
        const bool lt = d2 < best[q];
        best_c[q] = lt ? c : best_c[q];
        best[q] = lt ? d2 : best[q];
      }
    }
    for (std::size_t q = 0; q < P; ++q) {
      per_point(ids[q], s, best_c[q], best[q], lanes[q] + g0);
    }
  }
}

// Room for one scan_block's distances: kPointBlock points by every block.
// `dist` points into `store`, so a copy would alias the original's.
struct ScanBuffer {
  std::vector<double> store;
  Lanes8* dist;
  explicit ScanBuffer(const PackedCenters& pc)
      : store(kPointBlock * pc.blocks * kLanes + kLanes),
        dist(reinterpret_cast<Lanes8*>(align64(store))) {}
  ScanBuffer(const ScanBuffer&) = delete;
  ScanBuffer& operator=(const ScanBuffer&) = delete;
};

// The points ids[0..count) against the sets [s0, s1), in blocks of
// kPointBlock; the ragged tail runs one point at a time through the same
// template.
template <class PerPoint>
void scan_ids(const Matrix& points, const PackedCenters& pc,
              const double* pnorm, const std::size_t* ids, std::size_t count,
              std::size_t s0, std::size_t s1, const double* seed,
              ScanBuffer& buf, PerPoint& per_point) {
  std::size_t g = 0;
  for (; g + kPointBlock <= count; g += kPointBlock) {
    scan_block<kPointBlock>(points, pc, pnorm, ids + g, s0, s1, seed,
                            buf.dist, per_point);
  }
  for (; g < count; ++g) {
    scan_block<1>(points, pc, pnorm, ids + g, s0, s1, seed, buf.dist,
                  per_point);
  }
}

// Points [i0, i1) against every set, as scan_ids would scan their ids.
template <class PerPoint>
void scan_points(const Matrix& points, const PackedCenters& pc,
                 const double* pnorm, std::size_t i0, std::size_t i1,
                 const double* seed, PerPoint&& per_point) {
  ScanBuffer buf(pc);
  std::size_t ids[kPointBlock];
  std::size_t i = i0;
  for (; i + kPointBlock <= i1; i += kPointBlock) {
    for (std::size_t q = 0; q < kPointBlock; ++q) ids[q] = i + q;
    scan_block<kPointBlock>(points, pc, pnorm, ids, 0, pc.sets, seed,
                            buf.dist, per_point);
  }
  for (; i < i1; ++i) {
    scan_block<1>(points, pc, pnorm, &i, 0, pc.sets, seed, buf.dist,
                  per_point);
  }
}

// ---- Lloyd's pass with Hamerly's bounds ------------------------------------

// One cell outside the tiles, on block_sq_dists' chain for its lane: the
// four j-split accumulators are the lanes of one 4-lane vector, the
// d mod 4 tail goes on the first, they fold as (a0+a1)+(a2+a3), and
// ‖p‖²+‖c‖²−2⟨p,c⟩ is clamped at zero. out[g] = d²(p, c[g]) for G
// centers; their chains are independent, so interleaving them hides the
// FMA latency.
using Lanes4 = double __attribute__((vector_size(4 * sizeof(double))));

template <std::size_t G>
void own_sq_dists(const double* p, double pn, const double* const* c,
                  const double* cn, std::size_t d, double* out) {
  Lanes4 a[G] = {};
  std::size_t j = 0;
  for (; j + 4 <= d; j += 4) {
    Lanes4 pv;
    std::memcpy(&pv, p + j, sizeof pv);
#pragma GCC unroll 8
    for (std::size_t g = 0; g < G; ++g) {
      Lanes4 cv;
      std::memcpy(&cv, c[g] + j, sizeof cv);
      a[g] += pv * cv;
    }
  }
  for (std::size_t g = 0; g < G; ++g) {
    double a0 = a[g][0];
    for (std::size_t t = j; t < d; ++t) a0 = chain_step(a0, p[t], c[g][t]);
    const double dot = (a0 + a[g][1]) + (a[g][2] + a[g][3]);
    const double d2 = (pn + cn[g]) - 2.0 * dot;
    out[g] = d2 > 0.0 ? d2 : 0.0;
  }
}

// Own cells of one point, up to kOwnGroup at a time: a lock-step group
// of restarts fits one.
constexpr std::size_t kOwnGroup = 8;

void own_sq_dists(const double* p, double pn, const double* const* c,
                  const double* cn, std::size_t m, std::size_t d,
                  double* out) {
  switch (m) {
    case 8: return own_sq_dists<8>(p, pn, c, cn, d, out);
    case 7: return own_sq_dists<7>(p, pn, c, cn, d, out);
    case 6: return own_sq_dists<6>(p, pn, c, cn, d, out);
    case 5: return own_sq_dists<5>(p, pn, c, cn, d, out);
    case 4: return own_sq_dists<4>(p, pn, c, cn, d, out);
    case 3: return own_sq_dists<3>(p, pn, c, cn, d, out);
    case 2: return own_sq_dists<2>(p, pn, c, cn, d, out);
    case 1: return own_sq_dists<1>(p, pn, c, cn, d, out);
    default: return;
  }
}

// What a bounded pass needs of each set: how far its centers moved since
// the last pass, and how large they are.
struct SetBounds {
  double far = 0.0;       // the largest center drift
  std::size_t far_c = 0;  // its center
  double far2 = 0.0;      // the largest drift among the other centers
  double radius = 0.0;    // max ‖c‖ over the set's centers
};

std::vector<SetBounds> set_bounds(const PackedCenters& pc,
                                  std::span<const double> drift) {
  std::vector<SetBounds> out(pc.sets);
  for (std::size_t s = 0; s < pc.sets; ++s) {
    SetBounds& b = out[s];
    for (std::size_t c = 0; c < pc.per_set; ++c) {
      const double m = drift[s * pc.per_set + c];
      if (m > b.far) {
        b.far2 = b.far;
        b.far = m;
        b.far_c = c;
      } else if (m > b.far2) {
        b.far2 = m;
      }
      b.radius = std::max(b.radius, std::sqrt(pc.norms[s * pc.per_set + c]));
    }
  }
  return out;
}

// A decayed bound times this rounds below the exact difference: one
// rounding of the subtraction and one of the product stay under 2ε.
constexpr double kShrink = 1.0 - 2.0 * std::numeric_limits<double>::epsilon();

// Adds point i, weighted, to `cluster`'s chunk sums: the update step's
// one accumulation. Each cluster's chunk sums see its points in
// ascending order from +0, bounded pass or not, written in full or
// rewritten after a carry, so their bits do not depend on which points
// were scanned.
inline void add_point(const Dataset& data, std::size_t i, std::size_t cluster,
                      double* psums, double* pweight) {
  const double w = data.weight(i);
  if (w == 0.0) return;
  pweight[cluster] += w;
  const std::size_t d = data.dim();
  const double* p = data.points().row_ptr(i);
  double* sum = psums + cluster * d;
  for (std::size_t j = 0; j < d; ++j) sum[j] += w * p[j];
}

// Cost tile t's partial for one set: w·d² chained from +0 over the
// tile's points in ascending order, as assign_and_cost's tiles fold it.
double tile_cost(const Dataset& data, const double* sd, std::size_t t) {
  const std::size_t i1 = std::min(data.size(), (t + 1) * kPointTile);
  double local = 0.0;
  for (std::size_t i = t * kPointTile; i < i1; ++i) {
    local = chain_step(local, data.weight(i), sd[i]);
  }
  return local;
}

// Points per sub-block of a bounded chunk: their rows, about 512 KB,
// stay in L2 from the own cells through the scans to the update sums.
std::size_t sub_block(std::size_t d) {
  constexpr std::size_t kSubBlockDoubles = std::size_t(1) << 16;
  return std::max<std::size_t>(kPointBlock,
                               kSubBlockDoubles / std::max<std::size_t>(d, 1));
}

// Lloyd's pass over points [begin, end) with Hamerly's lower bounds
// (Hamerly, SDM 2010); docs/performance.md derives the margin. The chunk
// runs in sub-blocks, ascending. For each set a point's bound first
// falls by the largest drift among the centers other than its own. Then
// the point gets its own-center d² from own_sq_dists. A point whose own
// d² lies below L² − E, with E the largest rounding of any computed cell,
// keeps its center, and that d² is the one a full scan would return. The
// others are gathered per set and scanned in blocks against only that
// set's tiles, or, when a point fails every set, against all the tiles
// at once; their bound restarts from the runner-up.
//
// The update sums follow the carry rule (assign.hpp). A set with a zero
// bound in the chunk (a first pass) has its partials zeroed and written
// per sub-block, through add_point as in the unbounded pass. The other
// sets carry theirs: a point of nonzero weight that a scan moves marks
// the cluster it left and the one it joined, and after the last
// sub-block each marked partial is rewritten from +0 over the chunk's
// members in ascending order, the chain a full write computes. An
// unmarked partial has the same members as in the previous pass, so it
// already holds that chain.
void bounded_chunk(const Dataset& data, const Matrix& centers,
                   const PackedCenters& pc, std::span<const SetBounds> sb,
                   const double* pnorm, std::size_t begin, std::size_t end,
                   std::size_t* index, double* sq_dist, double* lower,
                   double* psums, double* pweight) {
  const Matrix& points = data.points();
  const std::size_t n = points.rows();
  const std::size_t d = pc.d;
  const std::size_t k = pc.per_set;
  const std::size_t sets = pc.sets;
  const std::size_t width = std::min(sub_block(d), end - begin);
  const double margin =
      2.0 * static_cast<double>(d + 8) * std::numeric_limits<double>::epsilon();
  auto slack = [&](std::size_t i, std::size_t s) {
    const double r = std::sqrt(pnorm[i]) + sb[s].radius;
    return margin * r * r;
  };

  // fresh[s]: set s writes all its partials, since a zero bound leaves
  // some point's previous cluster unknown. moved[s·k + c]: a carried
  // partial that a point joined or left.
  std::vector<char> fresh(sets);
  std::vector<char> moved(sets * k);
  for (std::size_t s = 0; s < sets; ++s) {
    const double* l = lower + s * n;
    fresh[s] = std::any_of(l + begin, l + end,
                           [](double b) { return !(b > 0.0); });
    if (fresh[s] != 0) {
      std::fill_n(psums + s * k * d, k * d, 0.0);
      std::fill_n(pweight + s * k, k, 0.0);
    }
  }

  // The sub-block's points to scan against every set (a first pass, or
  // large drifts), scanned once over all the tiles, at every_set[0,
  // count_all); set s's others at todo[s·width, s·width + count[s]).
  std::vector<std::size_t> every_set(width);
  std::vector<std::size_t> todo(sets * width);
  std::vector<std::size_t> count(sets);
  std::vector<char> fails(sets);
  ScanBuffer buf(pc);
  auto rescan = [&](std::size_t i, std::size_t s, std::size_t c, double d2,
                    const double* cells) {
    const std::size_t x = s * n + i;
    if (fresh[s] == 0 && index[x] != c && data.weight(i) != 0.0) {
      moved[s * k + index[x]] = 1;
      moved[s * k + c] = 1;
    }
    index[x] = c;
    sq_dist[x] = d2;
    double second = std::numeric_limits<double>::infinity();
    for (std::size_t o = 0; o < k; ++o) {
      if (o != c) second = std::min(second, cells[o]);
    }
    lower[x] = std::sqrt(std::max(0.0, second - slack(i, s)));
  };
  for (std::size_t b0 = begin; b0 < end; b0 += width) {
    const std::size_t b1 = std::min(end, b0 + width);
    std::fill(count.begin(), count.end(), 0);
    std::size_t count_all = 0;
    for (std::size_t i = b0; i < b1; ++i) {
      std::size_t failed = 0;
      for (std::size_t s0 = 0; s0 < sets; s0 += kOwnGroup) {
        std::size_t own_set[kOwnGroup];
        const double* own_c[kOwnGroup];
        double own_cn[kOwnGroup];
        double bar[kOwnGroup];
        std::size_t g = 0;
        for (std::size_t s = s0; s < std::min(sets, s0 + kOwnGroup); ++s) {
          const std::size_t x = s * n + i;
          double l = lower[x];
          if (l > 0.0) {
            const SetBounds& b = sb[s];
            l = std::max(0.0, (l - (index[x] == b.far_c ? b.far2 : b.far)) *
                                  kShrink);
            lower[x] = l;
          }
          const double b = l * l - slack(i, s);
          if (b > 0.0) {
            const std::size_t c = s * k + index[x];
            own_set[g] = s;
            own_c[g] = centers.row_ptr(c);
            own_cn[g] = pc.norms[c];
            bar[g] = b;
            ++g;
            fails[s] = 0;
          } else {
            fails[s] = 1;
            ++failed;
          }
        }
        double own[kOwnGroup];
        own_sq_dists(points.row_ptr(i), pnorm[i], own_c, own_cn, g, d, own);
        for (std::size_t q = 0; q < g; ++q) {
          const std::size_t s = own_set[q];
          if (own[q] < bar[q]) {
            sq_dist[s * n + i] = own[q];
          } else {
            fails[s] = 1;
            ++failed;
          }
        }
      }
      if (failed == sets) {
        every_set[count_all++] = i;
      } else if (failed > 0) {
        for (std::size_t s = 0; s < sets; ++s) {
          if (fails[s] != 0) todo[s * width + count[s]++] = i;
        }
      }
    }
    scan_ids(points, pc, pnorm, every_set.data(), count_all, 0, sets, nullptr,
             buf, rescan);
    for (std::size_t s = 0; s < sets; ++s) {
      scan_ids(points, pc, pnorm, todo.data() + s * width, count[s], s, s + 1,
               nullptr, buf, rescan);
    }
    // The fresh sets' sums, now that every point's assignment is final.
    for (std::size_t i = b0; i < b1; ++i) {
      for (std::size_t s = 0; s < sets; ++s) {
        if (fresh[s] != 0) {
          add_point(data, i, s * k + index[s * n + i], psums, pweight);
        }
      }
    }
  }
  if (std::find(moved.begin(), moved.end(), 1) == moved.end()) return;
  for (std::size_t x = 0; x < sets * k; ++x) {
    if (moved[x] != 0) {
      std::fill_n(psums + x * d, d, 0.0);
      pweight[x] = 0.0;
    }
  }
  for (std::size_t i = begin; i < end; ++i) {
    for (std::size_t s = 0; s < sets; ++s) {
      const std::size_t x = s * k + index[s * n + i];
      if (moved[x] != 0) add_point(data, i, x, psums, pweight);
    }
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
  // Host span on the installed recorder (obs/span.hpp), opened on the
  // calling thread around the whole pool job.
  const WallSpan span("assign_batch");
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
                [&](std::size_t i, std::size_t, std::size_t c, double d2,
                    const double*) {
                  if (idx != nullptr) idx[i] = c;
                  if (sd != nullptr) sd[i] = d2;
                });
  });
}

double assign_and_cost(const Dataset& data, const Matrix& centers,
                       std::span<std::size_t> index,
                       std::span<double> sq_dist,
                       std::span<const double> point_sq_norms) {
  const WallSpan span("assign_and_cost");
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
                        double d2, const double*) {
                      if (idx != nullptr) idx[i] = c;
                      if (sd != nullptr) sd[i] = d2;
                      local = chain_step(local, data.weight(i), d2);
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
    std::span<double> chunk_sums, std::span<double> chunk_weights,
    std::span<double> lower, std::span<const double> drift) {
  const WallSpan span("assign_and_accumulate");
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
  const bool bounded = !lower.empty();
  EKM_EXPECTS(!bounded ||
              (lower.size() == sets * n && drift.size() == sets * k));
  const PackedCenters pc(centers, sets);
  const std::vector<SetBounds> sb =
      bounded ? set_bounds(pc, drift) : std::vector<SetBounds>{};
  // The cost takes assign_and_cost's association per set: one partial
  // per 256-point tile, tile_costs[s·tiles + t], folded in tile order. A
  // chunk folds the tiles that lie wholly inside it. A tile whose points
  // span two chunks (only when the grain is not a multiple of the tile)
  // is folded on the calling thread once the job is done, in the same
  // chain.
  const std::size_t tiles = parallel_chunk_count(n, kPointTile);
  std::vector<double> tile_costs(sets * tiles);
  auto tile_last = [&](std::size_t t) {
    return std::min(n, (t + 1) * kPointTile) - 1;
  };
  parallel_for_chunks(
      n, grain, [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        double* psums = chunk_sums.data() + chunk * sets * k * d;
        double* pweight = chunk_weights.data() + chunk * sets * k;
        if (bounded) {
          bounded_chunk(data, centers, pc, sb, point_sq_norms.data(), begin,
                        end, index.data(), sq_dist.data(), lower.data(),
                        psums, pweight);
        } else {
          // Chunk-private sums, copied to the chunk's slot once at the
          // end: neighbouring slots share cache lines (at k = 4 one set's
          // weights fill half of one), and adding into them point by
          // point made two cores write the same line for every point.
          // Each partial is still one chain from +0 over the chunk's
          // members in ascending order.
          std::vector<double> local(sets * k * (d + 1), 0.0);
          double* lsums = local.data();
          double* lweight = lsums + sets * k * d;
          // Each point's sums are added right after its block is
          // scanned, while its row is still in L1.
          scan_points(points, pc, point_sq_norms.data(), begin, end, nullptr,
                      [&](std::size_t i, std::size_t s, std::size_t c,
                          double d2, const double*) {
                        index[s * n + i] = c;
                        sq_dist[s * n + i] = d2;
                        add_point(data, i, s * k + c, lsums, lweight);
                      });
          std::copy_n(lsums, sets * k * d, psums);
          std::copy_n(lweight, sets * k, pweight);
        }
        for (std::size_t s = 0; s < sets; ++s) {
          const double* sd = sq_dist.data() + s * n;
          for (std::size_t t = (begin + kPointTile - 1) / kPointTile;
               t < tiles && tile_last(t) < end; ++t) {
            tile_costs[s * tiles + t] = tile_cost(data, sd, t);
          }
        }
      });
  // The tiles whose first and last points lie in different chunks, then
  // every set's partials in tile order.
  const std::size_t g = std::max<std::size_t>(grain, 1);  // as the grid
  std::vector<double> costs(sets, 0.0);
  for (std::size_t s = 0; s < sets; ++s) {
    const double* sd = sq_dist.data() + s * n;
    for (std::size_t t = 0; t < tiles; ++t) {
      if (t * kPointTile / g != tile_last(t) / g) {
        tile_costs[s * tiles + t] = tile_cost(data, sd, t);
      }
      costs[s] += tile_costs[s * tiles + t];
    }
  }
  return costs;
}

double center_drift(std::span<const double> from,
                    std::span<const double> to) {
  EKM_EXPECTS(from.size() == to.size());
  const std::size_t d = from.size();
  double s = 0.0;
  for (std::size_t j = 0; j < d; ++j) {
    const double x = to[j] - from[j];
    s += x * x;
  }
  // Each difference, square and add rounds by at most half an ulp, and a
  // square may underflow by half a subnormal; the root rounds once more.
  // docs/performance.md shows that the underflow term and a (d+4)ε
  // inflation cover them all.
  const double dd = static_cast<double>(d);
  return std::sqrt(s + dd * std::numeric_limits<double>::denorm_min()) *
         (1.0 + (dd + 4.0) * std::numeric_limits<double>::epsilon());
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
                [&](std::size_t i, std::size_t s, std::size_t, double best,
                    const double*) { out[s * n + i] = best; });
  });
}

}  // namespace ekm
