#include "linalg/matrix.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <random>
#include <vector>

#include "common/parallel.hpp"

namespace ekm {
namespace {

// ---- Matrix products ------------------------------------------------------
//
// All three products are C = Ã·B̃ with C[i][j] = Σ_p Ã(i, p)·B̃(p, j),
// formed one kMr × (Nv·kLanes) tile at a time by one register-blocked
// microkernel (Goto & van de Geijn, "Anatomy of High-Performance Matrix
// Multiplication", 2008; the BLIS microkernel). Per step p the kernel
// loads Nv vectors of B̃'s row p, broadcasts kMr values of Ã's column p
// and issues one FMA per tile cell. The summation index is cut into
// slabs of kKc steps, and between slabs the tile is stored to C and
// reloaded, so every cell is still one FMA chain over p in ascending
// order that starts from C's +0 — the arithmetic of the plain p-ascending
// loop, whatever the tiling, slab or thread count.
//
// Tiles fit the register file: 24 accumulators, 3 loads and 1 broadcast
// in 32 zmm on AVX-512, and 12 + 3 + 1 in 16 ymm otherwise.
#if defined(__AVX512F__)
constexpr std::size_t kLanes = 8;  // doubles per vector
constexpr std::size_t kMr = 8;     // broadcast rows per tile
#else
constexpr std::size_t kLanes = 4;
constexpr std::size_t kMr = 4;
#endif
constexpr std::size_t kNv = 3;             // vectors per tile row
constexpr std::size_t kNr = kNv * kLanes;  // columns per tile
constexpr std::size_t kKc = 256;           // steps per slab
// Columns per block: one slab of a kNc-column block of B̃ is 1 MiB, so
// it stays in L2 while the rows of Ã stream past it.
constexpr std::size_t kNc = (1u << 20) / (kKc * sizeof(double)) / kNr * kNr;
// Rows of C per pool chunk. A chunk runs every slab of its rows, so a
// product costs one pool job however deep its summation is.
constexpr std::size_t kMc = 64;
// Products below this many flops run inline, as one chunk that reads B̃
// in place.
constexpr std::size_t kInlineFlops = 4u << 20;

using Vec = double __attribute__((vector_size(kLanes * sizeof(double))));

// Unaligned loads and stores. Vectors pass by reference: a by-value
// 32-byte vector would change the ABI of builds without AVX.
inline void load(Vec& v, const double* p) { std::memcpy(&v, p, sizeof v); }
inline void store(double* p, const Vec& v) { std::memcpy(p, &v, sizeof v); }

// A packed or in-place run of kc steps of one tile side: element (x, p)
// is ptr[p·stride + x].
struct Panel {
  const double* ptr;
  std::size_t stride;
};

// The microkernel: tile[r][x] += Σ_{p<kc} a(r, p) · b(x, p) for r < kMr,
// x < Nv·kLanes, where the tile is c with row stride ldc.
template <std::size_t Nv>
void tile_kernel(std::size_t kc, Panel a, Panel b, double* c,
                 std::size_t ldc) {
  Vec acc[kMr][Nv] = {};
#pragma GCC unroll 8
  for (std::size_t r = 0; r < kMr; ++r) {
#pragma GCC unroll 3
    for (std::size_t v = 0; v < Nv; ++v) {
      load(acc[r][v], c + r * ldc + v * kLanes);
    }
  }
  const double* ap = a.ptr;
  const double* bp = b.ptr;
  for (std::size_t p = 0; p < kc; ++p, ap += a.stride, bp += b.stride) {
    Vec bv[Nv] = {};
#pragma GCC unroll 3
    for (std::size_t v = 0; v < Nv; ++v) load(bv[v], bp + v * kLanes);
#pragma GCC unroll 8
    for (std::size_t r = 0; r < kMr; ++r) {
      const double ar = ap[r];
#pragma GCC unroll 3
      for (std::size_t v = 0; v < Nv; ++v) acc[r][v] += ar * bv[v];
    }
  }
#pragma GCC unroll 8
  for (std::size_t r = 0; r < kMr; ++r) {
#pragma GCC unroll 3
    for (std::size_t v = 0; v < Nv; ++v) {
      store(c + r * ldc + v * kLanes, acc[r][v]);
    }
  }
}

// Lanes the kernel reads for a tile w columns wide.
std::size_t lanes_for(std::size_t w) {
  return (w + kLanes - 1) / kLanes * kLanes;
}

// Runs the kernel with nv vectors per tile row.
void kernel(std::size_t nv, std::size_t kc, Panel a, Panel b, double* c,
            std::size_t ldc) {
  switch (nv) {
    case 1: tile_kernel<1>(kc, a, b, c, ldc); break;
    case 2: tile_kernel<2>(kc, a, b, c, ldc); break;
    default: tile_kernel<3>(kc, a, b, c, ldc); break;
  }
}

// One tile: rows [0, mr) and columns [0, w) of c (row stride ldc) gain
// the kc steps of panels a (kMr wide) and b (w rounded up to whole
// vectors). A ragged tile runs the kernel on a copy of its cells, so it
// never stores outside [0, mr) × [0, w).
void run_tile(std::size_t kc, Panel a, Panel b, double* c, std::size_t ldc,
              std::size_t mr, std::size_t w) {
  const std::size_t width = lanes_for(w);
  const std::size_t nv = width / kLanes;
  if (mr == kMr && w == width) {
    kernel(nv, kc, a, b, c, ldc);
    return;
  }
  double edge[kMr * kNr] = {};
  for (std::size_t r = 0; r < mr; ++r) {
    std::copy_n(c + r * ldc, w, edge + r * kNr);
  }
  kernel(nv, kc, a, b, edge, kNr);
  for (std::size_t r = 0; r < mr; ++r) {
    std::copy_n(edge + r * kNr, w, c + r * ldc);
  }
}

// One side of a product, indexed (x, p) with x the row (column) of C and
// p the summation index. In place, (x, p) is data[p·ld + x]: each step's
// x run is contiguous and the kernel reads it where it lies. By rows,
// (x, p) is data[x·ld + p], strided in x, so it is gathered into a
// packed panel one slab at a time.
struct Operand {
  const double* data;
  std::size_t ld;
  bool by_rows;

  // Panel of x in [x0, x0 + w) over steps [k0, k0 + kc), `width` wide.
  // Full-width in-place panels are read where they lie unless `pack`;
  // the rest are packed into dst, zero-padded to `width` (padded cells
  // never reach C).
  Panel panel(std::size_t x0, std::size_t w, std::size_t width,
              std::size_t k0, std::size_t kc, double* dst,
              bool pack = false) const {
    if (!by_rows && !pack && w == width) return {data + k0 * ld + x0, ld};
    for (std::size_t p = 0; p < kc; ++p) {
      std::fill(dst + p * width + w, dst + (p + 1) * width, 0.0);
    }
    if (by_rows) {
      for (std::size_t x = 0; x < w; ++x) {
        const double* src = data + (x0 + x) * ld + k0;
        for (std::size_t p = 0; p < kc; ++p) dst[p * width + x] = src[p];
      }
    } else {
      for (std::size_t p = 0; p < kc; ++p) {
        std::copy_n(data + (k0 + p) * ld + x0, w, dst + p * width);
      }
    }
    return {dst, width};
  }
};

// C += Ã·B̃, n columns and k steps, with Ã = a (rows of C) and B̃ = b
// (columns of C); C has row stride ldc. With `upper` chunks form only
// the tiles that reach the upper triangle.
struct Product {
  std::size_t n, k;
  Operand a, b;
  bool upper;
  double* c;
  std::size_t ldc;

  // Adds to rows [i0, i1) of C: every slab of each column block. With
  // `pack_b` an in-place B̃ is packed like a by-rows one.
  void form_rows(std::size_t i0, std::size_t i1, bool pack_b) const {
    // Packed panels: a packed B̃ packs every panel of a block's slab, an
    // in-place one at most its ragged last panel; Ã packs one panel.
    thread_local std::vector<double> b_pack;
    thread_local std::array<double, kKc * kMr> a_pack{};
    std::array<Panel, kNc / kNr> b_panels{};
    const bool packs = b.by_rows || pack_b;
    const std::size_t j0 = upper ? i0 : 0;
    for (std::size_t jc = j0; jc < n; jc += kNc) {
      const std::size_t jc_end = std::min(n, jc + kNc);
      const std::size_t panels = (jc_end - jc + kNr - 1) / kNr;
      const std::size_t packed = packs ? panels : 1;
      b_pack.resize(std::max(b_pack.size(), packed * kKc * kNr));
      for (std::size_t k0 = 0; k0 < k; k0 += kKc) {
        const std::size_t kc = std::min(kKc, k - k0);
        for (std::size_t q = 0; q < panels; ++q) {
          const std::size_t j = jc + q * kNr;
          const std::size_t w = std::min(kNr, jc_end - j);
          double* dst = b_pack.data() + (packs ? q * kKc * kNr : 0);
          b_panels[q] = b.panel(j, w, lanes_for(w), k0, kc, dst, pack_b);
        }
        for (std::size_t i = i0; i < i1; i += kMr) {
          const std::size_t mr = std::min(kMr, i1 - i);
          const Panel ap = a.panel(i, mr, kMr, k0, kc, a_pack.data());
          for (std::size_t q = 0; q < panels; ++q) {
            const std::size_t j = jc + q * kNr;
            const std::size_t w = std::min(kNr, jc_end - j);
            if (upper && j + w <= i) continue;  // below the diagonal
            run_tile(kc, ap, b_panels[q], c + i * ldc + j, ldc, mr, w);
          }
        }
      }
    }
  }

  // C[j][i] = C[i][j] for i in [i0, i1) and j > i, a few destination
  // rows at a time so reads and writes both stay within a few lines.
  void mirror(std::size_t i0, std::size_t i1) const {
    constexpr std::size_t kBlock = 16;
    for (std::size_t jb = i0; jb < n; jb += kBlock) {
      const std::size_t jb_end = std::min(n, jb + kBlock);
      for (std::size_t i = i0; i < i1; ++i) {
        for (std::size_t j = std::max(jb, i + 1); j < jb_end; ++j) {
          c[j * ldc + i] = c[i * ldc + j];
        }
      }
    }
  }
};

// Runs `product` over its m rows on the pool; `mirror` then copies each
// chunk's upper triangle into its columns. Where its chunks would run
// inline anyway (on a pool thread inside a job, or on a one-thread
// pool), a product of several chunks runs as one instead, which packs
// each slab of B̃ once and runs every row of C over it rather than
// re-reading B̃ in place for each chunk. No product folds across
// chunks, so the grain does not move a bit.
void run(const Product& product, std::size_t m, bool mirror) {
  const bool small = 2 * m * product.n * product.k < kInlineFlops;
  const bool pack_b = !small && m > kMc && parallel_runs_inline();
  parallel_for(m, small || pack_b ? m : kMc,
               [&](std::size_t i0, std::size_t i1) {
                 product.form_rows(i0, i1, pack_b);
                 if (mirror) product.mirror(i0, i1);
               });
}

// C = Ã·B̃ (m x n). When Ã = B̃ᵀ (`symmetric`, the Gram products) C is
// symmetric: only the tiles that reach the upper triangle are formed,
// then mirrored.
Matrix multiply(std::size_t m, std::size_t n, std::size_t k, Operand a,
                Operand b, bool symmetric) {
  Matrix c(m, n);
  run({n, k, a, b, symmetric, c.flat().data(), n}, m, symmetric);
  return c;
}

}  // namespace

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows.size() > 0 ? rows.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    EKM_EXPECTS_MSG(r.size() == cols_, "ragged initializer");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::gaussian(std::size_t rows, std::size_t cols, Rng& rng,
                        double stddev) {
  Matrix m(rows, cols);
  std::normal_distribution<double> dist(0.0, stddev);
  for (double& v : m.data_) v = dist(rng);
  return m;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) {
      t(j, i) = (*this)(i, j);
    }
  }
  return t;
}

Matrix Matrix::row_range(std::size_t r0, std::size_t r1) const {
  EKM_EXPECTS(r0 <= r1 && r1 <= rows_);
  Matrix m(r1 - r0, cols_);
  std::copy(data_.begin() + static_cast<std::ptrdiff_t>(r0 * cols_),
            data_.begin() + static_cast<std::ptrdiff_t>(r1 * cols_),
            m.data_.begin());
  return m;
}

void Matrix::append_rows(const Matrix& other) {
  if (empty() && rows_ == 0) {
    *this = other;
    return;
  }
  EKM_EXPECTS_MSG(other.cols_ == cols_, "column mismatch in append_rows");
  data_.insert(data_.end(), other.data_.begin(), other.data_.end());
  rows_ += other.rows_;
}

void Matrix::scale(double s) {
  for (double& v : data_) v *= s;
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  EKM_EXPECTS_MSG(a.cols() == b.rows(), "matmul shape mismatch");
  return multiply(a.rows(), b.cols(), a.cols(),
                  {a.flat().data(), a.cols(), true},
                  {b.flat().data(), b.cols(), false}, false);
}

Matrix matmul_at_b(const Matrix& a, const Matrix& b) {
  EKM_EXPECTS_MSG(a.rows() == b.rows(), "matmul_at_b shape mismatch");
  return multiply(a.cols(), b.cols(), a.rows(),
                  {a.flat().data(), a.cols(), false},
                  {b.flat().data(), b.cols(), false}, &a == &b);
}

Matrix matmul_a_bt(const Matrix& a, const Matrix& b) {
  EKM_EXPECTS_MSG(a.cols() == b.cols(), "matmul_a_bt shape mismatch");
  return multiply(a.rows(), b.rows(), a.cols(),
                  {a.flat().data(), a.cols(), true},
                  {b.flat().data(), b.cols(), true}, &a == &b);
}

void add_at_b_upper(std::size_t m, std::size_t k, const double* a,
                    const double* b, std::size_t ld, double* c,
                    std::size_t ldc) {
  run({m, k, {a, ld, false}, {b, ld, false}, true, c, ldc}, m, false);
}

double squared_distance(std::span<const double> a, std::span<const double> b) {
  EKM_EXPECTS(a.size() == b.size());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

double norm2(std::span<const double> a) {
  double s = 0.0;
  for (double v : a) s += v * v;
  return std::sqrt(s);
}

}  // namespace ekm
