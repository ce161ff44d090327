#include "linalg/eigen_sym.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <span>

#include "common/parallel.hpp"
#include "common/rng.hpp"

namespace ekm {
namespace {

// hypot without overflow, as used in the EISPACK routines.
double pythag(double a, double b) {
  const double absa = std::fabs(a);
  const double absb = std::fabs(b);
  if (absa > absb) {
    const double r = absb / absa;
    return absa * std::sqrt(1.0 + r * r);
  }
  if (absb == 0.0) return 0.0;
  const double r = absa / absb;
  return absb * std::sqrt(1.0 + r * r);
}

// True when the off-diagonal e coupling diagonal entries d0 and d1 is
// negligible: QL deflates there, and the top-t solver splits there. The
// absolute term is LAPACK's safmin: a T that deflates by about ε per
// step (a Gram with exact zero columns) sinks into subnormals, where the
// relative test alone never splits it.
bool negligible(double e, double d0, double d1) {
  return e * e <= std::numeric_limits<double>::min() ||
         std::fabs(e) <= 2.3e-16 * (std::fabs(d0) + std::fabs(d1));
}

// Implicit-shift QL for the eigenvalues only (EISPACK tql2 without its
// eigenvector rotations). `d` in/out: diagonal -> eigenvalues
// (unsorted); `e`: subdiagonal with e[i] coupling rows i-1 and i, e[0]
// unused (destroyed). Returns false on non-convergence.
bool tql2(std::span<double> d, std::span<double> e) {
  const std::size_t n = d.size();
  if (n <= 1) return true;

  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  for (std::size_t l = 0; l < n; ++l) {
    int iter = 0;
    std::size_t m;
    do {
      for (m = l; m + 1 < n; ++m) {
        if (negligible(e[m], d[m], d[m + 1])) break;
      }
      if (m != l) {
        if (++iter == 64) return false;
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = pythag(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + std::copysign(r, g));
        double s = 1.0;
        double c = 1.0;
        double p = 0.0;
        for (std::size_t i = m; i-- > l;) {
          const double f = s * e[i];
          const double b = c * e[i];
          r = pythag(f, g);
          e[i + 1] = r;
          if (r == 0.0) {
            d[i + 1] -= p;
            e[m] = 0.0;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2.0 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
        }
        if (r == 0.0 && m > l + 1) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }
  return true;
}

// Dot product with eight independent partial sums folded in a fixed
// order, so the compiler can vectorize it without reassociating.
double dot_lanes(const double* x, const double* y, std::size_t n) {
  double acc[8] = {};
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    for (std::size_t l = 0; l < 8; ++l) acc[l] += x[j + l] * y[j + l];
  }
  double tail = 0.0;
  for (; j < n; ++j) tail += x[j] * y[j];
  return ((acc[0] + acc[4]) + (acc[1] + acc[5])) +
         ((acc[2] + acc[6]) + (acc[3] + acc[7])) + tail;
}

// The reduction below is LAPACK's dsytrd: this file's row-major upper
// triangle is laid out in memory like LAPACK's column-major lower one,
// so row k here is column k there. Matrices of order n <= kNx, and the
// last kNx columns of larger ones, are reduced one column at a time
// (dsytd2); the columns before them go in panels of kNb (dlatrd), each
// followed by one symmetric rank-2k update of the trailing block on the
// product kernel. The same test sends n > kNx to bisection for the
// eigenvalues (see eigen_symmetric_top). Panel matvecs of order at
// least kPooledMatvec run on the pool as kMatvecChunks row chunks.
constexpr std::size_t kNb = 32;
constexpr std::size_t kNx = 128;
constexpr std::size_t kPooledMatvec = 256;
constexpr std::size_t kMatvecChunks = 4;

// Householder reflector H = I - tau u uᵀ with H x = beta e_1 for
// x = v[0..m) (dlarfg); the norm is taken scaled so it cannot overflow
// or underflow. Overwrites v with u (u[0] = 1), stores beta in `beta`
// and returns tau. When x is already a multiple of e_1, H = I: v is left
// as it is, beta = x[0] and tau = 0.
double reflector(double* v, std::size_t m, double& beta) {
  // Below this norm 1 / (alpha - beta) could overflow, so x is first
  // scaled up by this power of two, exactly, and beta scaled back. The
  // deflating tail of a rank-deficient Gram's T gets there.
  constexpr double kTiny = std::numeric_limits<double>::min() /
                           std::numeric_limits<double>::epsilon();
  double scale = 0.0;
  for (std::size_t j = 1; j < m; ++j) scale = std::max(scale, std::fabs(v[j]));
  if (scale == 0.0) {
    beta = v[0];
    return 0.0;
  }
  double ss = 0.0;
  for (std::size_t j = 1; j < m; ++j) ss += (v[j] / scale) * (v[j] / scale);
  const double alpha = v[0];
  beta = -std::copysign(std::hypot(alpha, scale * std::sqrt(ss)), alpha);
  if (std::fabs(beta) < kTiny) {
    for (std::size_t j = 0; j < m; ++j) v[j] /= kTiny;
    const double tau = reflector(v, m, beta);
    beta *= kTiny;
    return tau;
  }
  const double inv = 1.0 / (alpha - beta);
  for (std::size_t j = 1; j < m; ++j) v[j] *= inv;
  v[0] = 1.0;
  return (beta - alpha) / beta;
}

// Columns k_begin.. of the reduction, one at a time, finishing d and e.
void reduce_unblocked(Matrix& w, std::size_t k_begin, std::vector<double>& d,
                      std::vector<double>& e, std::vector<double>& tau) {
  const std::size_t n = w.rows();
  std::vector<double> p(n);
  std::vector<double> q(n);
  for (std::size_t k = k_begin; k + 2 < n; ++k) {
    const std::size_t m = n - k - 1;
    double* v = w.row_ptr(k) + k + 1;
    d[k] = w(k, k);
    tau[k] = reflector(v, m, e[k]);
    if (tau[k] == 0.0) continue;  // row k is already tridiagonal

    // Two-sided update of the trailing block A22 <- H A22 H:
    // p = tau A22 v, q = p - (tau/2)(pᵀv) v, A22 -= v qᵀ + q vᵀ.
    std::fill(p.begin(), p.begin() + static_cast<std::ptrdiff_t>(m), 0.0);
    for (std::size_t i = 0; i < m; ++i) {
      const double* row = w.row_ptr(k + 1 + i) + k + 1 + i;  // A22(i, i..)
      const std::size_t len = m - i - 1;
      const double vi = v[i];
      p[i] += row[0] * vi + dot_lanes(row + 1, v + i + 1, len);
      double* pt = p.data() + i + 1;
      for (std::size_t j = 0; j < len; ++j) pt[j] += row[1 + j] * vi;
    }
    for (std::size_t i = 0; i < m; ++i) p[i] *= tau[k];
    const double half = 0.5 * tau[k] * dot_lanes(p.data(), v, m);
    for (std::size_t i = 0; i < m; ++i) q[i] = p[i] - half * v[i];
    for (std::size_t i = 0; i < m; ++i) {
      double* row = w.row_ptr(k + 1 + i) + k + 1 + i;
      const double vi = v[i];
      const double qi = q[i];
      const double* vt = v + i;
      const double* qt = q.data() + i;
      for (std::size_t j = 0; j < m - i; ++j) row[j] -= vi * qt[j] + qi * vt[j];
    }
  }
  if (n >= 2) {
    d[n - 2] = w(n - 2, n - 2);
    e[n - 2] = w(n - 2, n - 1);
  }
  if (n >= 1) d[n - 1] = w(n - 1, n - 1);
}

constexpr std::size_t kVec = 8;  // doubles per vector in the panel matvec
using Vec = double __attribute__((vector_size(kVec * sizeof(double))));

// Unaligned loads and stores; vectors pass by reference (see matrix.cpp).
inline void load(Vec& x, const double* p) { std::memcpy(&x, p, sizeof x); }
inline void store(double* p, const Vec& x) { std::memcpy(p, &x, sizeof x); }
inline double lane_sum(const Vec& x) {
  return ((x[0] + x[4]) + (x[1] + x[5])) + ((x[2] + x[6]) + (x[3] + x[7]));
}

// Adds rows [r0, r1) of A v to y, for the symmetric m x m block A at `a`
// (row stride lda) read from its upper triangle: row r adds its dot with
// v over columns r.. to y[r] and a(r, s) v[r] to y[s] for s > r. Rows
// go four at a time, so each load of v and y serves four rows.
void symv_rows(const double* a, std::size_t lda, std::size_t m,
               const double* v, std::size_t r0, std::size_t r1, double* y) {
  std::size_t r = r0;
  for (; r + 4 <= r1; r += 4) {
    const double* a0 = a + r * lda;
    const double* a1 = a0 + lda;
    const double* a2 = a1 + lda;
    const double* a3 = a2 + lda;
    const double x0 = v[r];
    const double x1 = v[r + 1];
    const double x2 = v[r + 2];
    const double x3 = v[r + 3];
    // The 4 x 4 diagonal block, each row's part from its symmetric cells.
    double s0 = a0[r] * x0 + a0[r + 1] * x1 + a0[r + 2] * x2 + a0[r + 3] * x3;
    double s1 = a0[r + 1] * x0 + a1[r + 1] * x1 + a1[r + 2] * x2 +
                a1[r + 3] * x3;
    double s2 = a0[r + 2] * x0 + a1[r + 2] * x1 + a2[r + 2] * x2 +
                a2[r + 3] * x3;
    double s3 = a0[r + 3] * x0 + a1[r + 3] * x1 + a2[r + 3] * x2 +
                a3[r + 3] * x3;
    Vec acc0 = {};
    Vec acc1 = {};
    Vec acc2 = {};
    Vec acc3 = {};
    std::size_t s = r + 4;
    for (; s + kVec <= m; s += kVec) {
      Vec c0, c1, c2, c3, vs, ys;
      load(c0, a0 + s);
      load(c1, a1 + s);
      load(c2, a2 + s);
      load(c3, a3 + s);
      load(vs, v + s);
      load(ys, y + s);
      acc0 += c0 * vs;
      acc1 += c1 * vs;
      acc2 += c2 * vs;
      acc3 += c3 * vs;
      ys += c0 * x0 + c1 * x1 + c2 * x2 + c3 * x3;
      store(y + s, ys);
    }
    for (; s < m; ++s) {
      s0 += a0[s] * v[s];
      s1 += a1[s] * v[s];
      s2 += a2[s] * v[s];
      s3 += a3[s] * v[s];
      y[s] += a0[s] * x0 + a1[s] * x1 + a2[s] * x2 + a3[s] * x3;
    }
    y[r] += s0 + lane_sum(acc0);
    y[r + 1] += s1 + lane_sum(acc1);
    y[r + 2] += s2 + lane_sum(acc2);
    y[r + 3] += s3 + lane_sum(acc3);
  }
  for (; r < r1; ++r) {  // at most three rows, one at a time
    const double* ar = a + r * lda;
    y[r] += ar[r] * v[r] + dot_lanes(ar + r + 1, v + r + 1, m - r - 1);
    for (std::size_t s = r + 1; s < m; ++s) y[s] += ar[s] * v[r];
  }
}

// y = A v for the symmetric m x m block A at `a` (row stride lda), read
// from its upper triangle. From order kPooledMatvec on, the rows split
// into kMatvecChunks chunks of about equal triangle area, a grid that
// depends only on m; each chunk adds into its own partial vector and the
// partials fold in chunk order, so y does not depend on EKM_THREADS.
void symv(const double* a, std::size_t lda, std::size_t m, const double* v,
          double* y, std::vector<double>& partials) {
  if (m < kPooledMatvec) {
    std::fill_n(y, m, 0.0);
    symv_rows(a, lda, m, v, 0, m, y);
    return;
  }
  // Rows [0, r) hold the fraction 1 - (1 - r/m)² of the triangle.
  std::array<std::size_t, kMatvecChunks + 1> bound{};
  for (std::size_t c = 1; c < kMatvecChunks; ++c) {
    const double left = 1.0 - static_cast<double>(c) / kMatvecChunks;
    bound[c] = static_cast<std::size_t>((1.0 - std::sqrt(left)) *
                                        static_cast<double>(m)) / 4 * 4;
  }
  bound[kMatvecChunks] = m;
  partials.resize(kMatvecChunks * m);
  parallel_for_chunks(kMatvecChunks, 1,
                      [&](std::size_t c, std::size_t, std::size_t) {
                        double* part = partials.data() + c * m;
                        std::fill(part + bound[c], part + m, 0.0);
                        symv_rows(a, lda, m, v, bound[c], bound[c + 1], part);
                      });
  std::copy_n(partials.data(), m, y);
  for (std::size_t c = 1; c < kMatvecChunks; ++c) {
    const double* part = partials.data() + c * m;
    for (std::size_t s = bound[c]; s < m; ++s) y[s] += part[s];
  }
}

// Columns [k0, k0 + nb) of the reduction as one panel (dlatrd), then the
// trailing update A22 -= V Wᵀ + W Vᵀ of the block from row k0 + nb. The
// panel's V are its reflectors, left in rows k0.. of `w`. Row nb + c of
// `vw` holds W's column c (indexed by the column of `w`); rows c and
// 2nb + c get -V's column c before the update, so that Ãᵀ B̃ with
// Ã = [-V; W] and B̃ = [W; -V] is the whole update as one product.
void reduce_panel(Matrix& w, std::size_t k0, std::size_t nb,
                  std::vector<double>& d, std::vector<double>& e,
                  std::vector<double>& tau, Matrix& vw,
                  std::vector<double>& partials) {
  const std::size_t n = w.rows();
  for (std::size_t j = 0; j < nb; ++j) {
    const std::size_t k = k0 + j;
    const std::size_t m = n - k - 1;
    // Row k of A less the panel's earlier rank-2 updates.
    double* row = w.row_ptr(k);
    for (std::size_t c = 0; c < j; ++c) {
      const double* vc = w.row_ptr(k0 + c);
      const double* wc = vw.row_ptr(nb + c);
      const double vk = vc[k];
      const double wk = wc[k];
      for (std::size_t s = k; s < n; ++s) row[s] -= vc[s] * wk + wc[s] * vk;
    }
    d[k] = row[k];
    double* v = row + k + 1;
    tau[k] = reflector(v, m, e[k]);
    double* wj = vw.row_ptr(nb + j) + k + 1;
    if (tau[k] == 0.0) {
      std::fill_n(wj, m, 0.0);
      continue;
    }
    // W's column j: tau (A22 - V Wᵀ - W Vᵀ) v, reading A22 as it was at
    // the start of the panel, less (tau/2)(wᵀv) v as in reduce_unblocked.
    symv(w.row_ptr(k + 1) + k + 1, n, m, v, wj, partials);
    for (std::size_t c = 0; c < j; ++c) {
      const double* vc = w.row_ptr(k0 + c) + k + 1;
      const double* wc = vw.row_ptr(nb + c) + k + 1;
      const double wv = dot_lanes(wc, v, m);
      const double vv = dot_lanes(vc, v, m);
      for (std::size_t i = 0; i < m; ++i) wj[i] -= vc[i] * wv + wc[i] * vv;
    }
    for (std::size_t i = 0; i < m; ++i) wj[i] *= tau[k];
    const double half = 0.5 * tau[k] * dot_lanes(wj, v, m);
    for (std::size_t i = 0; i < m; ++i) wj[i] -= half * v[i];
  }
  const std::size_t r0 = k0 + nb;
  for (std::size_t c = 0; c < nb; ++c) {
    const double* vc = w.row_ptr(k0 + c);
    double* lead = vw.row_ptr(c);
    double* trail = vw.row_ptr(2 * nb + c);
    for (std::size_t s = r0; s < n; ++s) lead[s] = trail[s] = -vc[s];
  }
  add_at_b_upper(n - r0, 2 * nb, vw.row_ptr(0) + r0, vw.row_ptr(nb) + r0, n,
                 w.row_ptr(r0) + r0, n);
}

// dsyevx's range for the largest |w_ij|, [√(safmin/ε), min(√(ε/safmin),
// safmin^(-1/4))]: inside it the reduction, bisection and inverse
// iteration neither overflow nor lose the small values to underflow.
const double kSafeMin = std::numeric_limits<double>::min();
const double kEps = std::numeric_limits<double>::epsilon();
const double kScaleMin = std::sqrt(kSafeMin / kEps);
const double kScaleMax = std::min(std::sqrt(kEps / kSafeMin),
                                  1.0 / std::sqrt(std::sqrt(kSafeMin)));

// The power of two 2^p that brings `amax` = max|w_ij| into
// [kScaleMin, kScaleMax]: p = 0 when it already lies there (or is 0, or
// not finite, where scaling cannot help). Scaling by 2^p is exact.
int scale_exponent(double amax) {
  if (amax == 0.0 || !std::isfinite(amax)) return 0;
  if (amax < kScaleMin) return std::ilogb(kScaleMin) + 1 - std::ilogb(amax);
  if (amax > kScaleMax) return std::ilogb(kScaleMax) - 1 - std::ilogb(amax);
  return 0;
}

// Householder reduction to tridiagonal form that keeps the reflectors
// instead of accumulating Q (LAPACK's dsytrd). Only the upper triangle
// of `w` is read and updated. On exit d is the diagonal, e[i] couples
// rows i and i+1 (e[n-1] = 0), and for k < n-2 row k of `w` holds v_k
// in columns k+1..n-1 with v_k(k+1) = 1, where H_k = I - tau[k] v_k v_kᵀ
// and Qᵀ A Q = T for Q = H_0 H_1 ... H_{n-3}.
void tridiagonalize(Matrix& w, std::vector<double>& d, std::vector<double>& e,
                    std::vector<double>& tau) {
  const std::size_t n = w.rows();
  d.assign(n, 0.0);
  e.assign(n, 0.0);
  tau.assign(n, 0.0);
  std::size_t k0 = 0;
  if (n > kNx) {
    Matrix vw(3 * kNb, n);
    std::vector<double> partials;
    for (; k0 + kNx < n; k0 += kNb) {
      const std::size_t nb = std::min(kNb, n - kNx - k0);
      reduce_panel(w, k0, nb, d, e, tau, vw, partials);
    }
    k0 = n - kNx;
  }
  reduce_unblocked(w, k0, d, e, tau);
}

// The `count` largest eigenvalues, descending, of the unreduced
// tridiagonal block with diagonal d and off-diagonal e (e[i] couples
// rows i and i+1), by bisection on Sturm counts (LAPACK dstebz). The
// targets start from the Gershgorin interval and advance together, one
// sweep of the block per step, so their divisions pipeline. A target
// stops at dstebz's default tolerance: ε‖T‖ absolute or 2ε relative.
void bisect_top(std::span<const double> d, std::span<const double> e,
                std::size_t count, std::vector<double>& values) {
  constexpr double kEps = std::numeric_limits<double>::epsilon();
  const std::size_t n = d.size();
  if (n == 1) {
    values.assign(count, d[0]);
    return;
  }
  std::vector<double> e2(n - 1);
  double pivmin = 1.0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    e2[i] = e[i] * e[i];
    pivmin = std::max(pivmin, e2[i]);
  }
  pivmin *= std::numeric_limits<double>::min();
  double lo = d[0];
  double hi = d[0];
  for (std::size_t i = 0; i < n; ++i) {
    double radius = 0.0;
    if (i >= 1) radius += std::fabs(e[i - 1]);
    if (i + 1 < n) radius += std::fabs(e[i]);
    lo = std::min(lo, d[i] - radius);
    hi = std::max(hi, d[i] + radius);
  }
  const double norm = std::max(std::fabs(lo), std::fabs(hi));
  const double pad = 2.1 * kEps * norm * static_cast<double>(n) + 4.2 * pivmin;
  const double atol = std::max(kEps * norm, pivmin);

  // Target j is the (n - j)-th smallest eigenvalue: a probe x is above
  // it when at least n - j eigenvalues lie at or below x.
  std::vector<double> low(count, lo - pad);
  std::vector<double> high(count, hi + pad);
  std::vector<std::size_t> live(count);
  std::iota(live.begin(), live.end(), 0);
  std::vector<double> x(count);
  std::vector<double> q(count);
  std::vector<std::size_t> below(count);
  while (!live.empty()) {
    const std::size_t a = live.size();
    for (std::size_t i = 0; i < a; ++i) {
      x[i] = 0.5 * (low[live[i]] + high[live[i]]);
      q[i] = d[0] - x[i];
      if (std::fabs(q[i]) < pivmin) q[i] = -pivmin;
      below[i] = q[i] <= 0.0;
    }
    for (std::size_t r = 1; r < n; ++r) {
      for (std::size_t i = 0; i < a; ++i) {
        double qi = d[r] - e2[r - 1] / q[i] - x[i];
        if (std::fabs(qi) < pivmin) qi = -pivmin;
        q[i] = qi;
        below[i] += qi <= 0.0;
      }
    }
    std::size_t kept = 0;
    for (std::size_t i = 0; i < a; ++i) {
      const std::size_t j = live[i];
      (below[i] >= n - j ? high[j] : low[j]) = x[i];
      const double tol = std::max(
          atol, 2.0 * kEps * std::max(std::fabs(low[j]), std::fabs(high[j])));
      if (high[j] - low[j] > tol) live[kept++] = j;
    }
    live.resize(kept);
  }
  values.resize(count);
  for (std::size_t j = 0; j < count; ++j) values[j] = 0.5 * (low[j] + high[j]);
}

// LU factorization with partial pivoting of T - lambda I for one block of
// a symmetric tridiagonal matrix (LAPACK dlagtf): U has diagonal `a` and
// superdiagonals `b` and `b2`, L has multipliers `l`, and swap[k] marks a
// row interchange at step k. Blocks have at least two rows.
struct TridiagonalLu {
  std::vector<double> a, b, b2, l;
  std::vector<char> swap;

  void factor(std::span<const double> d, std::span<const double> e,
              double lambda) {
    const std::size_t n = d.size();
    a.resize(n);
    for (std::size_t k = 0; k < n; ++k) a[k] = d[k] - lambda;
    b.assign(e.begin(), e.begin() + static_cast<std::ptrdiff_t>(n - 1));
    l.assign(e.begin(), e.begin() + static_cast<std::ptrdiff_t>(n - 1));
    b2.assign(n, 0.0);
    swap.assign(n, 0);
    double scale1 = std::fabs(a[0]) + std::fabs(b[0]);
    for (std::size_t k = 0; k + 1 < n; ++k) {
      double scale2 = std::fabs(l[k]) + std::fabs(a[k + 1]);
      if (k + 2 < n) scale2 += std::fabs(b[k + 1]);
      const double piv1 = a[k] == 0.0 ? 0.0 : std::fabs(a[k]) / scale1;
      if (l[k] == 0.0 || std::fabs(l[k]) / scale2 <= piv1) {
        scale1 = scale2;
        if (l[k] == 0.0) continue;
        l[k] /= a[k];
        a[k + 1] -= l[k] * b[k];
      } else {
        swap[k] = 1;
        const double mult = a[k] / l[k];
        a[k] = l[k];
        const double next = a[k + 1];
        a[k + 1] = b[k] - mult * next;
        if (k + 2 < n) {
          b2[k] = b[k + 1];
          b[k + 1] = -mult * b2[k];
        }
        b[k] = next;
        l[k] = mult;
      }
    }
  }

  // Solves (T - lambda I) x = y in place (dlagts, job -1): a pivot too
  // small to divide by without overflow is perturbed away from zero.
  void solve(std::span<double> y) const {
    constexpr double kEps = std::numeric_limits<double>::epsilon();
    constexpr double kSafeMin = std::numeric_limits<double>::min();
    constexpr double kBig = 1.0 / kSafeMin;
    const std::size_t n = y.size();
    double tol = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      tol = std::max(tol, std::fabs(a[k]));
      if (k >= 1) tol = std::max(tol, std::fabs(b[k - 1]));
      if (k >= 2) tol = std::max(tol, std::fabs(b2[k - 2]));
    }
    tol = tol > 0.0 ? tol * kEps : kEps;
    for (std::size_t k = 1; k < n; ++k) {
      if (swap[k - 1] == 0) {
        y[k] -= l[k - 1] * y[k - 1];
      } else {
        const double prev = y[k - 1];
        y[k - 1] = y[k];
        y[k] = prev - l[k - 1] * y[k];
      }
    }
    for (std::size_t k = n; k-- > 0;) {
      double rhs = y[k];
      if (k + 1 < n) rhs -= b[k] * y[k + 1];
      if (k + 2 < n) rhs -= b2[k] * y[k + 2];
      double ak = a[k];
      double pert = std::copysign(tol, ak);
      for (;;) {
        const double abs_ak = std::fabs(ak);
        if (abs_ak >= 1.0) break;
        if (abs_ak < kSafeMin) {
          if (abs_ak != 0.0 && std::fabs(rhs) * kSafeMin <= abs_ak) {
            rhs *= kBig;
            ak *= kBig;
            break;
          }
        } else if (std::fabs(rhs) <= abs_ak * kBig) {
          break;
        }
        ak += pert;
        pert *= 2.0;
      }
      y[k] = rhs / ak;
    }
  }
};

// Index of the largest-magnitude entry (the first one on ties).
std::size_t argmax_abs(std::span<const double> y) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < y.size(); ++i) {
    if (std::fabs(y[i]) > std::fabs(y[best])) best = i;
  }
  return best;
}

// Unit eigenvectors of the tridiagonal block (d, e) for its eigenvalues
// `values` (descending), by inverse iteration (LAPACK dstein): each shift
// is nudged off its predecessor, and each iterate is re-orthogonalized
// against the earlier vectors of its cluster, the run of eigenvalues
// each within 1e-3·‖T‖_1 of the one before. The vector for values[j]
// lands in columns [b0, b0 + n) of row rows[j] of `z`, signed so that
// its largest entry is positive.
void inverse_iteration(std::span<const double> d, std::span<const double> e,
                       std::span<const double> values,
                       std::span<const std::size_t> rows, std::size_t b0,
                       Matrix& z) {
  constexpr double kEps = std::numeric_limits<double>::epsilon();
  constexpr int kMaxIters = 5;
  constexpr int kExtraIters = 2;
  const std::size_t n = d.size();
  auto vec = [&](std::size_t j) {
    return std::span<double>(z.row_ptr(rows[j]) + b0, n);
  };
  if (n == 1) {
    vec(0)[0] = 1.0;
    return;
  }
  double norm = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double col = std::fabs(d[i]);
    if (i >= 1) col += std::fabs(e[i - 1]);
    if (i + 1 < n) col += std::fabs(e[i]);
    norm = std::max(norm, col);
  }
  const double cluster_gap = 1e-3 * norm;
  const double grown = std::sqrt(0.1 / static_cast<double>(n));
  TridiagonalLu lu;
  std::uint64_t stream = 0;
  std::size_t cluster = 0;
  double prev = 0.0;
  for (std::size_t j = 0; j < values.size(); ++j) {
    double shift = values[j];
    if (j > 0) {
      const double pert = 10.0 * std::fabs(kEps * shift);
      if (prev - shift < pert) shift = prev - pert;
      if (std::fabs(prev - shift) > cluster_gap) cluster = j;
    }
    lu.factor(d, e, shift);
    const std::span<double> y = vec(j);
    for (double& yi : y) {
      yi = static_cast<double>(splitmix64(stream++) >> 11) * 0x1.0p-52 - 1.0;
    }
    // Stop kExtraIters steps after the iterate first grows past `grown`;
    // one that never does is accepted as is, as dstein does.
    for (int its = 0, above = 0; its < kMaxIters; ++its) {
      const double scale = static_cast<double>(n) * norm *
                           std::max(kEps, std::fabs(lu.a[n - 1])) /
                           std::fabs(y[argmax_abs(y)]);
      for (double& yi : y) yi *= scale;
      lu.solve(y);
      for (std::size_t c = cluster; c < j; ++c) {
        const std::span<double> zc = vec(c);
        const double proj = dot_lanes(y.data(), zc.data(), n);
        for (std::size_t i = 0; i < n; ++i) y[i] -= proj * zc[i];
      }
      if (std::fabs(y[argmax_abs(y)]) >= grown && ++above > kExtraIters) break;
    }
    const std::size_t top = argmax_abs(y);
    const double big = std::fabs(y[top]);
    double ss = 0.0;
    for (const double yi : y) ss += (yi / big) * (yi / big);
    const double inv = std::copysign(1.0 / (big * std::sqrt(ss)), y[top]);
    for (double& yi : y) yi *= inv;
    prev = shift;
  }
}

}  // namespace

SymmetricEigen eigen_symmetric(const Matrix& a) {
  return eigen_symmetric_top(a, a.rows());
}

SymmetricEigen eigen_symmetric_top(Matrix w, std::size_t t) {
  EKM_EXPECTS_MSG(w.rows() == w.cols(),
                  "eigen_symmetric_top needs a square matrix");
  const std::size_t n = w.rows();
  EKM_EXPECTS_MSG(t <= n, "eigen_symmetric_top: t exceeds the dimension");

  // (w + wᵀ) / 2 into the upper triangle, in place: cell (i, j), j >= i,
  // reads its mirror (j, i) below the diagonal, which nothing writes
  // before the reduction and which the solver never reads.
  double amax = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double* row = w.row_ptr(i);
    for (std::size_t j = i; j < n; ++j) {
      row[j] = 0.5 * (row[j] + w.row_ptr(j)[i]);
      amax = std::max(amax, std::fabs(row[j]));
    }
  }
  // Scale into dsyevx's range as it does; the values are scaled back at
  // the end, and the vectors do not depend on the scale.
  const int p = scale_exponent(amax);
  if (p != 0) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i; j < n; ++j) w(i, j) = std::ldexp(w(i, j), p);
    }
  }
  std::vector<double> d, e, tau;
  tridiagonalize(w, d, e, tau);

  // Split T where an off-diagonal is negligible and take each block's
  // eigenvalues, remembering the block of each: above kNx only the t
  // largest of each block, by bisection; otherwise all of them, by
  // values-only QL.
  struct Pair {
    double value;
    std::size_t block;  // index into `starts`
  };
  std::vector<std::size_t> starts;
  std::vector<Pair> pairs;
  pairs.reserve(n);
  std::vector<double> bd, be;
  for (std::size_t b0 = 0; b0 < n;) {
    std::size_t b1 = b0 + 1;
    while (b1 < n && !negligible(e[b1 - 1], d[b1 - 1], d[b1])) ++b1;
    if (n > kNx) {
      bisect_top(std::span<const double>(d).subspan(b0, b1 - b0),
                 std::span<const double>(e).subspan(b0, b1 - b0 - 1),
                 std::min(t, b1 - b0), bd);
    } else {
      bd.assign(d.begin() + static_cast<std::ptrdiff_t>(b0),
                d.begin() + static_cast<std::ptrdiff_t>(b1));
      be.assign(b1 - b0, 0.0);  // tql2 layout: be[i] couples i-1 and i
      for (std::size_t i = b0 + 1; i < b1; ++i) be[i - b0] = e[i - 1];
      EKM_ENSURES_MSG(tql2(bd, be), "tql2 failed to converge");
    }
    for (const double v : bd) pairs.push_back({v, starts.size()});
    starts.push_back(b0);
    b0 = b1;
  }
  starts.push_back(n);

  // The t largest, descending; equal values keep block order.
  std::stable_sort(
      pairs.begin(), pairs.end(),
      [](const Pair& x, const Pair& y) { return x.value > y.value; });
  pairs.resize(t);

  // Tridiagonal eigenvectors, one row of z per kept pair: inverse
  // iteration block by block over that block's kept values.
  Matrix z(t, n);
  std::vector<double> values;
  std::vector<std::size_t> rows;
  for (std::size_t b = 0; b + 1 < starts.size(); ++b) {
    values.clear();
    rows.clear();
    for (std::size_t j = 0; j < t; ++j) {
      if (pairs[j].block != b) continue;
      values.push_back(pairs[j].value);
      rows.push_back(j);
    }
    if (values.empty()) continue;
    const std::size_t b0 = starts[b];
    const std::size_t len = starts[b + 1] - b0;
    inverse_iteration(std::span<const double>(d).subspan(b0, len),
                      std::span<const double>(e).subspan(b0, len), values,
                      rows, b0, z);
  }

  // Back-transform x = Q z = H_0 (H_1 (... H_{n-3} z)).
  for (std::size_t k = n < 3 ? 0 : n - 2; k-- > 0;) {
    if (tau[k] == 0.0) continue;
    const std::size_t m = n - k - 1;
    const double* v = w.row_ptr(k) + k + 1;
    for (std::size_t j = 0; j < t; ++j) {
      double* x = z.row_ptr(j) + k + 1;
      const double s = tau[k] * dot_lanes(v, x, m);
      for (std::size_t i = 0; i < m; ++i) x[i] -= s * v[i];
    }
  }

  SymmetricEigen eig;
  eig.values.resize(t);
  for (std::size_t j = 0; j < t; ++j) {
    eig.values[j] = std::ldexp(pairs[j].value, -p);
  }
  eig.vectors = z.transposed();
  return eig;
}

}  // namespace ekm
