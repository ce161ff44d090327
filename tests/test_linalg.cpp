// Tests for src/linalg: matrix algebra, symmetric eigendecomposition,
// SVD and pseudoinverse. Property suites sweep shapes via TEST_P; the
// top-t solvers are held to residual accuracy contracts, with reference
// values from the Jacobi oracle (eigen_oracle.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "eigen_oracle.hpp"
#include "linalg/eigen_sym.hpp"
#include "linalg/matrix.hpp"
#include "linalg/svd.hpp"
#include "matrix_helpers.hpp"

namespace ekm {
namespace {

using test::eigen_symmetric_jacobi;
using test::frobenius_norm;
using test::identity;
using test::subtract;

double max_abs_diff(const Matrix& a, const Matrix& b) {
  return frobenius_norm(subtract(a, b));
}

// U diag(sigma) V^T.
Matrix reconstruct(const Svd& s) {
  Matrix us = s.u;  // scale columns of U by sigma
  for (std::size_t i = 0; i < us.rows(); ++i) {
    for (std::size_t j = 0; j < us.cols(); ++j) us(i, j) *= s.sigma[j];
  }
  return matmul_a_bt(us, s.v);
}

TEST(Matrix, InitializerListAndAccess) {
  const Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 6.0);
  EXPECT_THROW((void)m(2, 0), precondition_error);
  EXPECT_THROW((void)m(0, 3), precondition_error);
  EXPECT_THROW((Matrix{{1.0}, {1.0, 2.0}}), precondition_error);
}

TEST(Matrix, TransposeInvolution) {
  Rng rng = make_rng(1);
  const Matrix m = Matrix::gaussian(7, 4, rng);
  EXPECT_EQ(m.transposed().transposed(), m);
}

TEST(Matrix, MatmulAgainstHandComputed) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  const Matrix c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
  EXPECT_THROW((void)matmul(a, Matrix(3, 3)), precondition_error);
}

TEST(Matrix, FusedTransposeProductsMatchExplicit) {
  Rng rng = make_rng(2);
  const Matrix a = Matrix::gaussian(6, 3, rng);
  const Matrix b = Matrix::gaussian(6, 4, rng);
  EXPECT_LT(max_abs_diff(matmul_at_b(a, b), matmul(a.transposed(), b)), 1e-12);
  const Matrix c = Matrix::gaussian(5, 3, rng);
  EXPECT_LT(max_abs_diff(matmul_a_bt(a, c), matmul(a, c.transposed())), 1e-12);
}

// One step of a product cell's chain as the kernel compiles it: fused
// where the target has a fast FMA, a multiply and an add elsewhere.
double chain_step(double s, double x, double y) {
#if defined(__FP_FAST_FMA)
  return std::fma(x, y, s);
#else
  return s + x * y;
#endif
}

// The product contract: C[i][j] is one chain over p ascending from +0 of
// x(i, p)·y(p, j).
template <class X, class Y>
Matrix reference_product(std::size_t m, std::size_t n, std::size_t k, X x,
                         Y y) {
  Matrix c(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (std::size_t p = 0; p < k; ++p) s = chain_step(s, x(i, p), y(p, j));
      c(i, j) = s;
    }
  }
  return c;
}

Matrix reference_matmul(const Matrix& a, const Matrix& b) {
  return reference_product(
      a.rows(), b.cols(), a.cols(),
      [&](std::size_t i, std::size_t p) { return a(i, p); },
      [&](std::size_t p, std::size_t j) { return b(p, j); });
}

Matrix reference_at_b(const Matrix& a, const Matrix& b) {
  return reference_product(
      a.cols(), b.cols(), a.rows(),
      [&](std::size_t i, std::size_t p) { return a(p, i); },
      [&](std::size_t p, std::size_t j) { return b(p, j); });
}

Matrix reference_a_bt(const Matrix& a, const Matrix& b) {
  return reference_product(
      a.rows(), b.rows(), a.cols(),
      [&](std::size_t i, std::size_t p) { return a(i, p); },
      [&](std::size_t p, std::size_t j) { return b(j, p); });
}

// Gaussian entries with exact zeros: every fifth entry and, past one
// row, a whole row.
Matrix with_zeros(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m = Matrix::gaussian(rows, cols, rng);
  auto f = m.flat();
  for (std::size_t i = 2; i < f.size(); i += 5) f[i] = 0.0;
  if (rows > 1) {
    for (std::size_t j = 0; j < cols; ++j) m(rows / 2, j) = 0.0;
  }
  return m;
}

// Runs `product` as a task of a pool job, the way a compute batch runs
// its sites: the product's own chunks then run inline on that thread.
Matrix inside_a_job(const std::function<Matrix()>& product) {
  std::vector<Matrix> out(2);
  parallel_for_chunks(2, 1, [&](std::size_t c, std::size_t, std::size_t) {
    if (c == 0) out[0] = product();
  });
  return out[0];
}

TEST(Matrix, ProductsBitIdenticalAcrossPoolSizes) {
  // Each product equals the per-cell reference loop bit for bit at any
  // pool size, called on the pool or from inside a pool job (where a
  // product of several chunks runs as one that packs B̃). Shapes (rows
  // of C, columns of C, summation depth) reach every edge of the tiled
  // kernel: 1×1; ragged tiles in all three dimensions; fewer output
  // columns than one vector; several slabs, pool chunks and column
  // blocks; exact zeros in both operands.
  struct Shape {
    std::size_t m, n, k;
  };
  const Shape shapes[] = {
      {1, 1, 1}, {37, 11, 13}, {20, 5, 9}, {150, 100, 600}, {90, 700, 40}};
  Rng rng = make_rng(3);
  for (const Shape& s : shapes) {
    SCOPED_TRACE(std::to_string(s.m) + "x" + std::to_string(s.n) + "x" +
                 std::to_string(s.k));
    const Matrix a = with_zeros(s.m, s.k, rng);   // A of A·B and A·Bᵀ
    const Matrix b = with_zeros(s.k, s.n, rng);   // B of A·B and Aᵀ·B
    const Matrix at = with_zeros(s.k, s.m, rng);  // A of Aᵀ·B
    const Matrix bt = with_zeros(s.n, s.k, rng);  // B of A·Bᵀ
    const Matrix ab = reference_matmul(a, b);
    const Matrix at_b = reference_at_b(at, b);
    const Matrix a_bt = reference_a_bt(a, bt);
    for (const std::size_t threads : {1, 4}) {
      set_parallel_threads(threads);
      EXPECT_EQ(matmul(a, b), ab) << threads << " threads";
      EXPECT_EQ(matmul_at_b(at, b), at_b) << threads << " threads";
      EXPECT_EQ(matmul_a_bt(a, bt), a_bt) << threads << " threads";
      EXPECT_EQ(inside_a_job([&] { return matmul(a, b); }), ab)
          << threads << " threads, inline";
      EXPECT_EQ(inside_a_job([&] { return matmul_at_b(at, b); }), at_b)
          << threads << " threads, inline";
      EXPECT_EQ(inside_a_job([&] { return matmul_a_bt(a, bt); }), a_bt)
          << threads << " threads, inline";
    }
  }

  // The Gram calls, matmul_at_b(a, a) and matmul_a_bt(a, a), form only
  // the upper triangle and mirror it. They must equal the reference, the
  // same call on a copy (the general path) and their own transpose, bit
  // for bit: 1×1, ragged tiles, several slabs, chunks and column
  // blocks, n < d for A Aᵀ, and the 32768×16 merge Gram of a 4096-site
  // fleet.
  struct Operand {
    std::size_t rows, cols;
  };
  const Operand grams[] = {{1, 1},    {13, 37},  {37, 13},   {600, 150},
                           {150, 600}, {40, 700}, {700, 40}, {32768, 16}};
  for (const Operand& s : grams) {
    SCOPED_TRACE(std::to_string(s.rows) + "x" + std::to_string(s.cols));
    const Matrix a = with_zeros(s.rows, s.cols, rng);
    const Matrix copy = a;
    const Matrix ata = reference_at_b(a, a);
    // A Aᵀ of the tall operand would be 8 GiB; its Gram is Aᵀ A.
    const bool wide_gram = s.rows <= 4096;
    const Matrix aat = wide_gram ? reference_a_bt(a, a) : Matrix();
    for (const std::size_t threads : {1, 4}) {
      set_parallel_threads(threads);
      const Matrix g = matmul_at_b(a, a);
      EXPECT_EQ(g, ata) << threads << " threads";
      EXPECT_EQ(g, matmul_at_b(a, copy)) << threads << " threads";
      EXPECT_EQ(g, g.transposed()) << threads << " threads";
      EXPECT_EQ(inside_a_job([&] { return matmul_at_b(a, a); }), ata)
          << threads << " threads, inline";
      if (!wide_gram) continue;
      const Matrix h = matmul_a_bt(a, a);
      EXPECT_EQ(h, aat) << threads << " threads";
      EXPECT_EQ(h, matmul_a_bt(a, copy)) << threads << " threads";
      EXPECT_EQ(h, h.transposed()) << threads << " threads";
      EXPECT_EQ(inside_a_job([&] { return matmul_a_bt(a, a); }), aat)
          << threads << " threads, inline";
    }
  }

  // add_at_b_upper adds Aᵀ B into an m x m block of a wider matrix, in
  // place: every upper cell of the block continues its chain from its
  // old value, and nothing outside the block changes. Shapes: 1×1,
  // ragged tiles, several pool chunks, several slabs and column blocks.
  struct Update {
    std::size_t m, k;
  };
  for (const Update& s : {Update{1, 1}, Update{37, 13}, Update{300, 64},
                          Update{520, 300}}) {
    SCOPED_TRACE(std::to_string(s.m) + "x" + std::to_string(s.k));
    const std::size_t ld = s.m + 3;
    const Matrix a = with_zeros(s.k, ld, rng);
    const Matrix b = with_zeros(s.k, ld, rng);
    const Matrix before = with_zeros(s.m + 2, ld, rng);  // block at (2, 1)
    Matrix want = before;
    for (std::size_t i = 0; i < s.m; ++i) {
      for (std::size_t j = i; j < s.m; ++j) {
        double cell = before(2 + i, 1 + j);
        for (std::size_t p = 0; p < s.k; ++p) {
          cell = chain_step(cell, a(p, i), b(p, j));
        }
        want(2 + i, 1 + j) = cell;
      }
    }
    for (const std::size_t threads : {1, 4}) {
      set_parallel_threads(threads);
      for (const bool inline_job : {false, true}) {
        const auto update = [&] {
          Matrix c = before;
          add_at_b_upper(s.m, s.k, a.flat().data(), b.flat().data(), ld,
                         c.row_ptr(2) + 1, ld);
          return c;
        };
        const Matrix c = inline_job ? inside_a_job(update) : update();
        for (std::size_t i = 0; i < s.m; ++i) {  // below the diagonal: free
          for (std::size_t j = 0; j < i; ++j) {
            want(2 + i, 1 + j) = c(2 + i, 1 + j);
          }
        }
        EXPECT_EQ(c, want) << threads << " threads"
                           << (inline_job ? ", inline" : "");
      }
    }
  }
  set_parallel_threads(0);
}

TEST(Matrix, RowRange) {
  const Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}, {7.0, 8.0, 9.0}};
  const Matrix mid = m.row_range(1, 3);
  EXPECT_EQ(mid.rows(), 2u);
  EXPECT_DOUBLE_EQ(mid(0, 0), 4.0);
  EXPECT_THROW((void)m.row_range(2, 1), precondition_error);
}

TEST(Matrix, AppendRows) {
  Matrix m{{1.0, 2.0}};
  m.append_rows(Matrix{{3.0, 4.0}, {5.0, 6.0}});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_DOUBLE_EQ(m(2, 1), 6.0);
  Matrix empty;
  empty.append_rows(Matrix{{9.0}});
  EXPECT_EQ(empty.rows(), 1u);
  EXPECT_THROW(m.append_rows(Matrix(1, 3)), precondition_error);
}

TEST(Matrix, VectorHelpers) {
  const std::vector<double> a{3.0, 4.0};
  const std::vector<double> b{1.0, -1.0};
  EXPECT_DOUBLE_EQ(squared_distance(a, b), 4.0 + 25.0);
  EXPECT_DOUBLE_EQ(norm2(a), 5.0);
}

TEST(EigenSym, DiagonalMatrix) {
  const Matrix m{{3.0, 0.0, 0.0}, {0.0, 1.0, 0.0}, {0.0, 0.0, 2.0}};
  const SymmetricEigen eig = eigen_symmetric(m);
  ASSERT_EQ(eig.values.size(), 3u);
  EXPECT_NEAR(eig.values[0], 3.0, 1e-12);
  EXPECT_NEAR(eig.values[1], 2.0, 1e-12);
  EXPECT_NEAR(eig.values[2], 1.0, 1e-12);
}

TEST(EigenSym, KnownTwoByTwo) {
  // Eigenvalues of [[2,1],[1,2]] are 3 and 1.
  const Matrix m{{2.0, 1.0}, {1.0, 2.0}};
  const SymmetricEigen eig = eigen_symmetric(m);
  EXPECT_NEAR(eig.values[0], 3.0, 1e-12);
  EXPECT_NEAR(eig.values[1], 1.0, 1e-12);
  // Eigenvector for 3 is (1,1)/sqrt(2) up to sign.
  EXPECT_NEAR(std::fabs(eig.vectors(0, 0)), 1.0 / std::sqrt(2.0), 1e-12);
}

class EigenSymProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EigenSymProperty, ReconstructionOrthogonalityAndOrdering) {
  const std::size_t n = GetParam();
  Rng rng = make_rng(1000 + n);
  const Matrix a = Matrix::gaussian(n + 3, n, rng);
  const Matrix sym = matmul_at_b(a, a);  // PSD
  const SymmetricEigen eig = eigen_symmetric(sym);

  // Ordering (descending) and non-negativity for PSD input.
  for (std::size_t j = 0; j + 1 < n; ++j) {
    EXPECT_GE(eig.values[j], eig.values[j + 1] - 1e-9);
  }
  EXPECT_GE(eig.values[n - 1], -1e-8 * eig.values[0]);

  // V^T V = I.
  const Matrix vtv = matmul_at_b(eig.vectors, eig.vectors);
  EXPECT_LT(max_abs_diff(vtv, identity(n)), 1e-9);

  // A = V diag(λ) V^T.
  Matrix vl = eig.vectors;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) vl(i, j) *= eig.values[j];
  }
  const Matrix rec = matmul_a_bt(vl, eig.vectors);
  EXPECT_LT(max_abs_diff(rec, sym), 1e-8 * (1.0 + frobenius_norm(sym)));
}

TEST_P(EigenSymProperty, JacobiOracleAgrees) {
  const std::size_t n = GetParam();
  if (n > 24) GTEST_SKIP() << "Jacobi oracle kept small";
  Rng rng = make_rng(2000 + n);
  const Matrix a = Matrix::gaussian(n + 1, n, rng);
  const Matrix sym = matmul_at_b(a, a);
  const SymmetricEigen fast = eigen_symmetric(sym);
  const SymmetricEigen oracle = eigen_symmetric_jacobi(sym);
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_NEAR(fast.values[j], oracle.values[j],
                1e-8 * (1.0 + std::fabs(oracle.values[0])));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenSymProperty,
                         ::testing::Values<std::size_t>(1, 2, 3, 5, 8, 13, 24,
                                                        40, 64));

TEST(EigenSym, RejectsNonSquare) {
  EXPECT_THROW((void)eigen_symmetric(Matrix(2, 3)), precondition_error);
}

struct SvdShape {
  std::size_t rows;
  std::size_t cols;
  std::size_t rank = 0;  // 0: a Gaussian matrix, of full rank
  double scale = 1.0;    // every entry times this
};

// A Gaussian matrix, or a product of Gaussian factors through `rank`,
// times the shape's scale.
Matrix svd_input(const SvdShape& shape, Rng& rng) {
  Matrix a;
  if (shape.rank == 0) {
    a = Matrix::gaussian(shape.rows, shape.cols, rng);
  } else {
    const Matrix left = Matrix::gaussian(shape.rows, shape.rank, rng);
    a = matmul(left, Matrix::gaussian(shape.rank, shape.cols, rng));
  }
  a.scale(shape.scale);
  return a;
}

// The shape's input at scale 1, drawn from a fresh `seed` stream.
Matrix unscaled_input(const SvdShape& shape, std::uint64_t seed) {
  Rng rng = make_rng(seed);
  return svd_input({shape.rows, shape.cols, shape.rank}, rng);
}

class SvdProperty : public ::testing::TestWithParam<SvdShape> {};

// The thin SVD: truncated_svd at t = min(n, d). Bounds carry the input's
// scale, so a scaled case is held to the unscaled one's relative bars.
TEST_P(SvdProperty, ThinSvdAxioms) {
  const auto [n, d, rank, scale] = GetParam();
  Rng rng = make_rng(31 * n + d);
  const Matrix a = svd_input(GetParam(), rng);
  const std::size_t r = std::min(n, d);
  const Svd s = truncated_svd(a, r);
  ASSERT_EQ(s.rank(), r);

  // Reconstruction.
  EXPECT_LT(max_abs_diff(reconstruct(s), a),
            1e-9 * (scale + frobenius_norm(a)));
  // Orthonormal factors.
  EXPECT_LT(max_abs_diff(matmul_at_b(s.u, s.u), identity(r)), 1e-9);
  EXPECT_LT(max_abs_diff(matmul_at_b(s.v, s.v), identity(r)), 1e-9);
  // Ordering and non-negativity.
  for (std::size_t j = 0; j + 1 < r; ++j) {
    EXPECT_GE(s.sigma[j], s.sigma[j + 1] - 1e-12 * scale);
  }
  EXPECT_GE(s.sigma[r - 1], 0.0);
  // Energy identity: ||A||_F^2 = sum sigma_j^2.
  double energy = 0.0;
  for (double sv : s.sigma) energy += sv * sv;
  EXPECT_NEAR(energy, frobenius_norm(a) * frobenius_norm(a),
              1e-7 * (scale * scale + energy));
  // Scaling the input scales sigma and nothing else: the solver scales
  // a Gram outside its safe range into it first, as LAPACK's dsyevx does.
  if (scale != 1.0) {
    const Svd unit = truncated_svd(unscaled_input(GetParam(), 31 * n + d), r);
    for (std::size_t j = 0; j < r; ++j) {
      EXPECT_NEAR(s.sigma[j] / scale, unit.sigma[j], 1e-12 * unit.sigma[0]);
    }
  }
}

TEST_P(SvdProperty, PseudoinversePenroseAxioms) {
  const auto [n, d, rank, scale] = GetParam();
  Rng rng = make_rng(77 * n + d);
  const Matrix a = svd_input(GetParam(), rng);
  const Matrix ap = pseudoinverse(a);
  EXPECT_EQ(ap.rows(), d);
  EXPECT_EQ(ap.cols(), n);
  // A's size; A+ scales as 1/scale, A A+ and A+ A not at all.
  const double size = scale + frobenius_norm(a);
  // 1) A A+ A = A;  2) A+ A A+ = A+.
  EXPECT_LT(max_abs_diff(matmul(matmul(a, ap), a), a), 1e-8 * size);
  EXPECT_LT(max_abs_diff(matmul(matmul(ap, a), ap), ap),
            1e-8 * size / (scale * scale));
  // 3) (A A+)^T = A A+;  4) (A+ A)^T = A+ A.
  const Matrix aap = matmul(a, ap);
  const Matrix apa = matmul(ap, a);
  EXPECT_LT(max_abs_diff(aap, aap.transposed()), 1e-8 * size / scale);
  EXPECT_LT(max_abs_diff(apa, apa.transposed()), 1e-8 * size / scale);
  // (s A)+ = A+ / s.
  if (scale != 1.0) {
    const Matrix unit = pseudoinverse(unscaled_input(GetParam(), 77 * n + d));
    Matrix back = ap;
    back.scale(scale);
    EXPECT_LT(max_abs_diff(back, unit), 1e-12 * frobenius_norm(unit));
  }
}

// The rank-3 tall and wide cases take the orthonormalized fill-in for
// their zero sigma, and the pseudoinverse must zero them. The scaled
// 30x10 Gaussians lie outside the eigensolver's safe range: their Grams'
// entries sit near 1e-300, 1e-150, 1e150 and 1e300.
INSTANTIATE_TEST_SUITE_P(
    Shapes, SvdProperty,
    ::testing::Values(SvdShape{1, 1}, SvdShape{5, 5}, SvdShape{20, 5},
                      SvdShape{5, 20}, SvdShape{40, 17}, SvdShape{17, 40},
                      SvdShape{64, 64}, SvdShape{30, 10, 3},
                      SvdShape{10, 30, 3}, SvdShape{30, 10, 0, 1e-150},
                      SvdShape{30, 10, 0, 1e-75}, SvdShape{30, 10, 0, 1e75},
                      SvdShape{30, 10, 0, 1e150}));

TEST(Svd, RankDeficientInput) {
  // Rank-1 matrix: outer product.
  Matrix a(6, 4);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      a(i, j) = static_cast<double>(i + 1) * static_cast<double>(j + 1);
    }
  }
  const Svd s = truncated_svd(a, 4);
  EXPECT_GT(s.sigma[0], 0.0);
  for (std::size_t j = 1; j < s.rank(); ++j) {
    EXPECT_LT(s.sigma[j], 1e-8 * s.sigma[0]);
  }
  EXPECT_LT(max_abs_diff(reconstruct(s), a), 1e-9 * (1.0 + frobenius_norm(a)));
  // Pseudoinverse of rank-deficient input still satisfies A A+ A = A.
  const Matrix ap = pseudoinverse(a);
  EXPECT_LT(max_abs_diff(matmul(matmul(a, ap), a), a),
            1e-8 * (1.0 + frobenius_norm(a)));
}

TEST(Svd, TruncationKeepsTopComponents) {
  Rng rng = make_rng(5);
  const Matrix a = Matrix::gaussian(30, 10, rng);
  const std::vector<double> lambda =
      eigen_symmetric_jacobi(matmul_at_b(a, a)).values;
  const Svd trunc = truncated_svd(a, 3);
  ASSERT_EQ(trunc.rank(), 3u);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(trunc.sigma[j], std::sqrt(lambda[j]), 1e-10);
  }
  // Truncated reconstruction is the best rank-3 approximation: its error
  // equals the discarded energy (Eckart–Young).
  double tail = 0.0;
  for (std::size_t j = 3; j < lambda.size(); ++j) tail += lambda[j];
  const double err = frobenius_norm(subtract(reconstruct(trunc), a));
  EXPECT_NEAR(err * err, tail, 1e-6 * (1.0 + tail));
}

TEST(Svd, EmptyMatrixRejected) {
  EXPECT_THROW((void)truncated_svd(Matrix(), 2), precondition_error);
  EXPECT_THROW((void)pseudoinverse(Matrix()), precondition_error);
}

// ---- Residual accuracy contracts for the top-t solvers --------------------
//
// One registered suite per solver, each run over the same named shapes:
// the edge sizes, t = 1 and t = n (below and above the blocked
// crossover), the n < d branch, rank deficiency (zero sigma with fill-in
// columns), repeated eigenvalues and a graded spectrum. Bounds are
// c·n·eps relative to the matrix's scale, the backward error an
// exact-to-roundoff solver owes. Reference values are the spectrum a
// case constructs, else the Jacobi oracle's, computed once per case.

constexpr double kEps = std::numeric_limits<double>::epsilon();
constexpr double kC = 16.0;

struct SpectrumCase {
  std::string name;
  Matrix a;       // truncated_svd input; eigen_symmetric_top gets gram(a)
  std::size_t t;
  // gram(a)'s eigenvalues, descending, where the case constructs them.
  std::vector<double> spectrum = {};
};

Matrix gram(const Matrix& a) {
  return a.cols() <= a.rows() ? matmul_at_b(a, a) : matmul_a_bt(a, a);
}

// A random orthogonal Q: the Gram eigenvectors of a Gaussian matrix.
Matrix random_orthogonal(std::size_t n, Rng& rng) {
  return truncated_svd(Matrix::gaussian(n, n, rng), n).v;
}

// Q diag(values) Qᵀ for a random orthogonal Q.
Matrix rotated_diagonal(const std::vector<double>& values, Rng& rng) {
  const std::size_t n = values.size();
  const Matrix q = random_orthogonal(n, rng);
  Matrix qd = q;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) qd(i, j) *= values[j];
  }
  return matmul_a_bt(qd, q);
}

const std::vector<SpectrumCase>& spectrum_cases() {
  static const std::vector<SpectrumCase> cases = [] {
    Rng rng = make_rng(0x7e57);
    std::vector<SpectrumCase> c;
    c.push_back({"one_by_one", Matrix{{-3.0}}, 1});
    const Matrix two = Matrix::gaussian(2, 2, rng);
    c.push_back({"two_by_two_t1", two, 1});
    c.push_back({"two_by_two_t2", two, 2});
    const Matrix tall = Matrix::gaussian(40, 12, rng);
    c.push_back({"t_is_one", tall, 1});
    c.push_back({"t_is_n", tall, 12});
    c.push_back({"wide", Matrix::gaussian(12, 40, rng), 5});
    const Matrix left = Matrix::gaussian(30, 3, rng);
    const Matrix right = Matrix::gaussian(3, 10, rng);
    c.push_back({"rank_deficient", matmul(left, right), 6});
    c.push_back({"identity", identity(10), 4});
    // A rotated diagonal's Gram has the squares of its values.
    const auto squares = [](std::vector<double> values) {
      for (double& x : values) x *= x;
      return values;
    };
    const std::vector<double> multiplicities{
        4.0, 4.0, 4.0, 4.0, 4.0, 2.0, 2.0, 2.0, 1.0, 0.5, 0.25, 0.125};
    c.push_back({"multiplicities_5_and_3",
                 rotated_diagonal(multiplicities, rng), 9,
                 squares(multiplicities)});
    // 600 x 200 with singular values graded from 1 down to 1e-6.
    const Matrix u = truncated_svd(Matrix::gaussian(600, 200, rng), 200).u;
    const Matrix v = random_orthogonal(200, rng);
    std::vector<double> graded(200);
    for (std::size_t j = 0; j < graded.size(); ++j) {
      graded[j] = std::pow(10.0, -6.0 * static_cast<double>(j) / 199.0);
    }
    Matrix us = u;
    for (std::size_t i = 0; i < us.rows(); ++i) {
      for (std::size_t j = 0; j < us.cols(); ++j) us(i, j) *= graded[j];
    }
    c.push_back(
        {"graded_600x200", matmul_a_bt(us, v), 16, squares(graded)});
    // Above 128 the top-t solver reduces in panels of 32 and takes the
    // eigenvalues by bisection. 129 is one one-column panel; 197 is
    // panels of 32, 32 and 5; at 320 the first panels' matvecs run on
    // the pool.
    c.push_back({"blocked_one_column", Matrix::gaussian(200, 129, rng), 8});
    c.push_back({"blocked_ragged_panel", Matrix::gaussian(260, 197, rng), 16});
    c.push_back({"blocked_pooled_matvec", Matrix::gaussian(400, 320, rng), 16});
    // Rank 12 in 300 columns, every 25th nonzero: T splits into many
    // blocks, and t = 16 reaches four zero sigma.
    Matrix sparse_cols(400, 300);
    for (std::size_t i = 0; i < sparse_cols.rows(); ++i) {
      for (std::size_t j = 0; j < sparse_cols.cols(); j += 25) {
        sparse_cols(i, j) = std::normal_distribution<double>()(rng);
      }
    }
    c.push_back({"blocked_rank_deficient", sparse_cols, 16});
    // Twelve distinct values, eight copies of 3 at positions 12..19,
    // then a graded tail: t = 16 cuts through the repeated value.
    std::vector<double> repeated(300);
    for (std::size_t j = 0; j < repeated.size(); ++j) {
      const double x = static_cast<double>(j);
      repeated[j] = j < 12    ? 10.0 - 0.5 * x
                    : j < 20 ? 3.0
                             : std::pow(10.0, -3.0 * (x - 20.0) / 279.0);
    }
    c.push_back({"blocked_repeated_straddles_t",
                 rotated_diagonal(repeated, rng), 16, squares(repeated)});
    // Exact zero columns at the order values-only QL still handles: T
    // deflates by about ε per step into subnormals, so only an absolute
    // split term (LAPACK's safmin) lets QL converge.
    for (const std::size_t cols : {100, 128}) {
      const std::size_t stride = cols == 100 ? 10 : 25;
      Matrix zero_cols(400, cols);
      for (std::size_t i = 0; i < zero_cols.rows(); ++i) {
        for (std::size_t j = 0; j < cols; j += stride) {
          zero_cols(i, j) = std::normal_distribution<double>()(rng);
        }
      }
      c.push_back({"zero_cols_every_" + std::to_string(stride) + "th",
                   zero_cols, 16});
    }
    // Every pair above the crossover, as eigen_symmetric asks: bisection
    // for all 160 values, inverse iteration across the wide cluster of
    // the spectrum's lower edge.
    c.push_back({"blocked_t_is_n", Matrix::gaussian(200, 160, rng), 160});
    // rank_deficient transposed: wide, so its zero sigma take fill-in
    // columns in V, not U.
    c.push_back({"wide_rank_deficient",
                 matmul(right.transposed(), left.transposed()), 6});
    // fleet_sim's per-site solve.
    c.push_back({"site_16x16", Matrix::gaussian(16, 16, rng), 8});
    return c;
  }();
  return cases;
}

std::string case_name(const ::testing::TestParamInfo<std::size_t>& info) {
  return spectrum_cases()[info.param].name;
}

// gram(a)'s eigenvalues, descending: the case's own spectrum where it
// constructs one, else the Jacobi oracle's, computed once per case for
// both suites.
const std::vector<double>& gram_spectrum(std::size_t i) {
  static std::vector<std::vector<double>> oracle(spectrum_cases().size());
  const SpectrumCase& c = spectrum_cases()[i];
  if (!c.spectrum.empty()) return c.spectrum;
  if (oracle[i].empty()) oracle[i] = eigen_symmetric_jacobi(gram(c.a)).values;
  return oracle[i];
}

// truncated_svd reports sigma_j as an exact zero when the Gram's lambda_j
// is at its noise floor, 32·eps·dim·lambda_1 for a dim x dim Gram.
double zero_sigma_level(double lambda1, std::size_t dim) {
  return 32.0 * kEps * static_cast<double>(dim) * lambda1;
}

// Largest |entry| of VᵀV - I over the first k columns of v.
double orthogonality_error(const Matrix& v, std::size_t k) {
  Matrix vk(v.rows(), k);
  for (std::size_t i = 0; i < v.rows(); ++i) {
    std::copy_n(v.row_ptr(i), k, vk.row_ptr(i));
  }
  const Matrix err = subtract(matmul_at_b(vk, vk), identity(k));
  double worst = 0.0;
  for (const double x : err.flat()) worst = std::max(worst, std::fabs(x));
  return worst;
}

// ‖M x_j - scale · y_j‖ for column j of x and of y.
double column_residual(const Matrix& m, const Matrix& x, double scale,
                       const Matrix& y, std::size_t j) {
  double ss = 0.0;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    double mx = 0.0;
    for (std::size_t k = 0; k < m.cols(); ++k) mx += m(i, k) * x(k, j);
    const double r = mx - scale * y(i, j);
    ss += r * r;
  }
  return std::sqrt(ss);
}

class EigenTopContract : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EigenTopContract, ResidualOrthogonalityAndValues) {
  const SpectrumCase& c = spectrum_cases()[GetParam()];
  const Matrix g = gram(c.a);
  const std::size_t n = g.rows();
  const SymmetricEigen top = eigen_symmetric_top(g, c.t);
  const std::vector<double>& want = gram_spectrum(GetParam());
  ASSERT_EQ(top.values.size(), c.t);
  ASSERT_EQ(top.vectors.rows(), n);
  ASSERT_EQ(top.vectors.cols(), c.t);

  const double bound = kC * static_cast<double>(n) * kEps;
  const double g_norm =
      std::max(std::fabs(want.front()), std::fabs(want.back()));
  for (std::size_t j = 0; j < c.t; ++j) {
    EXPECT_LE(column_residual(g, top.vectors, top.values[j], top.vectors, j),
              bound * g_norm)
        << "pair " << j;
    EXPECT_NEAR(top.values[j], want[j], bound * g_norm) << "value " << j;
    if (j > 0) {
      EXPECT_GE(top.values[j - 1], top.values[j]);
    }
  }
  EXPECT_LE(orthogonality_error(top.vectors, c.t), bound);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EigenTopContract,
    ::testing::Range<std::size_t>(0, spectrum_cases().size()), case_name);

class TruncatedSvdContract : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TruncatedSvdContract, ResidualsOrthogonalityAndThreadInvariance) {
  const SpectrumCase& c = spectrum_cases()[GetParam()];
  const Matrix& a = c.a;
  const std::size_t k = std::min({c.t, a.rows(), a.cols()});
  const Svd s = truncated_svd(a, c.t);
  const std::vector<double>& lambda = gram_spectrum(GetParam());
  ASSERT_EQ(s.rank(), k);
  ASSERT_EQ(s.u.rows(), a.rows());
  ASSERT_EQ(s.u.cols(), k);
  ASSERT_EQ(s.v.rows(), a.cols());
  ASSERT_EQ(s.v.cols(), k);

  // Through the Gram, sigma_j^2 carries an absolute error of eps·sigma_1^2,
  // so the singular-vector residuals scale with sigma_1 / sigma_j.
  const double bound =
      kC * static_cast<double>(std::max(a.rows(), a.cols())) * kEps;
  const double s1 = std::sqrt(lambda.front());
  const double zero_level =
      zero_sigma_level(lambda.front(), std::min(a.rows(), a.cols()));
  double kappa_max = 1.0;  // sigma_1 over the smallest nonzero sigma
  for (std::size_t j = 0; j < k; ++j) {
    EXPECT_GE(s.sigma[j], 0.0);
    if (j > 0) {
      EXPECT_GE(s.sigma[j - 1], s.sigma[j]);
    }
    EXPECT_NEAR(s.sigma[j] * s.sigma[j], lambda[j], bound * s1 * s1)
        << "sigma " << j;
    EXPECT_EQ(s.sigma[j] == 0.0, lambda[j] <= zero_level) << "sigma " << j;
    if (s.sigma[j] == 0.0) continue;
    const double kappa = s1 / s.sigma[j];
    kappa_max = kappa;
    EXPECT_LE(column_residual(a, s.v, s.sigma[j], s.u, j), bound * s1 * kappa)
        << "A v - sigma u, " << j;
    EXPECT_LE(column_residual(a.transposed(), s.u, s.sigma[j], s.v, j),
              bound * s1 * kappa)
        << "A^T u - sigma v, " << j;
  }
  // Zero sigma get orthonormalized fill-in columns, so every column is
  // held to the bound.
  const double orth_bound = bound * kappa_max * kappa_max;
  EXPECT_LE(orthogonality_error(s.u, k), orth_bound);
  EXPECT_LE(orthogonality_error(s.v, k), orth_bound);

  set_parallel_threads(1);
  const Svd one = truncated_svd(a, c.t);
  set_parallel_threads(4);
  const Svd four = truncated_svd(a, c.t);
  set_parallel_threads(0);
  EXPECT_EQ(one.u, four.u);
  EXPECT_EQ(one.sigma, four.sigma);
  EXPECT_EQ(one.v, four.v);

  // Callers that read only sigma and V (disPCA's local step, pca_project)
  // take SvdFactors::kV: a tall input skips U = A V Σ⁻¹, a wide one still
  // forms V from U, and sigma and V are the full call's bit for bit.
  const Svd v_only = truncated_svd(a, c.t, SvdFactors::kV);
  EXPECT_TRUE(v_only.u.empty());
  EXPECT_EQ(v_only.sigma, s.sigma);
  EXPECT_EQ(v_only.v, s.v);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TruncatedSvdContract,
    ::testing::Range<std::size_t>(0, spectrum_cases().size()), case_name);

// The solver symmetrizes in its input's storage, reading each cell's
// mirror below the diagonal before it writes there: an input that is not
// exactly symmetric gives the pairs of its explicit symmetrization, whose
// lower triangle differs, bit for bit. 40 is solved column by column
// with QL; 300 in blocked panels, with pooled matvecs, and by bisection.
TEST(EigenSymTop, SkewedInputEqualsItsSymmetrization) {
  Rng rng = make_rng(0x3e);
  for (const std::size_t n : {40, 300}) {
    SCOPED_TRACE(n);
    const Matrix skewed = matmul_at_b(Matrix::gaussian(n + 20, n, rng),
                                      Matrix::gaussian(n + 20, n, rng));
    Matrix sym(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        sym(i, j) = 0.5 * (skewed(i, j) + skewed(j, i));
      }
    }
    const SymmetricEigen got = eigen_symmetric_top(skewed, 8);
    const SymmetricEigen want = eigen_symmetric_top(std::move(sym), 8);
    EXPECT_EQ(got.values, want.values);
    EXPECT_EQ(got.vectors, want.vectors);
  }
}

TEST(EigenSymTop, RejectsNonSquareAndOversizedT) {
  EXPECT_THROW((void)eigen_symmetric_top(Matrix(2, 3), 1), precondition_error);
  EXPECT_THROW((void)eigen_symmetric_top(identity(3), 4),
               precondition_error);
  EXPECT_EQ(eigen_symmetric_top(identity(3), 0).vectors.cols(), 0u);
}

}  // namespace
}  // namespace ekm
