// Tests for src/data: Dataset semantics, §7.1 normalization, random
// partitioning, synthetic generators, and file loaders.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "data/dataset.hpp"
#include "data/generators.hpp"
#include "data/loaders.hpp"
#include "kmeans/cost.hpp"
#include "linalg/svd.hpp"
#include "kmeans/lloyd.hpp"

namespace ekm {
namespace {

TEST(Dataset, WeightsDefaultToOne) {
  const Dataset d(Matrix{{1.0, 2.0}, {3.0, 4.0}});
  EXPECT_FALSE(d.is_weighted());
  EXPECT_DOUBLE_EQ(d.weight(0), 1.0);
  EXPECT_DOUBLE_EQ(d.total_weight(), 2.0);
  EXPECT_EQ(d.scalar_count(), 4u);
}

TEST(Dataset, WeightedInvariants) {
  const Dataset d(Matrix{{1.0}, {2.0}}, {0.5, 1.5});
  EXPECT_TRUE(d.is_weighted());
  EXPECT_DOUBLE_EQ(d.total_weight(), 2.0);
  EXPECT_THROW(Dataset(Matrix{{1.0}}, {0.5, 0.5}), precondition_error);
  EXPECT_THROW(Dataset(Matrix{{1.0}}, {-0.1}), precondition_error);
}

TEST(Normalize, ZeroMeanUnitRange) {
  Dataset d(Matrix{{0.0, 10.0}, {2.0, 30.0}, {4.0, 20.0}});
  normalize_zero_mean_unit_range(d);
  // Column means are zero.
  for (std::size_t j = 0; j < d.dim(); ++j) {
    double mean = 0.0;
    for (std::size_t i = 0; i < d.size(); ++i) mean += d.point(i)[j];
    EXPECT_NEAR(mean / static_cast<double>(d.size()), 0.0, 1e-12);
  }
  // Range within [-1, 1] and the extreme is attained.
  double maxabs = 0.0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    for (double v : d.point(i)) maxabs = std::max(maxabs, std::fabs(v));
  }
  EXPECT_NEAR(maxabs, 1.0, 1e-12);
}

TEST(Normalize, DegenerateAllZero) {
  Dataset d(Matrix(3, 2));
  EXPECT_DOUBLE_EQ(normalize_zero_mean_unit_range(d), 1.0);
}

TEST(Partition, PreservesPointsAndCount) {
  Rng rng = make_rng(3);
  GaussianMixtureSpec spec;
  spec.n = 200;
  spec.dim = 4;
  const Dataset d = make_gaussian_mixture(spec, rng);
  const std::vector<Dataset> parts = partition_random(d, 7, rng);
  ASSERT_EQ(parts.size(), 7u);
  std::size_t total = 0;
  for (const Dataset& p : parts) {
    total += p.size();
    if (!p.empty()) EXPECT_EQ(p.dim(), 4u);
  }
  EXPECT_EQ(total, 200u);

  // Every original point must appear in exactly one part (multiset match
  // via sum of coordinates as a cheap fingerprint plus size equality).
  double orig_sum = 0.0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    for (double v : d.point(i)) orig_sum += v;
  }
  double part_sum = 0.0;
  for (const Dataset& p : parts) {
    for (std::size_t i = 0; i < p.size(); ++i) {
      for (double v : p.point(i)) part_sum += v;
    }
  }
  EXPECT_NEAR(orig_sum, part_sum, 1e-9 * (1.0 + std::fabs(orig_sum)));
}

TEST(Partition, CarriesWeights) {
  const Dataset d(Matrix{{1.0}, {2.0}, {3.0}}, {1.0, 2.0, 3.0});
  Rng rng = make_rng(4);
  const std::vector<Dataset> parts = partition_random(d, 2, rng);
  double total_w = 0.0;
  for (const Dataset& p : parts) total_w += p.total_weight();
  EXPECT_DOUBLE_EQ(total_w, 6.0);
}

TEST(PartitionNonIid, PreservesAllPoints) {
  Rng rng = make_rng(40);
  GaussianMixtureSpec spec;
  spec.n = 400;
  spec.dim = 6;
  spec.k = 4;
  const Dataset d = make_gaussian_mixture(spec, rng);
  const std::vector<Dataset> parts = partition_noniid(d, 5, 0.3, 4, rng);
  ASSERT_EQ(parts.size(), 5u);
  std::size_t total = 0;
  for (const Dataset& p : parts) total += p.size();
  EXPECT_EQ(total, 400u);
}

TEST(PartitionNonIid, SmallAlphaSkewsShardSizes) {
  Rng rng = make_rng(41);
  GaussianMixtureSpec spec;
  spec.n = 2000;
  spec.dim = 8;
  spec.k = 4;
  spec.separation = 20.0;
  const Dataset d = make_gaussian_mixture(spec, rng);

  // Measure skew via the max/min shard-size ratio across several draws.
  auto skew_of = [&](double alpha, std::uint64_t seed) {
    Rng r = make_rng(seed);
    const std::vector<Dataset> parts = partition_noniid(d, 4, alpha, 4, r);
    std::size_t mx = 0;
    std::size_t mn = d.size();
    for (const Dataset& p : parts) {
      mx = std::max(mx, p.size());
      mn = std::min(mn, p.size());
    }
    return static_cast<double>(mx) / std::max<double>(1.0, static_cast<double>(mn));
  };
  double tight = 0.0;
  double loose = 0.0;
  for (std::uint64_t s = 0; s < 5; ++s) {
    tight += skew_of(100.0, 50 + s);
    loose += skew_of(0.05, 60 + s);
  }
  EXPECT_GT(loose, tight);  // smaller alpha => more skew
}

TEST(PartitionNonIid, ValidatesArguments) {
  const Dataset d(Matrix{{1.0}});
  Rng rng = make_rng(42);
  EXPECT_THROW((void)partition_noniid(d, 2, 0.0, 2, rng), precondition_error);
  EXPECT_THROW((void)partition_noniid(d, 0, 1.0, 2, rng), precondition_error);
}

TEST(Concatenate, RoundTripsPartition) {
  Rng rng = make_rng(5);
  GaussianMixtureSpec spec;
  spec.n = 64;
  spec.dim = 3;
  const Dataset d = make_gaussian_mixture(spec, rng);
  const std::vector<Dataset> parts = partition_random(d, 4, rng);
  const Dataset merged = concatenate(parts);
  EXPECT_EQ(merged.size(), d.size());
  EXPECT_EQ(merged.dim(), d.dim());
}

/// A dataset's weighted rows as a sortable multiset.
std::vector<std::vector<double>> weighted_rows(const Dataset& ds) {
  std::vector<std::vector<double>> rows;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    auto p = ds.point(i);
    std::vector<double> row(p.begin(), p.end());
    row.push_back(ds.weight(i));
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

// disSS's server union: a source that sent nothing leaves an empty
// piece, wherever it sits in site order.
TEST(Concatenate, SkipsEmptyPartsInOrderWithWeights) {
  Rng rng = make_rng(8);
  const Dataset a(Matrix::gaussian(3, 4, rng), {1.5, 2.0, 0.25});
  const Dataset b(Matrix::gaussian(2, 4, rng), {3.0, 0.5});

  // The width comes from the first non-empty part, on either side.
  for (const std::vector<Dataset>& parts :
       {std::vector<Dataset>{Dataset{}, a}, std::vector<Dataset>{a, Dataset{}}}) {
    const Dataset got = concatenate(parts);
    EXPECT_EQ(got.points(), a.points());
    ASSERT_TRUE(got.is_weighted());
    EXPECT_EQ(*got.weights(), *a.weights());
  }
  const Dataset none = concatenate(std::vector<Dataset>(3));
  EXPECT_EQ(none.size(), 0u);
  EXPECT_EQ(none.dim(), 0u);

  // Rows and weights in operand order, coordinates untouched.
  const Dataset ab = concatenate(std::vector<Dataset>{Dataset{}, a, Dataset{}, b});
  ASSERT_EQ(ab.size(), 5u);
  for (std::size_t i = 0; i < ab.size(); ++i) {
    const Dataset& from = i < 3 ? a : b;
    const std::size_t row = i < 3 ? i : i - 3;
    auto x = ab.point(i);
    auto y = from.point(row);
    EXPECT_TRUE(std::equal(x.begin(), x.end(), y.begin())) << "row " << i;
    EXPECT_EQ(ab.weight(i), from.weight(row)) << "row " << i;
  }
  // Permuting the operands permutes the rows but keeps the weighted row
  // multiset exactly.
  const Dataset ba = concatenate(std::vector<Dataset>{b, a});
  EXPECT_NE(ab.points(), ba.points());
  EXPECT_EQ(weighted_rows(ab), weighted_rows(ba));

  EXPECT_THROW((void)concatenate(std::vector<Dataset>{a, Dataset(Matrix(2, 3))}),
               precondition_error);
  EXPECT_THROW((void)concatenate(std::vector<Dataset>{}), precondition_error);
}

TEST(Generators, GaussianMixtureIsClusterable) {
  Rng rng = make_rng(6);
  GaussianMixtureSpec spec;
  spec.n = 300;
  spec.dim = 8;
  spec.k = 3;
  spec.separation = 30.0;
  spec.noise = 1.0;
  const Dataset d = make_gaussian_mixture(spec, rng);
  // With separation >> noise the k-means cost at k=3 is far below k=1.
  KMeansOptions opts;
  opts.k = 3;
  opts.seed = 11;
  const KMeansResult res = kmeans(d, opts);
  opts.k = 1;
  EXPECT_LT(res.cost, 0.1 * kmeans(d, opts).cost);
}

TEST(Generators, DeterministicGivenSeed) {
  MnistLikeSpec spec;
  spec.n = 50;
  spec.dim = 49;
  Rng rng1 = make_rng(7);
  Rng rng2 = make_rng(7);
  const Dataset a = make_mnist_like(spec, rng1);
  const Dataset b = make_mnist_like(spec, rng2);
  EXPECT_EQ(a.points(), b.points());
}

// The serial MNIST-like generator, kept as the oracle: each row's class
// pick, latent draws, decoder products and pixel noise in one loop.
Dataset mnist_like_serial(const MnistLikeSpec& spec, Rng& rng) {
  const Matrix decoder =
      Matrix::gaussian(spec.latent_dim, spec.dim, rng,
                       1.0 / std::sqrt(static_cast<double>(spec.latent_dim)));
  Matrix class_means =
      Matrix::gaussian(spec.classes, spec.latent_dim, rng, spec.class_separation);

  Matrix pts(spec.n, spec.dim);
  std::normal_distribution<double> latent_noise(0.0, 1.0);
  std::normal_distribution<double> pixel_noise(0.0, 0.05);
  std::uniform_int_distribution<std::size_t> pick(0, spec.classes - 1);
  std::vector<double> z(spec.latent_dim);

  for (std::size_t i = 0; i < spec.n; ++i) {
    const std::size_t c = (i < spec.classes) ? i : pick(rng);
    for (std::size_t l = 0; l < spec.latent_dim; ++l) {
      z[l] = class_means(c, l) + latent_noise(rng);
    }
    auto row = pts.row(i);
    for (std::size_t j = 0; j < spec.dim; ++j) {
      double v = 0.0;
      for (std::size_t l = 0; l < spec.latent_dim; ++l) v += z[l] * decoder(l, j);
      v = 0.5 * (std::tanh(v) + 1.0) + pixel_noise(rng);
      v = std::clamp(v, 0.0, 1.0);
      if (v < 0.12) v = 0.0;
      row[j] = v;
    }
  }

  Dataset out(std::move(pts));
  normalize_zero_mean_unit_range(out);
  return out;
}

// make_mnist_like draws on the calling thread and decodes rows on the
// pool; its bytes, and the state it leaves the caller's generator in,
// are the serial loop's at any pool size. The shapes give a ragged last
// row chunk, a width that is no multiple of the vector length, one latent
// dimension, latent_dim = dim over several latent blocks, and
// n = classes.
TEST(Generators, MnistLikeMatchesSerialReference) {
  struct Shape {
    std::size_t n, dim, classes, latent_dim;
  };
  const Shape shapes[] = {
      {1037, 33, 10, 5}, {300, 33, 4, 1}, {1037, 33, 10, 33}, {10, 40, 10, 8}};
  for (const std::size_t threads : {1u, 4u}) {
    set_parallel_threads(threads);
    for (const Shape& shape : shapes) {
      SCOPED_TRACE(::testing::Message()
                   << threads << " threads, " << shape.n << "x" << shape.dim
                   << ", " << shape.classes << " classes, latent_dim "
                   << shape.latent_dim);
      MnistLikeSpec spec;
      spec.n = shape.n;
      spec.dim = shape.dim;
      spec.classes = shape.classes;
      spec.latent_dim = shape.latent_dim;
      Rng want_rng = make_rng(21);
      Rng got_rng = make_rng(21);
      const Dataset want = mnist_like_serial(spec, want_rng);
      const Dataset got = make_mnist_like(spec, got_rng);
      ASSERT_EQ(got.size(), want.size());
      ASSERT_EQ(got.dim(), want.dim());
      EXPECT_EQ(std::memcmp(got.points().row_ptr(0), want.points().row_ptr(0),
                            shape.n * shape.dim * sizeof(double)),
                0);
      EXPECT_EQ(got_rng(), want_rng());
    }
  }
  set_parallel_threads(0);
}

TEST(Generators, MnistLikeShapeAndNormalization) {
  MnistLikeSpec spec;
  spec.n = 120;
  spec.dim = 196;
  Rng rng = make_rng(8);
  const Dataset d = make_mnist_like(spec, rng);
  EXPECT_EQ(d.size(), 120u);
  EXPECT_EQ(d.dim(), 196u);
  double maxabs = 0.0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    for (double v : d.point(i)) maxabs = std::max(maxabs, std::fabs(v));
  }
  EXPECT_LE(maxabs, 1.0 + 1e-12);
  EXPECT_GT(maxabs, 0.5);  // normalization actually used the range
}

TEST(Generators, MnistLikeHasLowIntrinsicDimension) {
  MnistLikeSpec spec;
  spec.n = 200;
  spec.dim = 144;
  spec.latent_dim = 8;
  Rng rng = make_rng(9);
  const Dataset d = make_mnist_like(spec, rng);
  const Svd svd = truncated_svd(d.points(), std::min(d.size(), d.dim()));
  double total = 0.0;
  for (double s : svd.sigma) total += s * s;
  double top = 0.0;
  for (std::size_t j = 0; j < 24 && j < svd.rank(); ++j) {
    top += svd.sigma[j] * svd.sigma[j];
  }
  // The top ~3x latent_dim components capture nearly all energy.
  EXPECT_GT(top / total, 0.85);
}

TEST(Generators, NeuripsLikeIsSparseNonNegativeBeforeNormalization) {
  NeuripsLikeSpec spec;
  spec.n = 150;
  spec.dim = 400;
  Rng rng = make_rng(10);
  const Dataset d = make_neurips_like(spec, rng);
  EXPECT_EQ(d.size(), 150u);
  EXPECT_EQ(d.dim(), 400u);
  // After zero-mean normalization sparsity shows as many identical
  // values (the shifted zeros) per column; check the mode dominates.
  std::size_t zeros_like = 0;
  const double probe = d.point(0)[0];
  (void)probe;
  for (std::size_t i = 1; i < d.size(); ++i) {
    if (d.point(i)[0] == d.point(0)[0] || std::fabs(d.point(i)[0]) < 1.0) {
      ++zeros_like;
    }
  }
  EXPECT_GT(zeros_like, d.size() / 2);
}

TEST(Loaders, CsvRoundTrip) {
  // Commas and whitespace both separate cells, separator runs collapse,
  // and blank, separator-only and '#' lines are skipped.
  const auto path = std::filesystem::temp_directory_path() / "ekm_test.csv";
  {
    std::ofstream out(path);
    out << "# comment line\n";
    out << "1.5, 2.5, -3\n";
    out << "0, 1e3, 4.25\r\n";
    out << "\n  ,, \n";
    out << "\t4 ,, 5e-1\t,+6\n";
    out << ".25 1E2 -0\n";
  }
  const Dataset d = load_csv(path);
  const Matrix expected{{1.5, 2.5, -3.0},
                        {0.0, 1000.0, 4.25},
                        {4.0, 0.5, 6.0},
                        {0.25, 100.0, -0.0}};
  ASSERT_EQ(d.size(), expected.rows());
  ASSERT_EQ(d.dim(), expected.cols());
  for (std::size_t i = 0; i < expected.rows(); ++i) {
    for (std::size_t j = 0; j < expected.cols(); ++j) {
      EXPECT_EQ(d.point(i)[j], expected(i, j)) << i << "," << j;
    }
  }
  std::filesystem::remove(path);
}

TEST(Loaders, CsvRaggedThrows) {
  const auto path = std::filesystem::temp_directory_path() / "ekm_ragged.csv";
  {
    std::ofstream out(path);
    out << "1, 2\n1, 2, 3\n";
  }
  EXPECT_THROW((void)load_csv(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Loaders, CsvRejectsNonNumericAndNonFiniteCells) {
  // The error names the file, the 1-based row (line) and column, and the
  // token — a nan cell used to surface as a misleading "ragged CSV row",
  // and a non-numeric first cell silently dropped its whole row.
  const auto path = std::filesystem::temp_directory_path() / "ekm_cells.csv";
  const auto expect_rejected = [&](const std::string& content,
                                   const std::string& token,
                                   const std::string& where) {
    {
      std::ofstream out(path);
      out << content;
    }
    try {
      (void)load_csv(path);
      ADD_FAILURE() << "accepted cell '" << token << "'";
    } catch (const precondition_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'" + token + "'"), std::string::npos) << what;
      EXPECT_NE(what.find(path.string()), std::string::npos) << what;
      EXPECT_NE(what.find(where), std::string::npos) << what;
    }
  };
  for (const std::string token : {"nan", "inf", "-inf", "1e999", "abc", "1.5x"}) {
    expect_rejected("# comment\n1,2\n3," + token + "\n", token,
                    "row 3, column 2");
  }
  expect_rejected("x,y\n1,2\n", "x", "row 1, column 1");
  expect_rejected("1,2\nnan,4\n", "nan", "row 2, column 1");
  std::filesystem::remove(path);
}

TEST(Loaders, MissingIdxReturnsNullopt) {
  EXPECT_FALSE(load_idx_images("/nonexistent/file-idx3-ubyte").has_value());
}

TEST(Loaders, IdxRoundTrip) {
  const auto path = std::filesystem::temp_directory_path() / "ekm_test.idx";
  {
    std::ofstream out(path, std::ios::binary);
    const unsigned char header[] = {0, 0, 8, 3,  // magic 0x803
                                    0, 0, 0, 2,  // 2 images
                                    0, 0, 0, 2,  // 2 x 2
                                    0, 0, 0, 2};
    out.write(reinterpret_cast<const char*>(header), sizeof(header));
    const unsigned char pixels[8] = {0, 255, 128, 64, 10, 20, 30, 40};
    out.write(reinterpret_cast<const char*>(pixels), sizeof(pixels));
  }
  const auto d = load_idx_images(path);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->size(), 2u);
  EXPECT_EQ(d->dim(), 4u);
  EXPECT_DOUBLE_EQ(d->point(0)[1], 1.0);
  EXPECT_NEAR(d->point(0)[2], 128.0 / 255.0, 1e-12);
  std::filesystem::remove(path);
}

TEST(Loaders, GenerateFallbacksProduceRequestedShape) {
  Rng rng = make_rng(11);
  const Dataset mnist = load_or_generate_mnist("/nonexistent", 64, rng);
  EXPECT_EQ(mnist.size(), 64u);
  EXPECT_EQ(mnist.dim(), 784u);
  Rng rng2 = make_rng(12);
  const Dataset neurips = load_or_generate_neurips("/nonexistent", 80, 120, rng2);
  EXPECT_EQ(neurips.size(), 80u);
  EXPECT_EQ(neurips.dim(), 120u);
}

}  // namespace
}  // namespace ekm
