// Tests for src/qt: the bit-level rounding quantizer (eq. (13)/(14)) and
// the §6.3 configuration optimizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>

#include "qt/config.hpp"
#include "qt/quantizer.hpp"

namespace ekm {
namespace {

// Measured quantization error max_p ||p - Γ(p)|| over a dataset: the
// exact ∆_QT of §6.1, which the a-priori bound (14) must cover.
double measured_quantization_error(const Dataset& original,
                                   const Dataset& quantized) {
  EKM_EXPECTS(original.size() == quantized.size());
  EKM_EXPECTS(original.dim() == quantized.dim());
  double worst = 0.0;
  for (std::size_t i = 0; i < original.size(); ++i) {
    worst = std::max(
        worst, squared_distance(original.point(i), quantized.point(i)));
  }
  return std::sqrt(worst);
}

TEST(Quantizer, FullPrecisionIsIdentity) {
  const RoundingQuantizer q(52);
  Rng rng = make_rng(60);
  std::uniform_real_distribution<double> unif(-1e6, 1e6);
  for (int i = 0; i < 1000; ++i) {
    const double x = unif(rng);
    EXPECT_EQ(q.quantize(x), x);
  }
}

TEST(Quantizer, SpecialValuesPassThrough) {
  const RoundingQuantizer q(4);
  EXPECT_EQ(q.quantize(0.0), 0.0);
  EXPECT_EQ(q.quantize(-0.0), -0.0);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(q.quantize(inf), inf);
  EXPECT_EQ(q.quantize(-inf), -inf);
  EXPECT_TRUE(std::isnan(q.quantize(std::nan(""))));
}

TEST(Quantizer, ExactlyRepresentableValuesUnchanged) {
  // Values with few significand bits are fixed points of Γ.
  const RoundingQuantizer q(4);
  for (double x : {1.0, -2.0, 0.5, 1.5, 0.75, -1.25, 3.0, 4.0}) {
    EXPECT_EQ(q.quantize(x), x) << x;
  }
}

TEST(Quantizer, KnownRounding) {
  // With s = 1, significand grid is {1.0, 1.5} x 2^e: 1.3 -> 1.5 ulp grid.
  const RoundingQuantizer q(1);
  EXPECT_DOUBLE_EQ(q.quantize(1.3), 1.5);
  EXPECT_DOUBLE_EQ(q.quantize(1.2), 1.0);
  EXPECT_DOUBLE_EQ(q.quantize(-1.3), -1.5);
  // Rounding up across a binade: 1.96 -> 2.0 (carry into exponent).
  EXPECT_DOUBLE_EQ(q.quantize(1.96), 2.0);
}

class QuantizerErrorBound : public ::testing::TestWithParam<int> {};

TEST_P(QuantizerErrorBound, RelativeErrorWithinTwoToMinusS) {
  const int s = GetParam();
  const RoundingQuantizer q(s);
  Rng rng = make_rng(61);
  std::uniform_real_distribution<double> mag(-30.0, 30.0);
  std::uniform_real_distribution<double> mant(1.0, 2.0);
  for (int i = 0; i < 2000; ++i) {
    const double x =
        std::ldexp((i % 2 ? 1.0 : -1.0) * mant(rng), static_cast<int>(mag(rng)));
    const double err = std::fabs(x - q.quantize(x));
    EXPECT_LE(err, std::fabs(x) * std::ldexp(1.0, -s) * (1.0 + 1e-15))
        << "s=" << s << " x=" << x;
  }
}

TEST_P(QuantizerErrorBound, Idempotent) {
  const int s = GetParam();
  const RoundingQuantizer q(s);
  Rng rng = make_rng(62);
  std::uniform_real_distribution<double> unif(-100.0, 100.0);
  for (int i = 0; i < 500; ++i) {
    const double once = q.quantize(unif(rng));
    EXPECT_EQ(q.quantize(once), once);
  }
}

INSTANTIATE_TEST_SUITE_P(Bits, QuantizerErrorBound,
                         ::testing::Values(1, 2, 4, 8, 16, 23, 32, 45, 51));

TEST(Quantizer, ErrorDecreasesWithMoreBits) {
  Rng rng = make_rng(63);
  Matrix pts = Matrix::gaussian(100, 10, rng);
  const Dataset d(std::move(pts));
  double prev = std::numeric_limits<double>::infinity();
  for (int s : {2, 6, 12, 24, 48}) {
    const RoundingQuantizer q(s);
    const double err = measured_quantization_error(d, q.quantize(d));
    EXPECT_LE(err, prev + 1e-18);
    prev = err;
  }
}

TEST(Quantizer, MeasuredErrorWithinAprioriBound) {
  Rng rng = make_rng(64);
  const Dataset d(Matrix::gaussian(200, 16, rng));
  double max_norm = 0.0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    max_norm = std::max(max_norm, norm2(d.point(i)));
  }
  for (int s : {1, 4, 9, 20}) {
    const RoundingQuantizer q(s);
    EXPECT_LE(measured_quantization_error(d, q.quantize(d)),
              q.max_error_bound(max_norm) * (1.0 + 1e-12));
  }
}

TEST(Quantizer, SubnormalsHandled) {
  const RoundingQuantizer q(4);
  const double tiny = std::numeric_limits<double>::denorm_min() * 100;
  const double out = q.quantize(tiny);
  EXPECT_TRUE(std::isfinite(out));
  EXPECT_GE(out, 0.0);
}

TEST(Quantizer, BitsPerScalarAndClamping) {
  EXPECT_EQ(RoundingQuantizer(8).bits_per_scalar(), 20u);
  EXPECT_EQ(RoundingQuantizer(52).bits_per_scalar(), 64u);
  EXPECT_EQ(RoundingQuantizer(-5).significant_bits(), 1);
  EXPECT_EQ(RoundingQuantizer(99).significant_bits(), 52);
}

TEST(Quantizer, DatasetWeightsUntouched) {
  const Dataset d(Matrix{{0.123456789}}, {0.987654321});
  const RoundingQuantizer q(3);
  const Dataset out = q.quantize(d);
  EXPECT_DOUBLE_EQ(out.weight(0), 0.987654321);
  EXPECT_NE(out.point(0)[0], d.point(0)[0]);
}

TEST(QtConfig, ErrorBoundMonotoneInEpsilon) {
  double prev = qt_error_bound(0.0, 0.01);
  for (double e : {0.05, 0.1, 0.2, 0.4}) {
    const double y = qt_error_bound(e, 0.01);
    EXPECT_GT(y, prev);
    prev = y;
  }
  EXPECT_NEAR(qt_error_bound(0.0, 0.25), 1.25, 1e-12);
}

TEST(QtConfig, EnumerationFeasibilityStructure) {
  QtConfigProblem p;
  p.y0 = 1.5;
  p.n = 10000;
  p.d = 784;
  p.opt_cost_lower_bound = 50.0;
  p.max_point_norm = 5.0;
  p.diameter = 2.0;
  const std::vector<QtConfig> configs = enumerate_qt_configs(p);
  ASSERT_FALSE(configs.empty());
  // Feasible s values form a suffix: small s has too much QT error.
  for (std::size_t i = 0; i + 1 < configs.size(); ++i) {
    EXPECT_EQ(configs[i + 1].significant_bits,
              configs[i].significant_bits + 1);
    // ε_QT halves per extra bit.
    EXPECT_NEAR(configs[i].epsilon_qt / configs[i + 1].epsilon_qt, 2.0, 1e-9);
    // More bits leave more room for ε.
    EXPECT_GE(configs[i + 1].epsilon, configs[i].epsilon - 1e-12);
  }
  for (const QtConfig& c : configs) {
    EXPECT_LE(c.error_bound, p.y0 * (1.0 + 1e-9));
    EXPECT_GT(c.epsilon, 0.0);
  }
}

TEST(QtConfig, OptimizerPicksEnumerationMinimum) {
  QtConfigProblem p;
  p.y0 = 1.6;
  p.n = 5000;
  p.d = 500;
  p.opt_cost_lower_bound = 100.0;
  p.max_point_norm = 3.0;
  const auto best = optimize_qt_config(p);
  ASSERT_TRUE(best.has_value());
  for (const QtConfig& c : enumerate_qt_configs(p)) {
    EXPECT_LE(best->modeled_cost_bits, c.modeled_cost_bits + 1e-9);
  }
  // Optimal s is interior: neither 1 nor 52 (the paper's observation (ii)
  // that both extremes are suboptimal).
  EXPECT_GT(best->significant_bits, 1);
  EXPECT_LT(best->significant_bits, 52);
}

TEST(QtConfig, InfeasibleTargetReturnsNullopt) {
  QtConfigProblem p;
  p.y0 = 1.0 + 1e-9;  // essentially exact — impossible with any QT error
  p.n = 100000;
  p.opt_cost_lower_bound = 1e-6;  // huge ε_QT at any s
  p.max_point_norm = 10.0;
  EXPECT_FALSE(optimize_qt_config(p).has_value());
  EXPECT_THROW((void)enumerate_qt_configs(QtConfigProblem{.y0 = 0.9}),
               precondition_error);
}

}  // namespace
}  // namespace ekm
