// Tests for src/common: contracts, statistics, serialization, RNG streams,
// alias-method sampling.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "common/expects.hpp"
#include "common/parse_num.hpp"
#include "common/rng.hpp"
#include "common/sampling.hpp"
#include "common/serial.hpp"
#include "common/stats.hpp"

namespace ekm {
namespace {

TEST(Expects, ViolatedPreconditionThrows) {
  EXPECT_THROW(EKM_EXPECTS(1 == 2), precondition_error);
  EXPECT_THROW(EKM_EXPECTS_MSG(false, "boom"), precondition_error);
  EXPECT_NO_THROW(EKM_EXPECTS(2 == 2));
}

TEST(Expects, ViolatedInvariantThrows) {
  EXPECT_THROW(EKM_ENSURES(false), invariant_error);
  EXPECT_NO_THROW(EKM_ENSURES(true));
}

TEST(Expects, MessageNamesLocation) {
  try {
    EKM_EXPECTS_MSG(false, "context info");
    FAIL() << "should have thrown";
  } catch (const precondition_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("context info"), std::string::npos);
    EXPECT_NE(what.find("test_common.cpp"), std::string::npos);
  }
}

TEST(ParseNum, DoubleOverflowInfNanRegressionTable) {
  // Regression for the ERANGE hole: "1e999" used to parse as +inf with
  // errno never checked, silently turning a typo'd finite value into
  // wait-forever/always-true semantics downstream. The policy table:
  //   * finite-looking overflow  -> rejected
  //   * explicit inf / nan       -> parsed (range checks decide per key)
  //   * underflow to 0/denormal  -> parsed (representable magnitude)
  struct Row {
    const char* token;
    bool accepted;
  };
  const Row rows[] = {
      {"1e999", false},   {"-1e999", false},   {"1e99999", false},
      {"2e308", false},   {"-1.8e308", false},
      {"1e308", true},    {"-1e308", true},    {"0.5", true},
      {"1e-3", true},     {"1e-320", true},    {"1e-999", true},
      {"inf", true},      {"+inf", true},      {"-inf", true},
      {"infinity", true}, {"nan", true},       {"-nan", true},
      {"", false},        {"1e", false},       {"0.1x", false},
  };
  for (const Row& row : rows) {
    const auto v = parse_full_double(row.token);
    EXPECT_EQ(v.has_value(), row.accepted) << "token '" << row.token << "'";
  }
  // The accepted non-finite tokens really are inf/nan (not clamped).
  EXPECT_TRUE(std::isinf(*parse_full_double("inf")));
  EXPECT_TRUE(std::isinf(*parse_full_double("-inf")));
  EXPECT_TRUE(std::isnan(*parse_full_double("nan")));
  // Underflow keeps its (tiny or zero) magnitude instead of erroring.
  EXPECT_GE(*parse_full_double("1e-320"), 0.0);
  EXPECT_EQ(*parse_full_double("1e-999"), 0.0);
}

TEST(ParseNum, IntegerRangeRegressionTable) {
  // The integer parsers already checked ERANGE; pin the behavior so the
  // double fix cannot regress them.
  EXPECT_EQ(parse_full_ll("9223372036854775807").value_or(0),
            9223372036854775807LL);
  EXPECT_FALSE(parse_full_ll("9223372036854775808").has_value());
  EXPECT_FALSE(parse_full_ll("-9223372036854775809").has_value());
  EXPECT_FALSE(parse_full_ll("2.5").has_value());
  EXPECT_EQ(parse_full_ull("18446744073709551615").value_or(0),
            18446744073709551615ULL);
  EXPECT_FALSE(parse_full_ull("18446744073709551616").has_value());
  EXPECT_FALSE(parse_full_ull("-1").has_value());  // no wraparound
}

TEST(Stats, SummarizeBasics) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.n, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  EXPECT_NEAR(s.stddev, std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Stats, SummarizeEmptyAndSingleton) {
  EXPECT_EQ(summarize({}).n, 0u);
  const std::vector<double> one{7.0};
  const Summary s = summarize(one);
  EXPECT_DOUBLE_EQ(s.mean, 7.0);
  EXPECT_DOUBLE_EQ(s.median, 7.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Stats, QuantileInterpolates) {
  const std::vector<double> xs{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 10.0);
  EXPECT_THROW((void)quantile(std::vector<double>{}, 0.5), precondition_error);
  EXPECT_THROW((void)quantile(xs, 1.5), precondition_error);
}

TEST(Stats, EmpiricalCdfIsAStaircase) {
  const std::vector<double> xs{3.0, 1.0, 2.0, 2.0};
  const EmpiricalCdf cdf = empirical_cdf(xs);
  EXPECT_EQ(cdf.x, (std::vector<double>{1.0, 2.0, 2.0, 3.0}));
  EXPECT_EQ(cdf.p, (std::vector<double>{0.25, 0.5, 0.75, 1.0}));
}

TEST(Stats, FormatCdfSubsamples) {
  std::vector<double> xs(100);
  for (std::size_t i = 0; i < xs.size(); ++i) xs[i] = static_cast<double>(i);
  const std::string text = format_cdf(empirical_cdf(xs), 10);
  // At most ~11 rows (10 strided + final).
  EXPECT_LE(std::count(text.begin(), text.end(), '\n'), 12);
}

TEST(Serial, RoundTripPrimitives) {
  ByteWriter w;
  w.put_u32(42);
  w.put_u64(1ull << 40);
  w.put_f64(-3.25);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_u32(), 42u);
  EXPECT_EQ(r.get_u64(), 1ull << 40);
  EXPECT_DOUBLE_EQ(r.get_f64(), -3.25);
  EXPECT_TRUE(r.exhausted());
}

TEST(Serial, RoundTripDoubleSpan) {
  const std::vector<double> vals{1.0, -2.5, 1e308, 5e-324, 0.0};
  ByteWriter w;
  w.put_doubles(vals);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_doubles(), vals);
}

TEST(Serial, OverrunThrows) {
  ByteWriter w;
  w.put_u32(1);
  ByteReader r(w.bytes());
  (void)r.get_u32();
  EXPECT_THROW((void)r.get_u64(), precondition_error);
}

TEST(Serial, CorruptLengthThrows) {
  ByteWriter w;
  w.put_u64(1000);  // claims 1000 doubles, provides none
  ByteReader r(w.bytes());
  EXPECT_THROW((void)r.get_doubles(), precondition_error);
}

TEST(Rng, DerivedStreamsAreDeterministic) {
  Rng a = make_rng(123, 5);
  Rng b = make_rng(123, 5);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentStreamsDecorrelate) {
  Rng a = make_rng(123, 0);
  Rng b = make_rng(123, 1);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a() == b());
  EXPECT_EQ(equal, 0);
}

TEST(Rng, SequentialMasterSeedsDecorrelate) {
  // splitmix finalization should prevent seed=1/seed=2 correlation.
  std::set<std::uint64_t> firsts;
  for (std::uint64_t s = 0; s < 32; ++s) firsts.insert(make_rng(s)());
  EXPECT_EQ(firsts.size(), 32u);
}

TEST(AliasTable, MatchesTargetDistribution) {
  const std::vector<double> weights{1.0, 2.0, 3.0, 4.0};
  const AliasTable table(weights);
  EXPECT_DOUBLE_EQ(table.total_weight(), 10.0);

  Rng rng = make_rng(800);
  std::vector<std::size_t> counts(4, 0);
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) ++counts[table.sample(rng)];
  for (std::size_t j = 0; j < 4; ++j) {
    const double expected = weights[j] / 10.0;
    const double observed = static_cast<double>(counts[j]) / draws;
    EXPECT_NEAR(observed, expected, 0.01) << "bucket " << j;
  }
}

TEST(AliasTable, ZeroWeightNeverSampled) {
  const std::vector<double> weights{0.0, 1.0, 0.0, 1.0};
  const AliasTable table(weights);
  Rng rng = make_rng(801);
  for (int i = 0; i < 5000; ++i) {
    const std::size_t s = table.sample(rng);
    EXPECT_TRUE(s == 1 || s == 3);
  }
}

TEST(AliasTable, SingletonAndValidation) {
  const std::vector<double> one{5.0};
  const AliasTable table(one);
  Rng rng = make_rng(802);
  EXPECT_EQ(table.sample(rng), 0u);
  EXPECT_THROW(AliasTable(std::vector<double>{}), precondition_error);
  EXPECT_THROW(AliasTable(std::vector<double>{0.0, 0.0}), precondition_error);
  EXPECT_THROW(AliasTable(std::vector<double>{-1.0, 2.0}), precondition_error);
}

TEST(AliasTable, ExtremeWeightRatios) {
  // 1e12 : 1 ratio — the heavy index must dominate without starving the
  // light one entirely across many draws.
  const std::vector<double> weights{1e12, 1.0};
  const AliasTable table(weights);
  Rng rng = make_rng(803);
  std::size_t heavy = 0;
  for (int i = 0; i < 10000; ++i) heavy += (table.sample(rng) == 0);
  EXPECT_GE(heavy, 9990u);
}

}  // namespace
}  // namespace ekm
