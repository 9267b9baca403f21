// Unit tests for streaming statistics and confidence intervals.
#include <gtest/gtest.h>

#include <cmath>

#include "stats/confidence.hpp"
#include "stats/summary.hpp"

namespace {

using namespace pbxcap;
using stats::Summary;

TEST(SummaryTest, BasicMoments) {
  Summary s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.variance_population(), 4.0, 1e-12);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.sum(), 40.0, 1e-12);
}

TEST(SummaryTest, EmptyIsSafe) {
  const Summary s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stderr_mean(), 0.0);
}

TEST(SummaryTest, MergeEqualsPooled) {
  Summary a;
  Summary b;
  Summary pooled;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i) * 10.0;
    (i % 2 == 0 ? a : b).add(x);
    pooled.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), pooled.count());
  EXPECT_NEAR(a.mean(), pooled.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), pooled.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), pooled.min());
  EXPECT_DOUBLE_EQ(a.max(), pooled.max());
}

TEST(SummaryTest, MergeWithEmpty) {
  Summary a;
  a.add(1.0);
  Summary b;
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

TEST(ConfidenceTest, IncompleteBetaEdges) {
  EXPECT_DOUBLE_EQ(stats::incomplete_beta(2.0, 3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(stats::incomplete_beta(2.0, 3.0, 1.0), 1.0);
  // I_x(1,1) = x (uniform).
  EXPECT_NEAR(stats::incomplete_beta(1.0, 1.0, 0.37), 0.37, 1e-10);
}

TEST(ConfidenceTest, StudentTCdfSymmetry) {
  EXPECT_NEAR(stats::student_t_cdf(0.0, 5.0), 0.5, 1e-12);
  EXPECT_NEAR(stats::student_t_cdf(2.0, 7.0) + stats::student_t_cdf(-2.0, 7.0), 1.0, 1e-10);
}

TEST(ConfidenceTest, CriticalValuesMatchTables) {
  // Standard t-table values (two-sided, 95%).
  EXPECT_NEAR(stats::student_t_critical(1, 0.95), 12.706, 0.01);
  EXPECT_NEAR(stats::student_t_critical(5, 0.95), 2.571, 0.01);
  EXPECT_NEAR(stats::student_t_critical(30, 0.95), 2.042, 0.01);
  // Large dof converges to the normal z = 1.96.
  EXPECT_NEAR(stats::student_t_critical(100000, 0.95), 1.960, 0.005);
}

TEST(ConfidenceTest, MeanConfidenceCoversKnownCase) {
  Summary s;
  for (const double x : {4.8, 5.1, 4.9, 5.2, 5.0}) s.add(x);
  const auto ci = stats::mean_confidence(s, 0.95);
  EXPECT_LT(ci.lo, 5.0);
  EXPECT_GT(ci.hi, 5.0);
  EXPECT_TRUE(ci.contains(s.mean()));
  EXPECT_GT(ci.half_width(), 0.0);
}

TEST(ConfidenceTest, SingleSampleDegenerates) {
  Summary s;
  s.add(3.0);
  const auto ci = stats::mean_confidence(s);
  EXPECT_DOUBLE_EQ(ci.lo, 3.0);
  EXPECT_DOUBLE_EQ(ci.hi, 3.0);
}

TEST(ConfidenceTest, WilsonProportion) {
  const auto ci = stats::proportion_confidence(10, 100, 0.95);
  EXPECT_GT(ci.lo, 0.04);
  EXPECT_LT(ci.hi, 0.18);
  EXPECT_TRUE(ci.contains(0.1));
  const auto zero = stats::proportion_confidence(0, 50);
  EXPECT_DOUBLE_EQ(std::max(zero.lo, 0.0), zero.lo >= 0 ? zero.lo : 0.0);
  EXPECT_GT(zero.hi, 0.0);
  EXPECT_THROW((void)stats::proportion_confidence(5, 3), std::invalid_argument);
}

}  // namespace
