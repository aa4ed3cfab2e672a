#include "dsp/constellation.h"

#include <gtest/gtest.h>

#include <set>

#include "dsp/require.h"
#include "dsp/stats.h"

namespace ctc::dsp {
namespace {

TEST(PskTest, FourPskIsAxisAligned) {
  const cvec qpsk = make_psk(4);
  ASSERT_EQ(qpsk.size(), 4u);
  EXPECT_NEAR(std::abs(qpsk[0] - cplx(1.0, 0.0)), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(qpsk[1] - cplx(0.0, 1.0)), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(qpsk[2] - cplx(-1.0, 0.0)), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(qpsk[3] - cplx(0.0, -1.0)), 0.0, 1e-12);
}

class ConstellationOrderTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ConstellationOrderTest, PskHasUnitModulusAndDistinctPoints) {
  const cvec points = make_psk(GetParam());
  std::set<std::pair<long, long>> seen;
  for (const cplx& p : points) {
    EXPECT_NEAR(std::abs(p), 1.0, 1e-12);
    seen.insert({std::lround(p.real() * 1e9), std::lround(p.imag() * 1e9)});
  }
  EXPECT_EQ(seen.size(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Orders, ConstellationOrderTest,
                         ::testing::Values(2, 4, 8, 16, 64));

class QamOrderTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(QamOrderTest, UnitAveragePowerAndFullGrid) {
  const cvec points = make_qam(GetParam());
  ASSERT_EQ(points.size(), GetParam());
  EXPECT_NEAR(average_power(points), 1.0, 1e-12);
  std::set<std::pair<long, long>> seen;
  for (const cplx& p : points) {
    seen.insert({std::lround(p.real() * 1e9), std::lround(p.imag() * 1e9)});
  }
  EXPECT_EQ(seen.size(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Orders, QamOrderTest, ::testing::Values(4, 16, 64, 256));

TEST(QamTest, RejectsNonSquareOrders) {
  EXPECT_THROW(make_qam(8), ContractError);
  EXPECT_THROW(make_qam(32), ContractError);
}

class PamOrderTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PamOrderTest, RealAxisUnitPower) {
  const cvec points = make_pam(GetParam());
  ASSERT_EQ(points.size(), GetParam());
  EXPECT_NEAR(average_power(points), 1.0, 1e-12);
  for (const cplx& p : points) EXPECT_DOUBLE_EQ(p.imag(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Orders, PamOrderTest, ::testing::Values(2, 4, 8, 16));

}  // namespace
}  // namespace ctc::dsp
