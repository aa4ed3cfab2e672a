#include "dsp/stats.h"

#include <gtest/gtest.h>

#include "dsp/require.h"

namespace ctc::dsp {
namespace {

TEST(StatsTest, EnergyAndPower) {
  const cvec x = {{3.0, 4.0}, {0.0, 0.0}};
  EXPECT_DOUBLE_EQ(energy(x), 25.0);
  EXPECT_DOUBLE_EQ(average_power(x), 12.5);
  EXPECT_THROW(average_power(cvec{}), ContractError);
}

TEST(StatsTest, NormalizePowerGivesUnitPower) {
  cvec x = {{2.0, 0.0}, {0.0, 2.0}, {1.0, 1.0}};
  const cvec y = normalize_power(x);
  EXPECT_NEAR(average_power(y), 1.0, 1e-12);
  EXPECT_THROW(normalize_power(cvec{{0.0, 0.0}}), ContractError);
}

TEST(StatsTest, NmseZeroForIdenticalSignals) {
  const cvec x = {{1.0, 2.0}, {3.0, -1.0}};
  EXPECT_DOUBLE_EQ(nmse(x, x), 0.0);
}

TEST(StatsTest, NmseOneForZeroTest) {
  const cvec x = {{1.0, 0.0}, {0.0, 1.0}};
  const cvec zero(2, cplx{0.0, 0.0});
  EXPECT_DOUBLE_EQ(nmse(x, zero), 1.0);
}

TEST(StatsTest, NmseChecksPreconditions) {
  const cvec x = {{1.0, 0.0}};
  const cvec y = {{1.0, 0.0}, {2.0, 0.0}};
  EXPECT_THROW(nmse(x, y), ContractError);
  const cvec zero(1, cplx{0.0, 0.0});
  EXPECT_THROW(nmse(zero, x), ContractError);
}

}  // namespace
}  // namespace ctc::dsp
