#include "zigbee/csma.h"

#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "dsp/require.h"
#include "dsp/rng.h"

namespace ctc::zigbee {
namespace {

// A busy-oracle for csma_ca from half-open busy intervals
// [start_us, end_us).
std::function<bool(double)> interval_oracle(
    std::vector<std::pair<double, double>> busy_intervals) {
  return [intervals = std::move(busy_intervals)](double t_us) {
    for (const auto& [start, end] : intervals) {
      if (t_us >= start && t_us < end) return true;
    }
    return false;
  };
}

TEST(CsmaTest, IdleChannelGrantsQuickly) {
  dsp::Rng rng(261);
  const auto result = csma_ca([](double) { return false; }, rng);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.backoffs, 1u);
  // First backoff draws 0..7 slots of 320 us.
  EXPECT_LE(result.delay_us, 7 * 320.0);
}

TEST(CsmaTest, AlwaysBusyChannelFails) {
  dsp::Rng rng(262);
  CsmaConfig config;
  const auto result = csma_ca([](double) { return true; }, rng, config);
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.backoffs, config.max_csma_backoffs + 1);
}

TEST(CsmaTest, WaitsOutABusyBurst) {
  // Busy for the first 3 ms; with up to 5 attempts and growing backoff the
  // sender statistically drains past the burst.
  dsp::Rng rng(263);
  int successes = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const auto result =
        csma_ca(interval_oracle({{0.0, 3000.0}}), rng);
    if (result.success) {
      EXPECT_GE(result.delay_us, 3000.0);
      ++successes;
    }
  }
  EXPECT_GT(successes, 100);
}

TEST(CsmaTest, BackoffGrowsWithCongestion) {
  // Expected delay on failure grows with each attempt (BE escalation).
  dsp::Rng rng(264);
  double total_delay = 0.0;
  const int trials = 500;
  for (int t = 0; t < trials; ++t) {
    total_delay += csma_ca([](double) { return true; }, rng).delay_us;
  }
  // Sum of expected slots: (2^3-1)/2 + (2^4-1)/2 + (2^5-1)/2 *3 = 3.5+7.5+15.5*3
  const double expected_slots = 3.5 + 7.5 + 15.5 * 3;
  EXPECT_NEAR(total_delay / trials, expected_slots * 320.0,
              0.15 * expected_slots * 320.0);
}

TEST(CsmaTest, RespectsConfigBounds) {
  dsp::Rng rng(265);
  CsmaConfig config;
  config.mac_min_be = 6;
  config.mac_max_be = 5;
  EXPECT_THROW(csma_ca([](double) { return false; }, rng, config), ContractError);
}

TEST(IntervalOracleTest, HalfOpenSemantics) {
  const auto oracle = interval_oracle({{10.0, 20.0}, {30.0, 40.0}});
  EXPECT_FALSE(oracle(9.9));
  EXPECT_TRUE(oracle(10.0));
  EXPECT_TRUE(oracle(19.9));
  EXPECT_FALSE(oracle(20.0));
  EXPECT_TRUE(oracle(35.0));
  EXPECT_FALSE(oracle(50.0));
}

}  // namespace
}  // namespace ctc::zigbee
