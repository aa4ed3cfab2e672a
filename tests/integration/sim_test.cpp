// Unit tests for the sim layer itself: metrics arithmetic, table rendering,
// link determinism and defense-run bookkeeping.
#include <gtest/gtest.h>

#include <sstream>

#include "sim/defense_run.h"
#include "sim/link.h"
#include "sim/metrics.h"
#include "sim/table.h"
#include "zigbee/app.h"

#include "serial_trials.h"

namespace ctc::sim {
namespace {

TEST(LinkStatsTest, RatesComputeFromCounters) {
  LinkStats stats;
  FrameObservation good;
  good.success = true;
  good.symbols_sent = 10;
  good.symbol_errors = 0;
  FrameObservation bad;
  bad.success = false;
  bad.symbols_sent = 10;
  bad.symbol_errors = 4;
  bad.rx.hamming_distances = {3, 3, 7};
  stats.add(good);
  stats.add(bad);
  EXPECT_EQ(stats.frames_sent, 2u);
  EXPECT_EQ(stats.frames_ok, 1u);
  EXPECT_DOUBLE_EQ(stats.packet_error_rate(), 0.5);
  EXPECT_DOUBLE_EQ(stats.success_rate(), 0.5);
  EXPECT_DOUBLE_EQ(stats.symbol_error_rate(), 0.2);
  EXPECT_EQ(stats.hamming_histogram.at(3), 2u);
  EXPECT_EQ(stats.hamming_histogram.at(7), 1u);
}

TEST(TableTest, RendersAlignedMarkdown) {
  Table table({"a", "long header"});
  table.add_row({"xx", "1"});
  std::ostringstream out;
  table.print(out);
  const std::string expected =
      "| a  | long header |\n"
      "|----|-------------|\n"
      "| xx | 1           |\n";
  EXPECT_EQ(out.str(), expected);
}

TEST(TableTest, NumberFormattingHelpers) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
  EXPECT_EQ(Table::percent(0.423), "42.3%");
  EXPECT_EQ(Table::percent(1.0, 0), "100%");
}

TEST(LinkTest, SendIsDeterministicGivenSeed) {
  LinkConfig config;
  config.environment = channel::Environment::awgn(8.0);
  const Link link(config);
  const auto frame = zigbee::make_text_frame(9, 9);
  dsp::Rng rng_a(77);
  dsp::Rng rng_b(77);
  const auto a = link.send(frame, rng_a);
  const auto b = link.send(frame, rng_b);
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.symbol_errors, b.symbol_errors);
  ASSERT_EQ(a.rx.freq_chips.size(), b.rx.freq_chips.size());
  for (std::size_t i = 0; i < a.rx.freq_chips.size(); ++i) {
    EXPECT_EQ(a.rx.freq_chips[i], b.rx.freq_chips[i]);
  }
}

TEST(LinkTest, SensitivityGainRaisesEffectiveSnr) {
  // Same noisy channel: the CC26x2R1's +6 dB bonus must help at an SNR
  // where the baseline profile fails.
  dsp::Rng rng_a(78);
  dsp::Rng rng_b(78);
  const auto frames = zigbee::make_text_workload(5);
  LinkConfig weak;
  weak.environment = channel::Environment::awgn(-1.0);
  weak.profile = zigbee::ReceiverProfile::usrp();
  LinkConfig boosted = weak;
  boosted.profile.sensitivity_gain_db = 10.0;
  const auto weak_stats = test::run_frames(Link(weak), frames, 15, rng_a);
  const auto boosted_stats = test::run_frames(Link(boosted), frames, 15, rng_b);
  EXPECT_GT(boosted_stats.success_rate(), weak_stats.success_rate());
}

TEST(DefenseRunTest, SkipsFramesWithoutChips) {
  dsp::Rng rng(79);
  LinkConfig config;
  config.environment = channel::Environment::awgn(-20.0);  // nothing decodes
  const auto frames = zigbee::make_text_workload(3);
  defense::Detector detector;
  const auto samples =
      test::collect_defense_samples(Link(config), frames, 5, detector, rng);
  EXPECT_EQ(samples.frames_used, 0u);
  EXPECT_EQ(samples.frames_skipped, 5u);
  EXPECT_TRUE(samples.distances.empty());
}

TEST(DefenseRunTest, AggregatesMatchCollectedValues) {
  dsp::Rng rng(80);
  LinkConfig config;
  config.environment = channel::Environment::awgn(15.0);
  const auto frames = zigbee::make_text_workload(4);
  defense::Detector detector;
  const auto samples =
      test::collect_defense_samples(Link(config), frames, 8, detector, rng);
  ASSERT_EQ(samples.frames_used, 8u);
  ASSERT_EQ(samples.distances.size(), 8u);
  ASSERT_EQ(samples.c40.size(), 8u);
  ASSERT_EQ(samples.c42.size(), 8u);
  double total = 0.0;
  double low = 1e300;
  double high = -1e300;
  for (double d : samples.distances) {
    total += d;
    low = std::min(low, d);
    high = std::max(high, d);
  }
  EXPECT_DOUBLE_EQ(samples.mean_distance(), total / 8.0);
  EXPECT_DOUBLE_EQ(samples.min_distance(), low);
  EXPECT_DOUBLE_EQ(samples.max_distance(), high);
}

TEST(DefenseRunTest, TapSelectionChangesTheFeatures) {
  dsp::Rng rng_a(81);
  dsp::Rng rng_b(81);
  LinkConfig config;
  config.kind = LinkKind::emulated;
  config.environment = channel::Environment::awgn(15.0);
  const auto frames = zigbee::make_text_workload(3);
  defense::Detector detector;
  const Link link(config);
  const auto disc = test::collect_defense_samples(link, frames, 3, detector, rng_a,
                                            DefenseTap::discriminator);
  const auto coh = test::collect_defense_samples(link, frames, 3, detector, rng_b,
                                           DefenseTap::coherent);
  ASSERT_FALSE(disc.distances.empty());
  ASSERT_FALSE(coh.distances.empty());
  // The discriminator tap sees far more distortion on the attack link.
  EXPECT_GT(disc.mean_distance(), 3.0 * coh.mean_distance());
}

}  // namespace
}  // namespace ctc::sim
