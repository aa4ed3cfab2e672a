// Tests for the coexistence extension (background WiFi interference) and
// the full-RF attack path through carrier allocation.
#include <gtest/gtest.h>

#include <cmath>

#include "defense/detector.h"
#include "dsp/stats.h"
#include "sim/interference.h"
#include "sim/link.h"
#include "sim/metrics.h"
#include "zigbee/app.h"
#include "zigbee/receiver.h"

#include "serial_trials.h"

namespace ctc::sim {
namespace {

TEST(InterferenceTest, PowerMatchesRequestedSir) {
  dsp::Rng rng(300);
  zigbee::Transmitter tx;
  const cvec signal = tx.transmit_frame(zigbee::make_text_frame(0, 0));
  WifiInterferenceConfig config;
  config.sir_db = 10.0;
  config.duty_cycle = 1.0;  // always on, so the power measurement is exact
  const cvec polluted = add_wifi_interference(signal, config, rng);
  cvec interference(signal.size());
  for (std::size_t i = 0; i < signal.size(); ++i) {
    interference[i] = polluted[i] - signal[i];
  }
  const double sir = dsp::average_power(signal) / dsp::average_power(interference);
  EXPECT_NEAR(10.0 * std::log10(sir), 10.0, 1.5);
}

TEST(InterferenceTest, ZeroDutyCycleIsTransparent) {
  dsp::Rng rng(301);
  zigbee::Transmitter tx;
  const cvec signal = tx.transmit_frame(zigbee::make_text_frame(0, 0));
  WifiInterferenceConfig config;
  config.duty_cycle = 0.0;
  const cvec untouched = add_wifi_interference(signal, config, rng);
  for (std::size_t i = 0; i < signal.size(); ++i) {
    EXPECT_EQ(untouched[i], signal[i]);
  }
}

TEST(InterferenceTest, MildInterferenceDoesNotBreakDecoding) {
  dsp::Rng rng(302);
  zigbee::Transmitter tx;
  const zigbee::MacFrame frame = zigbee::make_text_frame(3, 3);
  const cvec signal = tx.transmit_frame(frame);
  WifiInterferenceConfig config;
  config.sir_db = 15.0;
  int decoded = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const cvec polluted = add_wifi_interference(signal, config, rng);
    if (zigbee::Receiver().receive(polluted).frame_ok()) ++decoded;
  }
  EXPECT_EQ(decoded, 10);  // DSSS absorbs 15 dB SIR easily
}

TEST(InterferenceTest, SevereInterferenceBreaksDecoding) {
  dsp::Rng rng(303);
  zigbee::Transmitter tx;
  const cvec signal = tx.transmit_frame(zigbee::make_text_frame(3, 3));
  WifiInterferenceConfig config;
  config.sir_db = -10.0;
  config.duty_cycle = 1.0;
  int decoded = 0;
  for (int trial = 0; trial < 5; ++trial) {
    const cvec polluted = add_wifi_interference(signal, config, rng);
    if (zigbee::Receiver().receive(polluted).frame_ok()) ++decoded;
  }
  EXPECT_LT(decoded, 3);
}

TEST(RfPathLinkTest, AttackThroughCarrierAllocationStillControls) {
  dsp::Rng rng(304);
  LinkConfig config;
  config.kind = LinkKind::emulated;
  config.attack_via_rf = true;
  config.environment = channel::Environment::awgn(17.0);
  const auto frames = zigbee::make_text_workload(5);
  const LinkStats stats = test::run_frames(Link(config), frames, 10, rng);
  EXPECT_GE(stats.success_rate(), 0.9);
}

TEST(RfPathLinkTest, RfAndBasebandPathsAgreeClosely) {
  // The carrier-allocation + mixing path is mathematically equivalent to
  // the common-baseband shortcut (the per-block phase ramps cancel); the
  // only difference is the front-end filter. NMSE between them is tiny.
  LinkConfig baseband;
  baseband.kind = LinkKind::emulated;
  LinkConfig rf = baseband;
  rf.attack_via_rf = true;
  const auto frame = zigbee::make_text_frame(7, 7);
  const cvec a = Link(baseband).clean_waveform(frame);
  const cvec b = Link(rf).clean_waveform(frame);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_LT(dsp::nmse(a, b), 0.01);
}

TEST(RfPathLinkTest, DefenseStillCatchesTheRfAttack) {
  dsp::Rng rng(305);
  LinkConfig config;
  config.kind = LinkKind::emulated;
  config.attack_via_rf = true;
  config.environment = channel::Environment::awgn(17.0);
  const Link link(config);
  const auto observation = link.send(zigbee::make_text_frame(1, 1), rng);
  ASSERT_GE(observation.rx.freq_chips.size(), 8u);
  defense::Detector detector;
  EXPECT_GT(detector.classify(observation.rx.freq_chips).distance_sq, 0.2);
}

}  // namespace
}  // namespace ctc::sim
