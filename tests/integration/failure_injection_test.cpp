// Failure injection: malformed inputs, degenerate channels and corrupted
// waveforms must produce flagged failures or contract errors — never crashes
// or silent wrong answers.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "attack/emulator.h"
#include "defense/detector.h"
#include "dsp/require.h"
#include "sim/defense_run.h"
#include "sim/link.h"
#include "sim/metrics.h"
#include "sim/table.h"
#include "zigbee/app.h"
#include "zigbee/receiver.h"
#include "zigbee/transmitter.h"

#include "serial_trials.h"

namespace ctc {
namespace {

TEST(FailureInjectionTest, ReceiverSurvivesAllZeroInput) {
  const cvec zeros(5000, cplx{0.0, 0.0});
  const auto result = zigbee::Receiver().receive(zeros);
  EXPECT_FALSE(result.frame_ok());
}

TEST(FailureInjectionTest, ReceiverSurvivesDcOnlyInput) {
  const cvec dc(5000, cplx{1.0, 0.0});
  const auto result = zigbee::Receiver().receive(dc);
  EXPECT_FALSE(result.frame_ok());
}

TEST(FailureInjectionTest, ReceiverSurvivesSaturatedInput) {
  dsp::Rng rng(210);
  cvec loud(5000);
  for (auto& x : loud) x = 1e6 * rng.complex_gaussian(1.0);
  EXPECT_FALSE(zigbee::Receiver().receive(loud).frame_ok());
}

TEST(FailureInjectionTest, CorruptedPhrLengthFieldIsHandled) {
  // Destroy the PHR region: the receiver must fail at the PHR stage
  // rather than read a bogus length.
  zigbee::Transmitter tx;
  cvec wave = tx.transmit_frame(zigbee::make_text_frame(0, 0));
  dsp::Rng rng(211);
  const std::size_t phr_start = 10 * 32 * 2;  // after SHR
  for (std::size_t i = phr_start; i < phr_start + 128; ++i) {
    wave[i] = rng.complex_gaussian(1.0);
  }
  const auto result = zigbee::Receiver().receive(wave);
  EXPECT_TRUE(result.shr_ok);
  // Either the PHR fails outright, or a wrong length fails downstream.
  EXPECT_FALSE(result.frame_ok());
}

TEST(FailureInjectionTest, MidFrameDropoutFailsCrcNotCrash) {
  zigbee::Transmitter tx;
  cvec wave = tx.transmit_frame(zigbee::make_text_frame(0, 0));
  // Zero out a chunk of PSDU.
  for (std::size_t i = 2000; i < 2300 && i < wave.size(); ++i) wave[i] = {0.0, 0.0};
  const auto result = zigbee::Receiver().receive(wave);
  EXPECT_FALSE(result.frame_ok());
}

TEST(FailureInjectionTest, EmulatorHandlesShortOddLengthInput) {
  attack::WaveformEmulator emulator;
  dsp::Rng rng(212);
  cvec tiny(33);
  for (auto& x : tiny) x = rng.complex_gaussian(1.0);
  const auto result = emulator.emulate(tiny);
  EXPECT_EQ(result.emulated_4mhz.size(), tiny.size());
  EXPECT_FALSE(result.symbol_grids.empty());
}

TEST(FailureInjectionTest, EmulatorOnPureNoiseStillProducesLegalStructure) {
  attack::WaveformEmulator emulator;
  dsp::Rng rng(213);
  cvec noise(800);
  for (auto& x : noise) x = rng.complex_gaussian(1.0);
  const auto result = emulator.emulate(noise);
  // The output still consists of valid CP-prefixed WiFi symbols.
  const cvec& wifi = result.wifi_waveform_20mhz;
  for (std::size_t start = 0; start + 80 <= wifi.size(); start += 80) {
    for (std::size_t i = 0; i < 16; ++i) {
      EXPECT_NEAR(std::abs(wifi[start + i] - wifi[start + 64 + i]), 0.0, 1e-12);
    }
  }
}

// One non-finite sample would make every scale-search cost NaN, which
// silently pinned alpha to the search floor; the emulator refuses the frame.
TEST(FailureInjectionTest, EmulatorRejectsANanSample) {
  cvec frame = zigbee::Transmitter().transmit_frame(zigbee::make_text_frame(0, 0));
  frame[100] = cplx{std::nan(""), 0.0};
  EXPECT_THROW(attack::WaveformEmulator().emulate(frame), ContractError);
}

TEST(FailureInjectionTest, EmulatorRejectsAnInfSample) {
  cvec frame = zigbee::Transmitter().transmit_frame(zigbee::make_text_frame(0, 0));
  frame[100] = cplx{0.0, -std::numeric_limits<double>::infinity()};
  EXPECT_THROW(attack::WaveformEmulator().emulate(frame), ContractError);
}

TEST(FailureInjectionTest, DetectorRejectsTinySamples) {
  defense::Detector detector;
  EXPECT_THROW(detector.classify(rvec{1.0, -1.0}), ContractError);
}

TEST(FailureInjectionTest, DetectorHandlesConstantChips) {
  // All-identical chips: C21 > 0 so cumulants are defined; must classify
  // (as attack: a constant is nothing like QPSK) without crashing.
  defense::Detector detector;
  const rvec constant(256, 1.0);
  const auto verdict = detector.classify(constant);
  EXPECT_TRUE(verdict.is_attack);
}

TEST(FailureInjectionTest, DetectorThrowsOnAllZeroChips) {
  defense::Detector detector;
  const rvec zeros(256, 0.0);
  EXPECT_THROW(detector.classify(zeros), ContractError);  // zero power
}

TEST(FailureInjectionTest, StatsRequireTraffic) {
  sim::LinkStats stats;
  EXPECT_THROW(stats.packet_error_rate(), ContractError);
  EXPECT_THROW(stats.symbol_error_rate(), ContractError);
}

TEST(FailureInjectionTest, DefenseSamplesRequireFrames) {
  sim::DefenseSamples samples;
  EXPECT_THROW(samples.mean_distance(), ContractError);
  EXPECT_THROW(samples.max_distance(), ContractError);
}

TEST(FailureInjectionTest, RunFramesRequiresWorkload) {
  sim::TrialEngine engine({214, 1});
  sim::LinkConfig config;
  const sim::Link link(config);
  EXPECT_THROW(sim::run_frames(link, {}, 5, engine), ContractError);
}

TEST(FailureInjectionTest, TableRejectsMalformedRows) {
  sim::Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only one"}), ContractError);
  EXPECT_THROW(sim::Table({}), ContractError);
}

TEST(FailureInjectionTest, DeepFadeFramesAreCountedNotCrashed) {
  // Rayleigh fading with no LoS at long distance: many frames die; the
  // harness accounts for every one.
  dsp::Rng rng(215);
  sim::LinkConfig config;
  config.environment = channel::Environment::real_world(8.0);
  config.environment.rician_k_factor = 0.0;  // pure Rayleigh
  const auto frames = zigbee::make_text_workload(5);
  const auto stats = test::run_frames(sim::Link(config), frames, 20, rng);
  EXPECT_EQ(stats.frames_sent, 20u);
  EXPECT_LE(stats.frames_ok, 20u);
}

}  // namespace
}  // namespace ctc
