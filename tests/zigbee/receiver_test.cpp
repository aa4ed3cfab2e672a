#include "zigbee/receiver.h"

#include <gtest/gtest.h>

#include <complex>
#include <span>
#include <string>

#include "channel/awgn.h"
#include "dsp/rng.h"
#include "dsp/stats.h"
#include "zigbee/app.h"
#include "zigbee/chip_sequences.h"
#include "zigbee/transmitter.h"

namespace ctc::zigbee {
namespace {

MacFrame test_frame() { return make_text_frame(7, 3); }

// The waveform times a constant complex gain (a flat channel).
cvec scaled(std::span<const cplx> wave, cplx gain) {
  cvec out(wave.begin(), wave.end());
  for (cplx& sample : out) sample *= gain;
  return out;
}

class ReceiverProfileTest : public ::testing::TestWithParam<DemodKind> {
 protected:
  Receiver make_receiver() const {
    ReceiverConfig config;
    config.profile.demod = GetParam();
    return Receiver(config);
  }
};

TEST_P(ReceiverProfileTest, CleanFrameDecodesEndToEnd) {
  Transmitter tx;
  const MacFrame frame = test_frame();
  const cvec wave = tx.transmit_frame(frame);
  const ReceiveResult result = make_receiver().receive(wave);
  EXPECT_TRUE(result.shr_ok);
  EXPECT_TRUE(result.phr_ok);
  EXPECT_TRUE(result.psdu_complete);
  ASSERT_TRUE(result.mac.has_value());
  EXPECT_TRUE(result.frame_ok());
  EXPECT_EQ(std::string(result.mac->payload.begin(), result.mac->payload.end()), "00007");
  EXPECT_EQ(result.mac->sequence, 3);
  // Clean chips: zero Hamming distance everywhere.
  for (std::size_t d : result.hamming_distances) EXPECT_EQ(d, 0u);
}

TEST_P(ReceiverProfileTest, DecodesUnderModerateNoise) {
  Transmitter tx;
  dsp::Rng rng(60);
  const cvec wave = tx.transmit_frame(test_frame());
  const Receiver receiver = make_receiver();
  int ok = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const cvec noisy = channel::add_awgn(wave, 12.0, rng);
    if (receiver.receive(noisy).frame_ok()) ++ok;
  }
  EXPECT_EQ(ok, 10);
}

TEST_P(ReceiverProfileTest, DecodesUnderGainAndPhaseRotation) {
  Transmitter tx;
  const cvec wave = tx.transmit_frame(test_frame());
  const cvec rotated = scaled(wave, std::polar(0.35, 2.1));
  const ReceiveResult result = make_receiver().receive(rotated);
  EXPECT_TRUE(result.frame_ok());
}

TEST_P(ReceiverProfileTest, TooShortWaveformFlagsFailureWithoutThrowing) {
  Transmitter tx;
  cvec wave = tx.transmit_frame(test_frame());
  wave.resize(100);
  const ReceiveResult result = make_receiver().receive(wave);
  EXPECT_FALSE(result.shr_ok);
  EXPECT_FALSE(result.frame_ok());
}

TEST_P(ReceiverProfileTest, TruncatedPsduFailsPhrStage) {
  Transmitter tx;
  cvec wave = tx.transmit_frame(test_frame());
  wave.resize(wave.size() - 300);  // header survives, PSDU does not fit
  const ReceiveResult result = make_receiver().receive(wave);
  EXPECT_TRUE(result.shr_ok);
  EXPECT_FALSE(result.phr_ok);
  EXPECT_FALSE(result.frame_ok());
}

TEST_P(ReceiverProfileTest, NoiseOnlyInputIsRejected) {
  dsp::Rng rng(61);
  cvec noise(4000);
  for (auto& x : noise) x = rng.complex_gaussian(1.0);
  const ReceiveResult result = make_receiver().receive(noise);
  EXPECT_FALSE(result.frame_ok());
}

INSTANTIATE_TEST_SUITE_P(Demods, ReceiverProfileTest,
                         ::testing::Values(DemodKind::differential,
                                           DemodKind::coherent));

TEST(ReceiverTest, ProfilesExposeExpectedDefaults) {
  const ReceiverProfile usrp = ReceiverProfile::usrp();
  EXPECT_EQ(usrp.demod, DemodKind::differential);
  EXPECT_DOUBLE_EQ(usrp.sensitivity_gain_db, 0.0);
  const ReceiverProfile cc = ReceiverProfile::cc26x2r1();
  EXPECT_EQ(cc.demod, DemodKind::coherent);
  EXPECT_GT(cc.sensitivity_gain_db, 0.0);
}

TEST(ReceiverTest, SoftAndFreqChipTapsCoverPsdu) {
  Transmitter tx;
  const MacFrame frame = test_frame();
  const cvec wave = tx.transmit_frame(frame);
  const ReceiveResult result = Receiver().receive(wave);
  const std::size_t psdu_chips = 2 * frame.serialize().size() * kChipsPerSymbol;
  EXPECT_EQ(result.soft_chips.size(), psdu_chips);
  EXPECT_EQ(result.freq_chips.size(), psdu_chips);
  EXPECT_EQ(result.hard_chips.size(), psdu_chips);
  // Clean link: coherent soft chips sit at +-1, freq chips at +-1.
  for (double v : result.soft_chips) EXPECT_NEAR(std::abs(v), 1.0, 1e-6);
  for (double v : result.freq_chips) EXPECT_NEAR(std::abs(v), 1.0, 1e-6);
}

TEST(ReceiverTest, ChannelEstimateRecoversAppliedGain) {
  Transmitter tx;
  const cvec wave = tx.transmit_frame(test_frame());
  const cplx gain{0.0, 0.5};  // 90 degrees, -6 dB
  const cvec faded = scaled(wave, std::polar(0.5, kPi / 2.0));
  const ReceiveResult result = Receiver().receive(faded);
  EXPECT_NEAR(std::abs(result.channel_estimate - gain), 0.0, 0.01);
}

TEST(ReceiverTest, SnrEstimateTracksTrueSnr) {
  Transmitter tx;
  dsp::Rng rng(66);
  const cvec wave = tx.transmit_frame(test_frame());
  for (double snr_db : {5.0, 10.0, 15.0, 20.0}) {
    double total = 0.0;
    const int trials = 8;
    for (int t = 0; t < trials; ++t) {
      const cvec noisy = channel::add_awgn(wave, snr_db, rng);
      const ReceiveResult result = Receiver().receive(noisy);
      total += result.snr_estimate_db;
    }
    EXPECT_NEAR(total / trials, snr_db, 1.5) << "snr " << snr_db;
  }
}

TEST(ReceiverTest, NoiseEstimateFeedsDefenseCorrection) {
  Transmitter tx;
  dsp::Rng rng(67);
  const cvec wave = tx.transmit_frame(test_frame());
  const cvec noisy = channel::add_awgn(wave, 9.0, rng);
  const ReceiveResult result = Receiver().receive(noisy);
  ASSERT_TRUE(result.phr_ok);
  EXPECT_NEAR(result.noise_variance_estimate, dsp::from_db(-9.0), 0.04);
}

TEST(ReceiverTest, TighterThresholdRejectsDamagedChips) {
  // Corrupt a slice of the PSDU waveform: strict threshold drops the frame,
  // generous threshold still decodes it.
  Transmitter tx;
  cvec wave = tx.transmit_frame(test_frame());
  dsp::Rng rng(65);
  for (std::size_t i = 1600; i < 1640; ++i) wave[i] = rng.complex_gaussian(1.0);
  ReceiverConfig strict;
  strict.profile.correlation_threshold = 2;
  ReceiverConfig generous;
  generous.profile.correlation_threshold = 20;
  EXPECT_FALSE(Receiver(strict).receive(wave).psdu_complete);
  EXPECT_TRUE(Receiver(generous).receive(wave).psdu_complete);
}

}  // namespace
}  // namespace ctc::zigbee
