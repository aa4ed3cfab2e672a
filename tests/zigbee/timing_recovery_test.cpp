// Clock recovery (the "Clock Recovery" block of the paper's Fig. 1).
#include <gtest/gtest.h>

#include "channel/awgn.h"
#include "channel/impairments.h"
#include "dsp/require.h"
#include "dsp/resample.h"
#include "dsp/rng.h"
#include "zigbee/app.h"
#include "zigbee/receiver.h"
#include "zigbee/transmitter.h"

namespace ctc::zigbee {
namespace {

/// The channel's in-place fractional delay, applied to a copy.
cvec delayed_copy(cvec wave, double offset) {
  channel::apply_timing_offset_inplace(wave, offset);
  return wave;
}

TEST(FractionalDelayTest, ZeroDelayIsIdentity) {
  const cvec x = {{1.0, 2.0}, {3.0, -1.0}, {0.5, 0.5}};
  const cvec y = dsp::fractional_delay(x, 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(y[i], x[i]);
}

TEST(FractionalDelayTest, HalfSampleInterpolatesNeighbors) {
  const cvec x = {{0.0, 0.0}, {2.0, 0.0}, {4.0, 0.0}};
  const cvec delayed = dsp::fractional_delay(x, 0.5);
  EXPECT_NEAR(delayed[1].real(), 1.0, 1e-12);  // between x[0] and x[1]
  EXPECT_NEAR(delayed[2].real(), 3.0, 1e-12);
  const cvec advanced = dsp::fractional_delay(x, -0.5);
  EXPECT_NEAR(advanced[0].real(), 1.0, 1e-12);  // between x[0] and x[1]
  EXPECT_NEAR(advanced[1].real(), 3.0, 1e-12);
}

TEST(FractionalDelayTest, DelayThenAdvanceIsNearIdentityForSmoothSignals) {
  dsp::Rng rng(1800);
  // Smooth (oversampled) signal: linear interpolation error is tiny.
  cvec x(200);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double t = static_cast<double>(i) * 0.05;
    x[i] = {std::cos(t), std::sin(t)};
  }
  const cvec round_trip =
      dsp::fractional_delay(dsp::fractional_delay(x, 0.3), -0.3);
  for (std::size_t i = 2; i + 2 < x.size(); ++i) {
    EXPECT_NEAR(std::abs(round_trip[i] - x[i]), 0.0, 0.01);
  }
}

TEST(FractionalDelayTest, RejectsOutOfRangeDelay) {
  const cvec x(4);
  EXPECT_THROW(dsp::fractional_delay(x, 1.5), ContractError);
  EXPECT_THROW(dsp::fractional_delay(x, -1.5), ContractError);
}

TEST(TimingRecoveryTest, EstimatesTheAppliedOffset) {
  Transmitter tx;
  const cvec wave = tx.transmit_frame(make_text_frame(0, 0));
  ReceiverConfig config;
  config.timing_recovery = true;
  const Receiver receiver(config);
  for (double offset : {0.125, 0.25, 0.375}) {
    const cvec delayed = delayed_copy(wave, offset);
    const ReceiveResult result = receiver.receive(delayed);
    ASSERT_TRUE(result.frame_ok()) << "offset " << offset;
    EXPECT_NEAR(result.timing_offset_estimate, offset, 0.08) << offset;
  }
}

TEST(TimingRecoveryTest, AlignedInputEstimatesNearZero) {
  Transmitter tx;
  const cvec wave = tx.transmit_frame(make_text_frame(0, 0));
  ReceiverConfig config;
  config.timing_recovery = true;
  const ReceiveResult result = Receiver(config).receive(wave);
  ASSERT_TRUE(result.frame_ok());
  EXPECT_NEAR(result.timing_offset_estimate, 0.0, 0.07);
}

TEST(TimingRecoveryTest, ReducesChipErrorsUnderOffsetAndNoise) {
  // A near-half-sample timing error costs correlation margin; clock
  // recovery buys it back. Measured on the accumulated Hamming distance of
  // the despread symbols (a finer statistic than frame pass/fail).
  Transmitter tx;
  dsp::Rng rng(1801);
  const cvec wave = tx.transmit_frame(make_text_frame(1, 1));
  ReceiverConfig plain;
  ReceiverConfig recovered;
  recovered.timing_recovery = true;
  const Receiver rx_plain(plain);
  const Receiver rx_recovered(recovered);
  std::size_t plain_distance = 0;
  std::size_t recovered_distance = 0;
  const int trials = 15;
  for (int t = 0; t < trials; ++t) {
    const cvec degraded = channel::add_awgn(
        delayed_copy(wave, 0.45), 4.0, rng);
    for (std::size_t d : rx_plain.receive(degraded).hamming_distances) {
      plain_distance += d;
    }
    for (std::size_t d : rx_recovered.receive(degraded).hamming_distances) {
      recovered_distance += d;
    }
  }
  EXPECT_LT(recovered_distance, plain_distance);
}

TEST(TimingRecoveryTest, DisabledByDefaultAndReportedAsZero) {
  Transmitter tx;
  const cvec wave = tx.transmit_frame(make_text_frame(2, 2));
  const ReceiveResult result = Receiver().receive(
      delayed_copy(wave, 0.3));
  EXPECT_DOUBLE_EQ(result.timing_offset_estimate, 0.0);
  EXPECT_TRUE(result.frame_ok());  // matched filter tolerates 0.3 cleanly
}

}  // namespace
}  // namespace ctc::zigbee
