// Equivalence suite for the receiver's timing-search grid.
//
// Receiver builds every shifted SHR reference once, at construction. The
// oracle here re-derives them per call from public pieces — the SHR
// reference of a Transmitter without power normalization, dsp::
// fractional_delay and the active kernel table's energy/dot_conj — then
// retimes the capture by the winning tau and decodes it with a receiver
// that has timing recovery off. Same tau sequence, same summation order,
// so the contract is bitwise: every field of every ReceiveResult must
// match.
#include <gtest/gtest.h>

#include <cmath>

#include "channel/environment.h"
#include "channel/impairments.h"
#include "dsp/kernels/kernels.h"
#include "dsp/resample.h"
#include "dsp/rng.h"
#include "zigbee/app.h"
#include "zigbee/chip_sequences.h"
#include "zigbee/frame.h"
#include "zigbee/receiver.h"
#include "zigbee/transmitter.h"

namespace ctc::zigbee {
namespace {

/// The channel's in-place fractional delay, applied to a copy.
cvec delayed_copy(cvec wave, double offset) {
  channel::apply_timing_offset_inplace(wave, offset);
  return wave;
}

void expect_identical(const ReceiveResult& a, const ReceiveResult& b) {
  EXPECT_EQ(a.shr_ok, b.shr_ok);
  EXPECT_EQ(a.phr_ok, b.phr_ok);
  EXPECT_EQ(a.psdu_complete, b.psdu_complete);
  EXPECT_EQ(a.psdu, b.psdu);
  EXPECT_EQ(a.mac.has_value(), b.mac.has_value());
  EXPECT_EQ(a.hamming_distances, b.hamming_distances);
  EXPECT_EQ(a.soft_chips, b.soft_chips);
  EXPECT_EQ(a.freq_chips, b.freq_chips);
  EXPECT_EQ(a.hard_chips, b.hard_chips);
  EXPECT_EQ(a.channel_estimate, b.channel_estimate);
  EXPECT_EQ(a.noise_variance_estimate, b.noise_variance_estimate);
  EXPECT_EQ(a.snr_estimate_db, b.snr_estimate_db);
  EXPECT_EQ(a.timing_offset_estimate, b.timing_offset_estimate);
}

/// The receiver's tau grid: -0.5 to 0.5 in steps of 1/16. Each tau is exact
/// in binary, so these are the values the receiver's accumulating loop
/// produces.
double grid_tau(int k) { return k / 16.0; }

/// The per-call clock-recovery search: the winning tau of the SHR
/// correlation over the receiver's grid.
double percall_best_tau(std::span<const cplx> capture,
                        const ReceiverConfig& config) {
  TransmitterConfig tx_config;
  tx_config.samples_per_chip = config.samples_per_chip;
  tx_config.normalize_power = false;
  const cvec shr_reference = Transmitter(tx_config).shr_reference();
  const std::size_t window =
      2 * (kPreambleBytes + 1) * kChipsPerSymbol * config.samples_per_chip;
  const dsp::kernels::KernelTable& kt = dsp::kernels::active();
  double best_metric = -1.0;
  double best_tau = 0.0;
  for (int k = -8; k <= 8; ++k) {
    const double tau = grid_tau(k);
    const cvec shifted = dsp::fractional_delay(shr_reference, tau);
    const double energy = kt.energy(shifted.data(), window);
    const cplx correlation = kt.dot_conj(capture.data(), shifted.data(), window);
    const double metric = energy > 0.0 ? std::norm(correlation) / energy : 0.0;
    if (metric > best_metric) {
      best_metric = metric;
      best_tau = tau;
    }
  }
  return best_tau;
}

TEST(TimingGridEquivalenceTest, GridReceiveIsBitIdenticalToPerCall) {
  Transmitter tx;
  const cvec wave = tx.transmit_frame(make_text_frame(0, 0));

  ReceiverConfig config;
  config.timing_recovery = true;
  const Receiver grid_receiver(config);
  ReceiverConfig untimed_config = config;
  untimed_config.timing_recovery = false;
  const Receiver untimed_receiver(untimed_config);

  // Clean, offset, and offset+noise captures: the winning tau (and every
  // derived field) must agree bitwise in all of them.
  dsp::Rng rng(42);
  std::vector<cvec> captures;
  captures.push_back(wave);
  for (double offset : {0.125, 0.3125}) {
    captures.push_back(delayed_copy(wave, offset));
  }
  {
    channel::Environment env = channel::Environment::awgn(6.0);
    env.timing_offset = 0.25;
    captures.push_back(env.propagate(wave, rng));
  }
  bool some_capture_retimed = false;
  for (std::size_t i = 0; i < captures.size(); ++i) {
    SCOPED_TRACE("capture " + std::to_string(i));
    const double tau = percall_best_tau(captures[i], config);
    some_capture_retimed = some_capture_retimed || tau != 0.0;
    ReceiveResult oracle =
        tau == 0.0
            ? untimed_receiver.receive(captures[i])
            : untimed_receiver.receive(dsp::fractional_delay(captures[i], -tau));
    oracle.timing_offset_estimate = tau;
    const ReceiveResult grid = grid_receiver.receive(captures[i]);
    EXPECT_EQ(grid.timing_offset_estimate, tau);
    expect_identical(grid, oracle);
  }
  EXPECT_TRUE(some_capture_retimed);
}

TEST(TimingGridEquivalenceTest, GridCoversTheFullTauSequence) {
  // The estimated offset must still span the whole search range: a clean
  // frame delayed by each of the grid's 17 taus must come back with exactly
  // that tau as its estimate, and captures delayed by the channel's timing
  // offset must track it (i.e. the grid didn't truncate the tau sweep).
  Transmitter tx;
  const cvec wave = tx.transmit_frame(make_text_frame(0, 0));
  ReceiverConfig config;
  config.timing_recovery = true;
  const Receiver receiver(config);
  for (int k = -8; k <= 8; ++k) {
    const double tau = grid_tau(k);
    const cvec delayed = dsp::fractional_delay(wave, tau);
    EXPECT_EQ(receiver.receive(delayed).timing_offset_estimate, tau)
        << "tau " << tau;
  }
  for (double offset : {0.0625, 0.4375}) {
    const cvec delayed = delayed_copy(wave, offset);
    const ReceiveResult result = receiver.receive(delayed);
    EXPECT_NEAR(result.timing_offset_estimate, offset, 0.0626)
        << "offset " << offset;
  }
}

}  // namespace
}  // namespace ctc::zigbee
