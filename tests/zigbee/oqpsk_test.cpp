#include "zigbee/oqpsk.h"

#include <gtest/gtest.h>

#include "dsp/require.h"
#include "dsp/rng.h"
#include "dsp/types.h"
#include "zigbee/dsss.h"

namespace ctc::zigbee {
namespace {

std::vector<std::uint8_t> random_chips(std::size_t n, std::uint64_t seed) {
  dsp::Rng rng(seed);
  std::vector<std::uint8_t> chips(n);
  for (auto& c : chips) c = rng.bit();
  return chips;
}

TEST(OqpskModulatorTest, OutputLength) {
  OqpskModulator modulator(2);
  EXPECT_EQ(modulator.modulate(random_chips(32, 1)).size(), 33u * 2);
  EXPECT_EQ(modulator.modulate(std::vector<std::uint8_t>{}).size(), 2u);
}

TEST(OqpskModulatorTest, EvenChipsDriveInPhaseOddChipsQuadrature) {
  OqpskModulator modulator(4);
  // Single even chip: waveform is purely real.
  const cvec even = modulator.modulate(std::vector<std::uint8_t>{1});
  for (const cplx& x : even) EXPECT_DOUBLE_EQ(x.imag(), 0.0);
  // Chip pair: the second (odd) chip contributes only to the imaginary part.
  const cvec pair = modulator.modulate(std::vector<std::uint8_t>{1, 1});
  bool has_imag = false;
  for (const cplx& x : pair) has_imag |= std::abs(x.imag()) > 0.5;
  EXPECT_TRUE(has_imag);
}

TEST(OqpskModulatorTest, ChipZeroGivesNegativeAmplitude) {
  OqpskModulator modulator(4);
  const cvec wave = modulator.modulate(std::vector<std::uint8_t>{0});
  EXPECT_LT(wave[4].real(), -0.99);  // pulse peak
}

TEST(OqpskModulatorTest, ConstantEnvelopeInSteadyState) {
  // Interior of a long chip stream: |s(t)| == 1 (MSK property).
  OqpskModulator modulator(8);
  const auto chips = random_chips(64, 2);
  const cvec wave = modulator.modulate(chips);
  for (std::size_t i = 16; i + 16 < wave.size(); ++i) {
    EXPECT_NEAR(std::abs(wave[i]), 1.0, 1e-9) << "i=" << i;
  }
}

TEST(OqpskDemodulatorTest, ExtendedSoftChipsAreBitIdenticalToFullCompute) {
  // The receiver demodulates the header span first and extends to the full
  // frame once the PHR is known; incremental extension must reproduce the
  // one-shot computation bit for bit (per-chip locality of the matched
  // filter), at any even stage boundary.
  const OqpskDemodulator demodulator(2);
  const OqpskModulator modulator(2);
  const auto chips = random_chips(96, 3);
  const cvec wave = modulator.modulate(chips);
  const rvec full = demodulator.soft_chips(wave, chips.size());

  for (const std::size_t stage : {0UL, 2UL, 40UL, 96UL}) {
    rvec staged;
    demodulator.extend_soft_chips(wave, stage, staged);
    demodulator.extend_soft_chips(wave, chips.size(), staged);
    ASSERT_EQ(staged.size(), full.size()) << "stage=" << stage;
    for (std::size_t i = 0; i < full.size(); ++i) {
      EXPECT_EQ(staged[i], full[i]) << "stage=" << stage << " chip=" << i;
    }
  }
  // Re-requesting an already-computed prefix leaves the buffer untouched.
  rvec done = full;
  demodulator.extend_soft_chips(wave, 10, done);
  EXPECT_EQ(done.size(), full.size());
}

TEST(OqpskDemodulatorTest, ExtendedFrequencyChipsAreBitIdenticalToFullCompute) {
  const OqpskDemodulator demodulator(2);
  const OqpskModulator modulator(2);
  const auto chips = random_chips(96, 4);
  const cvec wave = modulator.modulate(chips);
  const rvec full = demodulator.frequency_chips(wave, chips.size());

  for (const std::size_t stage : {0UL, 2UL, 40UL, 96UL}) {
    rvec staged;
    demodulator.extend_frequency_chips(wave, stage, staged);
    demodulator.extend_frequency_chips(wave, chips.size(), staged);
    ASSERT_EQ(staged.size(), full.size()) << "stage=" << stage;
    for (std::size_t i = 0; i < full.size(); ++i) {
      EXPECT_EQ(staged[i], full[i]) << "stage=" << stage << " chip=" << i;
    }
  }
}

TEST(OqpskDemodulatorTest, OddSoftChipExtensionIsRejected) {
  // An odd start would flip the I/Q parity of every subsequent chip; the
  // contract requires even stage boundaries.
  const OqpskDemodulator demodulator(2);
  const OqpskModulator modulator(2);
  const cvec wave = modulator.modulate(random_chips(8, 5));
  rvec odd(3, 0.0);
  EXPECT_THROW(demodulator.extend_soft_chips(wave, 8, odd), ContractError);
}

class OqpskRoundTripTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(OqpskRoundTripTest, SoftChipsRecoverChipSigns) {
  const std::size_t spc = GetParam();
  OqpskModulator modulator(spc);
  OqpskDemodulator demodulator(spc);
  const auto chips = random_chips(128, 10 + spc);
  const cvec wave = modulator.modulate(chips);
  const rvec soft = demodulator.soft_chips(wave, chips.size());
  ASSERT_EQ(soft.size(), chips.size());
  for (std::size_t i = 0; i < chips.size(); ++i) {
    EXPECT_NEAR(soft[i], chips[i] ? 1.0 : -1.0, 1e-9) << "i=" << i;
  }
}

TEST_P(OqpskRoundTripTest, HardDecisionRecoversChips) {
  const std::size_t spc = GetParam();
  OqpskModulator modulator(spc);
  OqpskDemodulator demodulator(spc);
  const auto chips = random_chips(96, 20 + spc);
  const cvec wave = modulator.modulate(chips);
  const auto decoded =
      OqpskDemodulator::hard_decision(demodulator.soft_chips(wave, chips.size()));
  EXPECT_EQ(decoded, chips);
}

TEST_P(OqpskRoundTripTest, FrequencyChipsAreUnitMagnitude) {
  const std::size_t spc = GetParam();
  OqpskModulator modulator(spc);
  OqpskDemodulator demodulator(spc);
  const auto chips = random_chips(128, 30 + spc);
  const cvec wave = modulator.modulate(chips);
  const rvec f = demodulator.frequency_chips(wave, chips.size());
  // Skip chip 0 (no predecessor pulse) — all others are exactly +-1.
  for (std::size_t i = 1; i < f.size(); ++i) {
    EXPECT_NEAR(std::abs(f[i]), 1.0, 1e-6) << "i=" << i;
  }
}

TEST_P(OqpskRoundTripTest, FrequencyChipsMatchDifferentialFormula) {
  // f_i = s_i (2c_{i-1}-1)(2c_i-1), s_i = +1 odd / -1 even.
  const std::size_t spc = GetParam();
  OqpskModulator modulator(spc);
  OqpskDemodulator demodulator(spc);
  const auto chips = random_chips(64, 40 + spc);
  const cvec wave = modulator.modulate(chips);
  const rvec f = demodulator.frequency_chips(wave, chips.size());
  for (std::size_t i = 1; i < chips.size(); ++i) {
    const int sign = (i % 2 == 1) ? 1 : -1;
    const double expected = sign * (2 * chips[i - 1] - 1) * (2 * chips[i] - 1);
    EXPECT_NEAR(f[i], expected, 1e-6) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(SamplesPerChip, OqpskRoundTripTest,
                         ::testing::Values(2, 4, 8));

TEST(OqpskDemodulatorTest, FrequencyChipsIgnoreGainAndPhase) {
  OqpskModulator modulator(2);
  OqpskDemodulator demodulator(2);
  const auto chips = random_chips(64, 50);
  cvec wave = modulator.modulate(chips);
  const rvec base = demodulator.frequency_chips(wave, chips.size());
  for (auto& x : wave) x *= cplx{0.3, 0.4};  // arbitrary complex gain
  const rvec rotated = demodulator.frequency_chips(wave, chips.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_NEAR(base[i], rotated[i], 1e-9);
  }
}

TEST(OqpskDemodulatorTest, RejectsShortWaveform) {
  OqpskDemodulator demodulator(2);
  cvec wave(10);
  EXPECT_THROW(demodulator.soft_chips(wave, 32), ContractError);
  EXPECT_THROW(demodulator.frequency_chips(wave, 32), ContractError);
}

}  // namespace
}  // namespace ctc::zigbee
