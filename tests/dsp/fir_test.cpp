#include "dsp/fir.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "dsp/require.h"
#include "dsp/rng.h"
#include "dsp/stats.h"

namespace ctc::dsp {
namespace {

TEST(FirDesignTest, RejectsBadParameters) {
  EXPECT_THROW(design_lowpass(0.0, 11), ContractError);
  EXPECT_THROW(design_lowpass(0.5, 11), ContractError);
  EXPECT_THROW(design_lowpass(0.25, 10), ContractError);  // even taps
  EXPECT_THROW(design_lowpass(0.25, 1), ContractError);
}

TEST(FirDesignTest, UnityDcGain) {
  const rvec taps = design_lowpass(0.2, 31);
  double sum = 0.0;
  for (double t : taps) sum += t;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(FirDesignTest, SymmetricLinearPhase) {
  const rvec taps = design_lowpass(0.15, 41);
  for (std::size_t i = 0; i < taps.size(); ++i) {
    EXPECT_NEAR(taps[i], taps[taps.size() - 1 - i], 1e-12);
  }
}

double tone_gain(const rvec& taps, double frequency) {
  // Magnitude response at `frequency` (cycles/sample) via direct evaluation.
  cplx acc{0.0, 0.0};
  for (std::size_t i = 0; i < taps.size(); ++i) {
    const double angle = -kTwoPi * frequency * static_cast<double>(i);
    acc += taps[i] * cplx{std::cos(angle), std::sin(angle)};
  }
  return std::abs(acc);
}

TEST(FirDesignTest, PassbandAndStopbandBehave) {
  const rvec taps = design_lowpass(0.1, 101);
  EXPECT_NEAR(tone_gain(taps, 0.0), 1.0, 1e-6);
  EXPECT_NEAR(tone_gain(taps, 0.05), 1.0, 0.01);
  EXPECT_LT(tone_gain(taps, 0.2), 0.01);
  EXPECT_LT(tone_gain(taps, 0.4), 0.01);
  // -6 dB point at the cutoff (windowed-sinc property).
  EXPECT_NEAR(tone_gain(taps, 0.1), 0.5, 0.02);
}

TEST(ConvolveTest, IdentityKernel) {
  Rng rng(21);
  cvec x(50);
  for (auto& v : x) v = rng.complex_gaussian(1.0);
  const rvec delta = {1.0};
  const cvec y = convolve_direct(x, delta);
  ASSERT_EQ(y.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-12);
}

TEST(ConvolveTest, LengthAndKnownValues) {
  const cvec x = {{1, 0}, {2, 0}, {3, 0}};
  const rvec h = {1.0, 1.0};
  const cvec y = convolve_direct(x, h);
  ASSERT_EQ(y.size(), 4u);
  EXPECT_DOUBLE_EQ(y[0].real(), 1.0);
  EXPECT_DOUBLE_EQ(y[1].real(), 3.0);
  EXPECT_DOUBLE_EQ(y[2].real(), 5.0);
  EXPECT_DOUBLE_EQ(y[3].real(), 3.0);
}

TEST(ConvolveTest, EmptySignalGivesEmptyOutput) {
  const rvec h = {1.0, 2.0};
  EXPECT_TRUE(convolve_direct(cvec{}, h).empty());
  EXPECT_THROW(convolve_direct(cvec{{1, 0}}, rvec{}), ContractError);
}

TEST(FilterSameTest, AlignsWithInput) {
  // A delayed-impulse kernel with delay compensation must return the input.
  Rng rng(22);
  cvec x(64);
  for (auto& v : x) v = rng.complex_gaussian(1.0);
  rvec h(11, 0.0);
  h[5] = 1.0;  // pure delay of (taps-1)/2
  const cvec y = filter_same(x, h);
  ASSERT_EQ(y.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-12);
}

TEST(FilterSameTest, RequiresOddTaps) {
  cvec x(8, cplx{1.0, 0.0});
  EXPECT_THROW(filter_same(x, rvec{0.5, 0.5}), ContractError);
}

TEST(FilterSameTest, IdenticalSegmentsFilterToIdenticalBits) {
  // Time invariance down to the bit: the same input window filters to the
  // same output bytes wherever it sits in the signal. The byte-keyed
  // emulator slot cache and link waveform cache depend on it.
  const rvec taps = design_lowpass(0.1, 61);  // the x5 resampling lowpass
  const std::size_t half = (taps.size() - 1) / 2;
  Rng rng(24);
  cvec segment(200);
  for (auto& v : segment) v = rng.complex_gaussian(1.0);
  // Two copies of the segment in a random signal, an odd distance apart so
  // they sit at different SIMD lane alignments.
  const std::size_t first = 37;
  const std::size_t second = 350;
  cvec x(second + segment.size() + 41);
  for (auto& v : x) v = rng.complex_gaussian(1.0);
  std::copy(segment.begin(), segment.end(), x.begin() + first);
  std::copy(segment.begin(), segment.end(), x.begin() + second);
  const cvec y = filter_same(x, taps);
  // Outputs whose full tap window lies inside one copy.
  const std::size_t interior = segment.size() - 2 * half;
  EXPECT_EQ(std::memcmp(y.data() + first + half, y.data() + second + half,
                        interior * sizeof(cplx)),
            0);
}

}  // namespace
}  // namespace ctc::dsp
