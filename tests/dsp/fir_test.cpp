#include "dsp/fir.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "dsp/kernels/kernels.h"
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

/// "Same"-length filtering through the resample kernel at up = down = 1:
/// out[o] sums taps[j] * x[o + (t - 1) / 2 - j], at both kernel levels.
std::vector<cvec> filter_same_both_levels(const cvec& x, const rvec& taps) {
  std::vector<cvec> outs;
  for (const kernels::SimdLevel level :
       {kernels::SimdLevel::scalar, kernels::best_supported_level()}) {
    cvec out(x.size(), cplx{7.0, 7.0});
    kernels::table(level).resample(x.data(), x.size(), 1, 1, taps.data(),
                                   taps.size(), out.data(), out.size());
    outs.push_back(out);
  }
  return outs;
}

TEST(ConvolveTest, IdentityKernel) {
  Rng rng(21);
  cvec x(50);
  for (auto& v : x) v = rng.complex_gaussian(1.0);
  for (const cvec& y : filter_same_both_levels(x, rvec{1.0})) {
    ASSERT_EQ(y.size(), x.size());
    for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(y[i], x[i]);
  }
}

TEST(ConvolveTest, LengthAndKnownValues) {
  const cvec x = {{1, 0}, {2, 0}, {3, 0}};
  for (const cvec& y : filter_same_both_levels(x, rvec{1.0, 1.0, 1.0})) {
    ASSERT_EQ(y.size(), 3u);
    EXPECT_DOUBLE_EQ(y[0].real(), 3.0);
    EXPECT_DOUBLE_EQ(y[1].real(), 6.0);
    EXPECT_DOUBLE_EQ(y[2].real(), 5.0);
  }
}

TEST(ConvolveTest, EmptySignalGivesEmptyOutput) {
  // No input sample meets any tap: every requested output is +0.0.
  for (const kernels::SimdLevel level :
       {kernels::SimdLevel::scalar, kernels::best_supported_level()}) {
    const rvec taps = {0.25, 0.5, 0.25};
    cvec out(4, cplx{7.0, 7.0});
    kernels::table(level).resample(nullptr, 0, 1, 1, taps.data(), taps.size(),
                                   out.data(), out.size());
    for (const cplx& y : out) {
      EXPECT_EQ(y, cplx(0.0, 0.0));
      EXPECT_FALSE(std::signbit(y.real()));
    }
  }
}

TEST(FilterSameTest, AlignsWithInput) {
  // A delayed-impulse kernel with delay compensation must return the input.
  Rng rng(22);
  cvec x(64);
  for (auto& v : x) v = rng.complex_gaussian(1.0);
  rvec h(11, 0.0);
  h[5] = 1.0;  // pure delay of (taps-1)/2
  for (const cvec& y : filter_same_both_levels(x, h)) {
    ASSERT_EQ(y.size(), x.size());
    for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(y[i], x[i]);
  }
}

}  // namespace
}  // namespace ctc::dsp
