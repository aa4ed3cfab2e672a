#include "dsp/resample.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "dsp/fft.h"
#include "dsp/require.h"
#include "dsp/rng.h"
#include "dsp/stats.h"

namespace ctc::dsp {
namespace {

cvec bandlimited_signal(std::size_t n, double max_freq, std::uint64_t seed) {
  // Sum of random tones below max_freq (cycles/sample).
  Rng rng(seed);
  cvec x(n, cplx{0.0, 0.0});
  for (int tone = 0; tone < 8; ++tone) {
    const double f = rng.uniform(-max_freq, max_freq);
    const double phase = rng.uniform(0.0, kTwoPi);
    const double amp = rng.uniform(0.5, 1.0);
    for (std::size_t i = 0; i < n; ++i) {
      const double angle = kTwoPi * f * static_cast<double>(i) + phase;
      x[i] += amp * cplx{std::cos(angle), std::sin(angle)};
    }
  }
  return x;
}

TEST(UpsampleTest, FactorOneIsIdentity) {
  const cvec x = bandlimited_signal(32, 0.2, 1);
  const cvec y = upsample(x, 1);
  ASSERT_EQ(y.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(y[i], x[i]);
}

TEST(UpsampleTest, OutputLengthScales) {
  const cvec x = bandlimited_signal(40, 0.2, 2);
  EXPECT_EQ(upsample(x, 5).size(), 200u);
  EXPECT_TRUE(upsample(cvec{}, 5).empty());
  EXPECT_THROW(upsample(x, 0), ContractError);
}

TEST(UpsampleTest, OriginalSamplesPreserved) {
  // Delay compensation: y[i*factor] ~= x[i] away from the edges.
  const cvec x = bandlimited_signal(120, 0.15, 3);
  const cvec y = upsample(x, 5);
  for (std::size_t i = 15; i + 15 < x.size(); ++i) {
    EXPECT_NEAR(std::abs(y[i * 5] - x[i]), 0.0, 0.03) << "i=" << i;
  }
}

TEST(UpsampleTest, NoSpectralImages) {
  // A low tone upsampled x4 must not leave images at f/4 multiples.
  const std::size_t n = 128;
  cvec x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double angle = kTwoPi * 0.05 * static_cast<double>(i);
    x[i] = {std::cos(angle), std::sin(angle)};
  }
  const cvec y = upsample(x, 4);
  FftPlan plan(512);
  const cvec spectrum = plan.forward(std::span<const cplx>(y).subspan(0, 512));
  // Tone now at bin 512*0.05/4 = 6.4ish; image would be near bins 128+6, 256+6...
  double image_power = 0.0;
  double tone_power = 0.0;
  for (std::size_t k = 0; k < 512; ++k) {
    const double p = std::norm(spectrum[k]);
    if (k > 100 && k < 480) image_power += p;
    else tone_power += p;
  }
  EXPECT_LT(image_power, 0.02 * tone_power);
}

TEST(UpsampleTest, IdenticalWindowsUpsampleToIdenticalBits) {
  // Time invariance down to the bit: the same 4 MHz window upsamples to the
  // same 20 MHz bytes wherever it sits in the signal. The emulator's slot
  // cache keys on those bytes, and the link waveform cache on the frames.
  const std::size_t factor = 5;
  const std::size_t reach = 6;  // inputs each side that one output reads
  Rng rng(24);
  cvec segment(80);
  for (auto& v : segment) v = rng.complex_gaussian(1.0);
  // Two copies of the segment in a random signal, an odd distance apart so
  // they sit at different vector block offsets.
  const std::size_t first = 37;
  const std::size_t second = 150;
  cvec x(second + segment.size() + 41);
  for (auto& v : x) v = rng.complex_gaussian(1.0);
  std::copy(segment.begin(), segment.end(), x.begin() + first);
  std::copy(segment.begin(), segment.end(), x.begin() + second);
  const cvec y = upsample(x, factor);
  // Outputs whose whole window lies inside one copy.
  const std::size_t interior = (segment.size() - 2 * reach) * factor;
  EXPECT_EQ(std::memcmp(y.data() + (first + reach) * factor,
                        y.data() + (second + reach) * factor,
                        interior * sizeof(cplx)),
            0);
}

TEST(DecimateTest, RoundTripWithUpsampleIsNearIdentity) {
  for (std::size_t factor : {2u, 4u, 5u}) {
    const cvec x = bandlimited_signal(256, 0.2, 40 + factor);
    cvec y = decimate(upsample(x, factor), factor);
    y.resize(x.size());
    // Edge transients excluded by NMSE being tiny overall.
    EXPECT_LT(nmse(x, y), 0.01) << "factor=" << factor;
  }
}

TEST(DecimateTest, FactorOneIsIdentity) {
  const cvec x = bandlimited_signal(16, 0.1, 5);
  const cvec y = decimate(x, 1);
  ASSERT_EQ(y.size(), x.size());
}

TEST(DecimateTest, RemovesOutOfBandTone) {
  // A tone at 0.3 cycles/sample aliases when decimating by 4 unless filtered.
  const std::size_t n = 400;
  cvec x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double angle = kTwoPi * 0.3 * static_cast<double>(i);
    x[i] = {std::cos(angle), std::sin(angle)};
  }
  const cvec y = decimate(x, 4);
  EXPECT_LT(average_power(std::span<const cplx>(y).subspan(10, y.size() - 20)), 0.01);
}

TEST(MixerTest, ShiftsToneToNewFrequency) {
  const std::size_t n = 256;
  cvec x(n, cplx{1.0, 0.0});  // DC tone
  const cvec y = frequency_shift(x, 1.0e6, 4.0e6);  // -> bin n/4
  FftPlan plan(n);
  const cvec spectrum = plan.forward(y);
  std::size_t best = 0;
  for (std::size_t k = 1; k < n; ++k) {
    if (std::abs(spectrum[k]) > std::abs(spectrum[best])) best = k;
  }
  EXPECT_EQ(best, n / 4);
}

TEST(MixerTest, OppositeShiftsCancel) {
  const cvec x = bandlimited_signal(100, 0.1, 6);
  const cvec shifted = frequency_shift(x, 5.0e6, 20.0e6);
  const cvec back = frequency_shift(shifted, -5.0e6, 20.0e6);
  EXPECT_LT(nmse(x, back), 1e-20);
}

TEST(MixerTest, PreservesPower) {
  const cvec x = bandlimited_signal(100, 0.1, 7);
  const cvec shifted = frequency_shift(x, 3.3e6, 20.0e6);
  EXPECT_NEAR(average_power(shifted), average_power(x), 1e-9);
}

TEST(MixerTest, RejectsNonPositiveSampleRate) {
  EXPECT_THROW(frequency_shift(cvec(4), 1.0, 0.0), ContractError);
}

}  // namespace
}  // namespace ctc::dsp
