// Quality of Rng::add_complex_gaussian (noise stream kNoiseStream) and of
// the add_gauss polynomials behind it. Seeds are fixed, so every bound
// below is a deterministic check; each sits five standard deviations (or a
// 1e-4 Kolmogorov–Smirnov level) from its expectation.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "dsp/kernels/kernels.h"
#include "dsp/require.h"
#include "dsp/rng.h"

namespace ctc::dsp {
namespace {

// One ZigBee text frame, the length a Monte Carlo trial adds noise to.
constexpr std::size_t kFrame = 2818;

// Noise stream 1: the per-sample libm Box–Muller loop channel noise used
// before stream 2. Kept only as this test's distributional oracle.
void add_noise_stream1(std::span<cplx> samples, double variance, Rng& rng) {
  for (cplx& sample : samples) sample += rng.complex_gaussian(variance);
}

/// Components of `trials` frames of unit-variance-per-component noise,
/// each frame on its own trial stream, as the engine hands them out.
std::vector<double> stream2_components(std::uint64_t seed,
                                       std::size_t trials) {
  std::vector<double> out;
  out.reserve(2 * kFrame * trials);
  cvec frame(kFrame);
  for (std::size_t t = 0; t < trials; ++t) {
    std::fill(frame.begin(), frame.end(), cplx{0.0, 0.0});
    Rng rng = Rng::for_stream(seed, t);
    rng.add_complex_gaussian(frame, 2.0);
    for (const cplx& x : frame) {
      out.push_back(x.real());
      out.push_back(x.imag());
    }
  }
  return out;
}

double normal_cdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

/// Kolmogorov–Smirnov distance of `sorted` from the standard normal.
double ks_vs_normal(const std::vector<double>& sorted) {
  const auto n = static_cast<double>(sorted.size());
  double d = 0.0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const double f = normal_cdf(sorted[i]);
    d = std::max({d, f - static_cast<double>(i) / n,
                  static_cast<double>(i + 1) / n - f});
  }
  return d;
}

/// Two-sample Kolmogorov–Smirnov distance of sorted `a` and `b`.
double ks_two_sample(const std::vector<double>& a,
                     const std::vector<double>& b) {
  std::size_t i = 0;
  std::size_t j = 0;
  double d = 0.0;
  while (i < a.size() && j < b.size()) {
    const double x = std::min(a[i], b[j]);
    while (i < a.size() && a[i] <= x) ++i;
    while (j < b.size() && b[j] <= x) ++j;
    d = std::max(d, std::abs(static_cast<double>(i) / a.size() -
                             static_cast<double>(j) / b.size()));
  }
  return d;
}

double ulp(double x) {
  const double mag = std::abs(x);
  return std::nextafter(mag, std::numeric_limits<double>::infinity()) - mag;
}

TEST(GaussNoiseTest, MomentsMatchTheNormal) {
  const std::vector<double> x = stream2_components(101, 400);
  const auto n = static_cast<double>(x.size());
  double sum = 0.0, sum2 = 0.0, sum4 = 0.0;
  for (double v : x) {
    sum += v;
    sum2 += v * v;
    sum4 += v * v * v * v;
  }
  const double mean = sum / n;
  const double variance = sum2 / n - mean * mean;
  // Standard errors: 1/sqrt(n), sqrt(2/n), sqrt(96/n) for the fourth moment.
  EXPECT_NEAR(mean, 0.0, 5.0 / std::sqrt(n));
  EXPECT_NEAR(variance, 1.0, 5.0 * std::sqrt(2.0 / n));
  EXPECT_NEAR(sum4 / n, 3.0, 5.0 * std::sqrt(96.0 / n));
}

TEST(GaussNoiseTest, TailProbabilityWithinBinomialBounds) {
  const std::vector<double> x = stream2_components(202, 3000);
  const auto n = static_cast<double>(x.size());
  std::size_t beyond = 0;
  for (double v : x) beyond += std::abs(v) > 4.0 ? 1 : 0;
  const double p = std::erfc(4.0 / std::sqrt(2.0));  // 6.334e-5
  const double expected = n * p;
  const double sd = std::sqrt(n * p * (1.0 - p));
  EXPECT_NEAR(static_cast<double>(beyond), expected, 5.0 * sd)
      << beyond << " of " << n << " components beyond 4 sigma";
}

TEST(GaussNoiseTest, ComponentsLanesAndTrialStreamsAreUncorrelated) {
  const std::size_t trials = 400;
  const std::vector<double> x = stream2_components(303, trials);
  const std::size_t per_trial = 2 * kFrame;
  double re_im = 0.0;
  double lag1 = 0.0;  // adjacent samples: different lanes
  double lag4 = 0.0;  // samples i, i+4: consecutive draws of one lane
  double across = 0.0;  // sample i of trial t vs of trial t+1
  std::size_t lag_terms = 0;
  std::size_t across_terms = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    const double* frame = x.data() + t * per_trial;
    for (std::size_t i = 0; i < kFrame; ++i) {
      re_im += frame[2 * i] * frame[2 * i + 1];
      if (i + 4 < kFrame) {
        lag1 += frame[2 * i] * frame[2 * i + 2];
        lag4 += frame[2 * i] * frame[2 * i + 8];
        ++lag_terms;
      }
      if (t + 1 < trials) {
        across += frame[2 * i] * frame[2 * i + per_trial];
        ++across_terms;
      }
    }
  }
  const auto samples = static_cast<double>(trials * kFrame);
  EXPECT_NEAR(re_im / samples, 0.0, 5.0 / std::sqrt(samples));
  const auto lags = static_cast<double>(lag_terms);
  EXPECT_NEAR(lag1 / lags, 0.0, 5.0 / std::sqrt(lags));
  EXPECT_NEAR(lag4 / lags, 0.0, 5.0 / std::sqrt(lags));
  const auto pairs = static_cast<double>(across_terms);
  EXPECT_NEAR(across / pairs, 0.0, 5.0 / std::sqrt(pairs));
}

TEST(GaussNoiseTest, DistributedLikeTheLibmStream) {
  std::vector<double> stream2 = stream2_components(404, 50);
  std::vector<double> stream1;
  cvec frame(kFrame);
  for (std::size_t t = 0; t < 50; ++t) {
    std::fill(frame.begin(), frame.end(), cplx{0.0, 0.0});
    Rng rng = Rng::for_stream(404, t);
    add_noise_stream1(frame, 2.0, rng);
    for (const cplx& x : frame) {
      stream1.push_back(x.real());
      stream1.push_back(x.imag());
    }
  }
  std::sort(stream2.begin(), stream2.end());
  std::sort(stream1.begin(), stream1.end());
  // KS critical values at level 1e-4: 2.23 / sqrt(n) one-sample and
  // 2.23 * sqrt(2 / n) for two equal samples.
  const auto n = static_cast<double>(stream2.size());
  EXPECT_LT(ks_vs_normal(stream2), 2.23 / std::sqrt(n));
  EXPECT_LT(ks_vs_normal(stream1), 2.23 / std::sqrt(n));
  EXPECT_LT(ks_two_sample(stream2, stream1), 2.23 * std::sqrt(2.0 / n));
}

TEST(GaussNoiseTest, ConsumesFourDrawsAndScalesWithVariance) {
  Rng short_call(7);
  Rng long_call(7);
  cvec empty;
  cvec frame(kFrame, cplx{1.0, -1.0});
  short_call.add_complex_gaussian(empty, 1.0);
  long_call.add_complex_gaussian(frame, 1.0);
  EXPECT_EQ(short_call.next_u64(), long_call.next_u64());

  // Same stream state, variance 4 vs 1: exactly twice the noise.
  cvec unit(kFrame, cplx{0.0, 0.0});
  cvec quad(kFrame, cplx{0.0, 0.0});
  Rng a(8);
  Rng b(8);
  a.add_complex_gaussian(unit, 1.0);
  b.add_complex_gaussian(quad, 4.0);
  for (std::size_t i = 0; i < kFrame; ++i) {
    EXPECT_EQ(quad[i], 2.0 * unit[i]) << "i=" << i;
  }

  const cvec before = frame;
  Rng silent(9);
  silent.add_complex_gaussian(frame, 0.0);
  EXPECT_EQ(std::memcmp(frame.data(), before.data(),
                        frame.size() * sizeof(cplx)),
            0);
  EXPECT_THROW(silent.add_complex_gaussian(frame, -1.0), ContractError);
}

TEST(GaussNoiseTest, PolynomialLogWithinFourUlpOfLibm) {
  std::vector<double> inputs = {0x1p-52, 0x1.8p-52, 0.5, 0.7071067811865475,
                                0.7071067811865476, 1.0 - 0x1p-52, 1.0};
  for (int e = 1; e <= 52; ++e) inputs.push_back(std::ldexp(1.0, -e) * 1.4142);
  Rng rng(10);
  for (int i = 0; i < 200000; ++i) {
    // The kernel's own u1: 2 - [1,2) from the top 52 bits of a draw.
    const auto one_two = std::bit_cast<double>((rng.next_u64() >> 12) |
                                               0x3ff0000000000000ULL);
    inputs.push_back(2.0 - one_two);
    // Log-uniform over the whole (2^-52, 1] range as well.
    inputs.push_back(std::exp2(-52.0 * rng.uniform()));
  }
  for (double u : inputs) {
    const double ours = kernels::gauss_log(u);
    const double libm = std::log(u);
    if (libm == 0.0) {
      EXPECT_EQ(ours, 0.0);
      continue;
    }
    EXPECT_LE(std::abs(ours - libm), 4.0 * ulp(libm)) << "log(" << u << ")";
  }
}

TEST(GaussNoiseTest, PolynomialSincosWithinFourUlpOfLibm) {
  // sin/cos lie in [-1, 1] and libm's own argument 2*pi*u is rounded to
  // ulp(2*pi), so the comparison is absolute, in ulps of 1.
  const double bound = 4.0 * std::numeric_limits<double>::epsilon();
  std::vector<double> inputs;
  for (int k = 0; k < 65536; ++k) inputs.push_back(k / 65536.0);
  for (double edge : {0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875}) {
    inputs.push_back(edge - 0x1p-52);
    inputs.push_back(edge + 0x1p-52);
  }
  inputs.push_back(1.0 - 0x1p-52);
  Rng rng(11);
  for (int i = 0; i < 200000; ++i) inputs.push_back(rng.uniform());
  for (double u : inputs) {
    double s = 0.0;
    double c = 0.0;
    kernels::gauss_sincos_2pi(u, &s, &c);
    EXPECT_LE(std::abs(s - std::sin(kTwoPi * u)), bound) << "sin 2pi*" << u;
    EXPECT_LE(std::abs(c - std::cos(kTwoPi * u)), bound) << "cos 2pi*" << u;
  }
}

}  // namespace
}  // namespace ctc::dsp
