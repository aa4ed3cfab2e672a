#include "dsp/fft.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>

#include "dsp/require.h"
#include "dsp/rng.h"
#include "dsp/stats.h"

namespace ctc::dsp {
namespace {

// O(n^2) reference DFT with the same convention as FftPlan::forward, and
// its inverse (with the 1/N scaling): the FFT's oracle.
cvec dft(std::span<const cplx> input) {
  const std::size_t n = input.size();
  cvec out(n);
  for (std::size_t k = 0; k < n; ++k) {
    cplx acc{0.0, 0.0};
    for (std::size_t i = 0; i < n; ++i) {
      const double angle =
          -kTwoPi * static_cast<double>(k) * static_cast<double>(i) / static_cast<double>(n);
      acc += input[i] * cplx{std::cos(angle), std::sin(angle)};
    }
    out[k] = acc;
  }
  return out;
}

cvec idft(std::span<const cplx> input) {
  const std::size_t n = input.size();
  cvec out(n);
  for (std::size_t i = 0; i < n; ++i) {
    cplx acc{0.0, 0.0};
    for (std::size_t k = 0; k < n; ++k) {
      const double angle =
          kTwoPi * static_cast<double>(k) * static_cast<double>(i) / static_cast<double>(n);
      acc += input[k] * cplx{std::cos(angle), std::sin(angle)};
    }
    out[i] = acc / static_cast<double>(n);
  }
  return out;
}

cvec random_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  cvec x(n);
  for (auto& v : x) v = rng.complex_gaussian(1.0);
  return x;
}

double max_abs_diff(const cvec& a, const cvec& b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) worst = std::max(worst, std::abs(a[i] - b[i]));
  return worst;
}

TEST(FftTest, PowerOfTwoDetection) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(2));
  EXPECT_TRUE(is_power_of_two(64));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(3));
  EXPECT_FALSE(is_power_of_two(65));
}

TEST(FftTest, RejectsNonPowerOfTwoSizes) {
  EXPECT_THROW(FftPlan(3), ContractError);
  EXPECT_THROW(FftPlan(0), ContractError);
  EXPECT_THROW(FftPlan(1), ContractError);
}

TEST(FftTest, RejectsWrongInputLength) {
  FftPlan plan(8);
  cvec x(7);
  EXPECT_THROW(plan.forward(x), ContractError);
  EXPECT_THROW(plan.inverse(x), ContractError);
}

TEST(FftTest, ImpulseTransformsToFlatSpectrum) {
  FftPlan plan(16);
  cvec x(16, cplx{0.0, 0.0});
  x[0] = {1.0, 0.0};
  const cvec spectrum = plan.forward(x);
  for (const cplx& value : spectrum) {
    EXPECT_NEAR(value.real(), 1.0, 1e-12);
    EXPECT_NEAR(value.imag(), 0.0, 1e-12);
  }
}

TEST(FftTest, SingleToneLandsInOneBin) {
  const std::size_t n = 64;
  FftPlan plan(n);
  cvec x(n);
  const std::size_t tone = 5;
  for (std::size_t i = 0; i < n; ++i) {
    const double angle = kTwoPi * static_cast<double>(tone) * static_cast<double>(i) /
                         static_cast<double>(n);
    x[i] = {std::cos(angle), std::sin(angle)};
  }
  const cvec spectrum = plan.forward(x);
  for (std::size_t k = 0; k < n; ++k) {
    if (k == tone) {
      EXPECT_NEAR(std::abs(spectrum[k]), static_cast<double>(n), 1e-9);
    } else {
      EXPECT_NEAR(std::abs(spectrum[k]), 0.0, 1e-9);
    }
  }
}

class FftSizesTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizesTest, MatchesReferenceDft) {
  const std::size_t n = GetParam();
  const cvec x = random_signal(n, 100 + n);
  FftPlan plan(n);
  EXPECT_LT(max_abs_diff(plan.forward(x), dft(x)), 1e-9);
}

TEST_P(FftSizesTest, InverseMatchesReferenceIdft) {
  const std::size_t n = GetParam();
  const cvec x = random_signal(n, 200 + n);
  FftPlan plan(n);
  EXPECT_LT(max_abs_diff(plan.inverse(x), idft(x)), 1e-9);
}

TEST_P(FftSizesTest, RoundTripIsIdentity) {
  const std::size_t n = GetParam();
  const cvec x = random_signal(n, 300 + n);
  FftPlan plan(n);
  EXPECT_LT(max_abs_diff(plan.inverse(plan.forward(x)), x), 1e-9);
}

TEST_P(FftSizesTest, ParsevalHolds) {
  // The identity the attack's Eq. (2) rests on:
  // sum |x|^2 == (1/N) sum |X|^2.
  const std::size_t n = GetParam();
  const cvec x = random_signal(n, 400 + n);
  FftPlan plan(n);
  const cvec spectrum = plan.forward(x);
  EXPECT_NEAR(energy(x), energy(spectrum) / static_cast<double>(n), 1e-8 * energy(x));
}

TEST_P(FftSizesTest, LinearityHolds) {
  const std::size_t n = GetParam();
  const cvec a = random_signal(n, 500 + n);
  const cvec b = random_signal(n, 600 + n);
  cvec sum(n);
  for (std::size_t i = 0; i < n; ++i) sum[i] = 2.0 * a[i] + cplx{0.0, 3.0} * b[i];
  FftPlan plan(n);
  const cvec fa = plan.forward(a);
  const cvec fb = plan.forward(b);
  const cvec fsum = plan.forward(sum);
  cvec expected(n);
  for (std::size_t i = 0; i < n; ++i) expected[i] = 2.0 * fa[i] + cplx{0.0, 3.0} * fb[i];
  EXPECT_LT(max_abs_diff(fsum, expected), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftSizesTest,
                         ::testing::Values(2, 4, 8, 16, 32, 64, 128, 256));

/// FftPlan's transform as it read its twiddles before the per-stage
/// tables: one N/2-entry table indexed at k * N/len, conjugated per
/// butterfly when inverting. The butterflies are the same std::complex
/// multiply (GCC's inline product with the __muldc3 call when both parts
/// come out NaN), add and subtract.
cvec strided_transform(const cvec& input, bool invert) {
  const std::size_t n = input.size();
  cvec twiddles(n / 2);
  for (std::size_t k = 0; k < n / 2; ++k) {
    const double angle =
        -kTwoPi * static_cast<double>(k) / static_cast<double>(n);
    twiddles[k] = {std::cos(angle), std::sin(angle)};
  }
  std::size_t bits = 0;
  for (std::size_t probe = n; probe > 1; probe >>= 1) ++bits;
  cvec data = input;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t reversed = 0;
    for (std::size_t b = 0; b < bits; ++b) {
      if (i & (std::size_t{1} << b)) {
        reversed |= std::size_t{1} << (bits - 1 - b);
      }
    }
    if (i < reversed) std::swap(data[i], data[reversed]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const std::size_t stride = n / len;
    for (std::size_t start = 0; start < n; start += len) {
      for (std::size_t k = 0; k < half; ++k) {
        cplx w = twiddles[k * stride];
        if (invert) w = std::conj(w);
        const cplx even = data[start + k];
        const cplx odd = data[start + k + half] * w;
        data[start + k] = even + odd;
        data[start + k + half] = even - odd;
      }
    }
  }
  if (invert) {
    const double scale = 1.0 / static_cast<double>(n);
    for (auto& value : data) value *= scale;
  }
  return data;
}

/// Same bits, or NaN in both (a NaN's payload and sign follow the operand
/// order the compiler picks, not the algorithm).
void expect_same_samples(const cvec& got, const cvec& want,
                         const std::string& what) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    for (const auto& [a, b] : {std::pair{got[i].real(), want[i].real()},
                               std::pair{got[i].imag(), want[i].imag()}}) {
      ASSERT_TRUE(std::memcmp(&a, &b, sizeof a) == 0 ||
                  (std::isnan(a) && std::isnan(b)))
          << what << ": bin " << i << " is " << a << ", want " << b;
    }
  }
}

TEST(FftTest, PerStageTwiddlesMatchTheStridedTransformBitwise) {
  Rng rng(29);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t n = 2; n <= 1024; n *= 2) {
    const FftPlan plan(n);
    for (int variant = 0; variant < 6; ++variant) {
      cvec x(n);
      for (auto& v : x) v = rng.complex_gaussian(1.0);
      if (variant == 1) x[rng.next_u64() % n] = cplx{nan, 0.0};  // __muldc3
      if (variant == 2) x[rng.next_u64() % n] = cplx{nan, nan};
      if (variant == 3) {
        for (auto& v : x) v = cplx{-0.0, -0.0};
      }
      if (variant == 4) {
        for (std::size_t i = 0; i < n; i += 2) x[i] = cplx{-0.0, 0.0};
      }
      if (variant == 5) {
        x[rng.next_u64() % n] =
            cplx{std::numeric_limits<double>::infinity(), 1.0};
      }
      for (const bool invert : {false, true}) {
        const std::string what = "n=" + std::to_string(n) + " variant " +
                                 std::to_string(variant) +
                                 (invert ? " inverse" : " forward");
        const cvec got = invert ? plan.inverse(x) : plan.forward(x);
        const cvec want = strided_transform(x, invert);
        if (variant == 1 || variant == 2 || variant == 5) {
          expect_same_samples(got, want, what);
        } else {
          ASSERT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(cplx)), 0)
              << what;
        }
      }
    }
  }
}

}  // namespace
}  // namespace ctc::dsp
