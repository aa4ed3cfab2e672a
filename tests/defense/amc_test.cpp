#include "defense/amc.h"

#include <gtest/gtest.h>

#include "dsp/constellation.h"
#include "dsp/require.h"
#include "dsp/rng.h"
#include "dsp/stats.h"

namespace ctc::defense {
namespace {

cvec constellation_of(ModulationClass klass) {
  switch (klass) {
    case ModulationClass::bpsk: return dsp::make_psk(2);
    case ModulationClass::qpsk: return dsp::make_psk(4);
    case ModulationClass::psk_higher: return dsp::make_psk(8);
    case ModulationClass::pam4: return dsp::make_pam(4);
    case ModulationClass::pam8: return dsp::make_pam(8);
    case ModulationClass::pam16: return dsp::make_pam(16);
    case ModulationClass::qam16: return dsp::make_qam(16);
    case ModulationClass::qam64: return dsp::make_qam(64);
    case ModulationClass::qam256: return dsp::make_qam(256);
  }
  CTC_REQUIRE_MSG(false, "unknown class");
}

cvec noisy_samples(ModulationClass klass, std::size_t n, double noise_variance,
                   dsp::Rng& rng) {
  const cvec constellation = constellation_of(klass);
  cvec samples(n);
  for (auto& s : samples) {
    s = constellation[rng.uniform_index(constellation.size())] +
        rng.complex_gaussian(noise_variance);
  }
  return samples;
}

// Classes that are separable by (|C20|, C40, C42) features alone. The PAM
// family beyond order 8 and the dense QAM family have nearly identical
// fourth-order cumulants (Table III rows differ by < 0.03), so estimation
// noise conflates them; we test the representative set exactly and the
// ambiguous ones as family-level.
class AmcSeparableTest : public ::testing::TestWithParam<ModulationClass> {};

TEST_P(AmcSeparableTest, NoiselessSamplesClassifyExactly) {
  dsp::Rng rng(270 + static_cast<int>(GetParam()));
  const cvec samples = noisy_samples(GetParam(), 20000, 0.0, rng);
  const AmcResult result = classify_modulation(samples);
  EXPECT_EQ(result.best, GetParam()) << to_string(result.best);
}

TEST_P(AmcSeparableTest, ClassifiesAt15DbWithNoiseCorrection) {
  dsp::Rng rng(280 + static_cast<int>(GetParam()));
  const double noise_variance = dsp::from_db(-15.0);
  const cvec samples = noisy_samples(GetParam(), 50000, noise_variance, rng);
  AmcConfig config;
  config.noise_variance = noise_variance;
  const AmcResult result = classify_modulation(samples, config);
  EXPECT_EQ(result.best, GetParam()) << to_string(result.best);
}

INSTANTIATE_TEST_SUITE_P(
    Classes, AmcSeparableTest,
    ::testing::Values(ModulationClass::bpsk, ModulationClass::qpsk,
                      ModulationClass::psk_higher, ModulationClass::pam4,
                      ModulationClass::qam16),
    [](const auto& name_info) {
      std::string name = to_string(name_info.param);
      std::erase_if(name, [](char c) { return !std::isalnum(static_cast<unsigned char>(c)); });
      return name;
    });

TEST(AmcTest, DenseQamClassifiesWithinItsFamily) {
  dsp::Rng rng(290);
  for (ModulationClass klass :
       {ModulationClass::qam16, ModulationClass::qam64, ModulationClass::qam256}) {
    const cvec samples = noisy_samples(klass, 50000, 0.0, rng);
    const AmcResult result = classify_modulation(samples);
    const bool in_family = result.best == ModulationClass::qam16 ||
                           result.best == ModulationClass::qam64 ||
                           result.best == ModulationClass::qam256;
    EXPECT_TRUE(in_family) << to_string(result.best);
  }
}

TEST(AmcTest, RankingIsSortedAndComplete) {
  dsp::Rng rng(291);
  const cvec samples = noisy_samples(ModulationClass::qpsk, 5000, 0.01, rng);
  const AmcResult result = classify_modulation(samples);
  ASSERT_EQ(result.ranking.size(), 9u);
  for (std::size_t i = 1; i < result.ranking.size(); ++i) {
    EXPECT_LE(result.ranking[i - 1].distance_sq, result.ranking[i].distance_sq);
  }
  EXPECT_EQ(result.ranking.front().modulation, result.best);
  EXPECT_DOUBLE_EQ(result.ranking.front().distance_sq, result.distance_sq);
}

TEST(AmcTest, MagnitudeModeIsRotationInvariant) {
  dsp::Rng rng(292);
  cvec samples = noisy_samples(ModulationClass::qpsk, 20000, 0.01, rng);
  const cplx rotation = std::polar(1.0, 0.4);
  for (auto& s : samples) s *= rotation;
  AmcConfig plain;
  AmcConfig magnitude;
  magnitude.use_c40_magnitude = true;
  // Plain mode: rotated QPSK's C40 = e^{j1.6} is far from +1.
  EXPECT_NE(classify_modulation(samples, plain).best, ModulationClass::qpsk);
  EXPECT_EQ(classify_modulation(samples, magnitude).best, ModulationClass::qpsk);
}

TEST(AmcTest, RequiresEnoughSamplesAndSaneNoise) {
  EXPECT_THROW(classify_modulation(cvec(3)), ContractError);
  dsp::Rng rng(294);
  const cvec samples = noisy_samples(ModulationClass::qpsk, 100, 0.0, rng);
  AmcConfig config;
  config.noise_variance = 10.0;
  EXPECT_THROW(classify_modulation(samples, config), ContractError);
}

}  // namespace
}  // namespace ctc::defense
