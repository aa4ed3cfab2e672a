#include <gtest/gtest.h>

#include <cmath>

#include "channel/awgn.h"
#include "channel/environment.h"
#include "channel/fading.h"
#include "channel/impairments.h"
#include "channel/pathloss.h"
#include "dsp/require.h"
#include "dsp/stats.h"

namespace ctc::channel {
namespace {

cvec unit_signal(std::size_t n) { return cvec(n, cplx{1.0, 0.0}); }

TEST(AwgnTest, NoisePowerMatchesRequestedSnr) {
  dsp::Rng rng(31);
  const cvec x = unit_signal(20000);
  const cvec y = add_awgn(x, 10.0, rng);
  cvec noise(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) noise[i] = y[i] - x[i];
  EXPECT_NEAR(dsp::average_power(noise), 0.1, 0.01);
}

TEST(AwgnTest, ZeroVarianceIsTransparent) {
  dsp::Rng rng(32);
  const cvec x = unit_signal(10);
  cvec y = x;
  add_noise_variance_inplace(y, 0.0, rng);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(y[i], x[i]);
  EXPECT_THROW(add_noise_variance_inplace(y, -0.1, rng), ContractError);
}

TEST(AwgnTest, PaperConventionSnrIsInverseVariance) {
  // Unit-power signal + noise variance 10^(-snr/10).
  dsp::Rng rng(33);
  const cvec x = unit_signal(50000);
  cvec y = x;
  add_noise_variance_inplace(y, dsp::from_db(-7.0), rng);
  cvec noise(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) noise[i] = y[i] - x[i];
  EXPECT_NEAR(10.0 * std::log10(1.0 / dsp::average_power(noise)), 7.0, 0.3);
}

TEST(ImpairmentsTest, CfoAccumulatesPhase) {
  cvec y = unit_signal(5);
  apply_cfo_inplace(y, 1.0e6, 4.0e6);  // pi/2 per sample
  EXPECT_NEAR(std::abs(y[0] - cplx(1.0, 0.0)), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(y[1] - cplx(0.0, 1.0)), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(y[2] - cplx(-1.0, 0.0)), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(y[4] - cplx(1.0, 0.0)), 0.0, 1e-9);
}

TEST(ImpairmentsTest, TimingOffsetInterpolatesLinearly) {
  const cvec x = {{0.0, 0.0}, {4.0, 0.0}, {8.0, 0.0}};
  cvec y = x;
  apply_timing_offset_inplace(y, 0.25);
  EXPECT_NEAR(y[1].real(), 3.0, 1e-12);  // 0.75*4 + 0.25*0
  EXPECT_NEAR(y[2].real(), 7.0, 1e-12);
  cvec z = x;
  EXPECT_THROW(apply_timing_offset_inplace(z, 1.0), ContractError);
  EXPECT_THROW(apply_timing_offset_inplace(z, -0.1), ContractError);
}

TEST(ImpairmentsTest, ZeroOffsetsAreIdentity) {
  const cvec x = {{1.0, 2.0}, {3.0, 4.0}};
  cvec y = x;
  apply_timing_offset_inplace(y, 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(y[i], x[i]);
}

TEST(PathLossTest, SnrFallsWithDistance) {
  PathLossModel model;
  EXPECT_DOUBLE_EQ(model.snr_db(1.0), model.snr_at_1m_db);
  EXPECT_GT(model.snr_db(2.0), model.snr_db(4.0));
  // 10 * n dB per decade.
  EXPECT_NEAR(model.snr_db(1.0) - model.snr_db(10.0), 10.0 * model.exponent, 1e-9);
  EXPECT_THROW(model.snr_db(0.0), ContractError);
}

TEST(PathLossTest, RssiFallsWithDistance) {
  PathLossModel model;
  EXPECT_DOUBLE_EQ(model.rssi_dbm(1.0), model.rssi_at_1m_dbm);
  EXPECT_GT(model.rssi_dbm(2.0), model.rssi_dbm(8.0));
}

TEST(FadingTest, RayleighTapUnitAveragePower) {
  dsp::Rng rng(34);
  double power = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) power += std::norm(rayleigh_tap(rng));
  EXPECT_NEAR(power / n, 1.0, 0.03);
}

TEST(FadingTest, RicianTapUnitPowerAndLosBias) {
  dsp::Rng rng(35);
  const double k = 8.0;
  double power = 0.0;
  cplx mean{0.0, 0.0};
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const cplx h = rician_tap(k, rng);
    power += std::norm(h);
    mean += h;
  }
  EXPECT_NEAR(power / n, 1.0, 0.03);
  EXPECT_NEAR((mean / static_cast<double>(n)).real(), std::sqrt(k / (k + 1.0)), 0.02);
  EXPECT_THROW(rician_tap(-1.0, rng), ContractError);
}

TEST(FadingTest, ZeroKFactorIsRayleigh) {
  dsp::Rng rng(36);
  cplx mean{0.0, 0.0};
  const int n = 20000;
  for (int i = 0; i < n; ++i) mean += rician_tap(0.0, rng);
  EXPECT_NEAR(std::abs(mean) / n, 0.0, 0.03);
}

TEST(EnvironmentTest, AwgnFactoryUsesRequestedSnr) {
  const Environment env = Environment::awgn(12.5);
  EXPECT_DOUBLE_EQ(env.effective_snr_db(), 12.5);
}

TEST(EnvironmentTest, RealWorldUsesPathLoss) {
  const Environment env = Environment::real_world(4.0);
  PathLossModel model;
  EXPECT_DOUBLE_EQ(env.effective_snr_db(), model.snr_db(4.0));
}

TEST(EnvironmentTest, PropagationAddsCalibatedNoise) {
  dsp::Rng rng(37);
  Environment env = Environment::awgn(3.0);
  const cvec x = unit_signal(30000);
  const cvec y = env.propagate(x, rng);
  cvec noise(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) noise[i] = y[i] - x[i];
  EXPECT_NEAR(dsp::average_power(noise), dsp::from_db(-3.0), 0.02);
}

TEST(EnvironmentTest, RealWorldIsReproducibleGivenSeed) {
  const Environment env = Environment::real_world(3.0);
  const cvec x = unit_signal(100);
  dsp::Rng rng_a(5);
  dsp::Rng rng_b(5);
  const cvec a = env.propagate(x, rng_a);
  const cvec b = env.propagate(x, rng_b);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

}  // namespace
}  // namespace ctc::channel
