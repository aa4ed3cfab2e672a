#include "defense/likelihood.h"

#include <gtest/gtest.h>

#include "dsp/constellation.h"
#include "dsp/require.h"
#include "dsp/rng.h"
#include "dsp/stats.h"

namespace ctc::defense {
namespace {

cvec draw(const cvec& constellation, std::size_t n, double noise, dsp::Rng& rng) {
  cvec samples(n);
  for (auto& s : samples) {
    s = constellation[rng.uniform_index(constellation.size())] +
        rng.complex_gaussian(noise);
  }
  return samples;
}

TEST(LogLikelihoodTest, TrueConstellationBeatsWrongOne) {
  dsp::Rng rng(1700);
  const double noise = 0.05;
  const cvec samples = draw(dsp::make_psk(4), 2000, noise, rng);
  const double qpsk = log_likelihood(samples, dsp::make_psk(4), noise, 0.0);
  const double bpsk = log_likelihood(samples, dsp::make_psk(2), noise, 0.0);
  const double qam = log_likelihood(samples, dsp::make_qam(16), noise, 0.0);
  EXPECT_GT(qpsk, bpsk);
  EXPECT_GT(qpsk, qam);
}

TEST(LogLikelihoodTest, CorrectPhaseBeatsWrongPhase) {
  dsp::Rng rng(1701);
  const double noise = 0.05;
  cvec samples = draw(dsp::make_psk(4), 2000, noise, rng);
  const cplx rotation = std::polar(1.0, 0.35);
  for (auto& s : samples) s *= rotation;
  const cvec qpsk = dsp::make_psk(4);
  EXPECT_GT(log_likelihood(samples, qpsk, noise, 0.35),
            log_likelihood(samples, qpsk, noise, 0.0));
}

TEST(LogLikelihoodTest, ValidatesInputs) {
  const cvec samples = {{1.0, 0.0}};
  EXPECT_THROW(log_likelihood(samples, dsp::make_psk(4), 0.0, 0.0), ContractError);
  EXPECT_THROW(log_likelihood(cvec{}, dsp::make_psk(4), 0.1, 0.0), ContractError);
  EXPECT_THROW(log_likelihood(samples, cvec{}, 0.1, 0.0), ContractError);
}

TEST(HlrtTest, BinaryLlrSeparatesQpskFromQam) {
  dsp::Rng rng(1721);
  const double noise = 0.05;
  LikelihoodConfig config;
  config.noise_variance = noise;
  const cvec qpsk_samples = draw(dsp::make_psk(4), 1500, noise, rng);
  const cvec qam_samples = draw(dsp::make_qam(64), 1500, noise, rng);
  EXPECT_GT(qpsk_vs_qam64_llr(qpsk_samples, config), 0.0);
  EXPECT_LT(qpsk_vs_qam64_llr(qam_samples, config), 0.0);
}

TEST(HlrtTest, UnknownSignalLevelIsHandledByNormalization) {
  dsp::Rng rng(1722);
  cvec samples = draw(dsp::make_psk(4), 1500, 0.05, rng);
  for (auto& s : samples) s *= 11.0;  // arbitrary gain
  LikelihoodConfig config;
  config.noise_variance = 0.05 / (dsp::average_power(samples) / 121.0 / 1.0);
  // Normalization makes the gain irrelevant; use a sane noise figure.
  config.noise_variance = 0.06;
  EXPECT_GT(qpsk_vs_qam64_llr(samples, config), 0.0);
}

}  // namespace
}  // namespace ctc::defense
