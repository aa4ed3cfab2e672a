#include "channel/multipath.h"

#include <gtest/gtest.h>

#include "channel/environment.h"
#include "dsp/require.h"
#include "dsp/stats.h"

namespace ctc::channel {
namespace {

TEST(MultipathTest, TapsHaveUnitAveragePower) {
  dsp::Rng rng(220);
  MultipathProfile profile;
  double power = 0.0;
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    const cvec taps = draw_multipath_taps(profile, rng);
    for (const cplx& tap : taps) power += std::norm(tap);
  }
  EXPECT_NEAR(power / trials, 1.0, 0.03);
}

TEST(MultipathTest, PowerDelayProfileDecays) {
  dsp::Rng rng(221);
  MultipathProfile profile;
  profile.num_taps = 5;
  rvec tap_power(profile.num_taps, 0.0);
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    const cvec taps = draw_multipath_taps(profile, rng);
    for (std::size_t l = 0; l < taps.size(); ++l) tap_power[l] += std::norm(taps[l]);
  }
  for (std::size_t l = 1; l < tap_power.size(); ++l) {
    EXPECT_LT(tap_power[l], tap_power[l - 1]);
    // ~6 dB decay per tap.
    EXPECT_NEAR(tap_power[l] / tap_power[l - 1], 0.25, 0.08);
  }
}

TEST(MultipathTest, SingleTapIsFlatFading) {
  dsp::Rng rng(222);
  MultipathProfile profile;
  profile.num_taps = 1;
  const cvec taps = draw_multipath_taps(profile, rng);
  ASSERT_EQ(taps.size(), 1u);
  const cvec x = {{1.0, 0.0}, {0.0, 1.0}, {-1.0, 0.0}};
  cvec y = x;
  apply_multipath_inplace(y, taps);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(std::abs(y[i] - taps[0] * x[i]), 0.0, 1e-12);
  }
}

TEST(MultipathTest, ConvolutionIsCausalAndSameLength) {
  const cvec taps = {{1.0, 0.0}, {0.5, 0.0}};
  const cvec x = {{1.0, 0.0}, {0.0, 0.0}, {0.0, 0.0}};
  cvec y = x;
  apply_multipath_inplace(y, taps);
  ASSERT_EQ(y.size(), x.size());
  EXPECT_NEAR(std::abs(y[0] - cplx(1.0, 0.0)), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(y[1] - cplx(0.5, 0.0)), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(y[2]), 0.0, 1e-12);
}

TEST(MultipathTest, RejectsBadProfileAndEmptyTaps) {
  dsp::Rng rng(223);
  MultipathProfile profile;
  profile.num_taps = 0;
  EXPECT_THROW(draw_multipath_taps(profile, rng), ContractError);
  cvec signal(4);
  EXPECT_THROW(apply_multipath_inplace(signal, cvec{}), ContractError);
}

TEST(MultipathTest, EnvironmentPrefersMultipathOverFlatFading) {
  dsp::Rng rng_a(224);
  dsp::Rng rng_b(224);
  Environment env = Environment::awgn(60.0);
  env.rician_k_factor = 8.0;
  Environment env_mp = env;
  env_mp.multipath = MultipathProfile{};
  const cvec x(64, cplx{1.0, 0.0});
  const cvec flat = env.propagate(x, rng_a);
  const cvec selective = env_mp.propagate(x, rng_b);
  // Flat fading scales the steady-state DC signal uniformly; multipath has a
  // transient over the first taps.
  bool differs = false;
  for (std::size_t i = 0; i < 4; ++i) {
    if (std::abs(flat[i] - selective[i]) > 1e-6) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(MultipathTest, DestroysCyclicPrefixRepetition) {
  // The honest version of the paper's Sec. VI-A1 argument: delay spread
  // decorrelates the CP from the symbol tail. Build an 80-sample periodic
  // structure and measure head/tail correlation before and after multipath.
  dsp::Rng rng(225);
  cvec wave;
  for (int block = 0; block < 50; ++block) {
    cvec body(64);
    for (auto& v : body) v = rng.complex_gaussian(1.0);
    for (std::size_t i = 0; i < 16; ++i) wave.push_back(body[48 + i]);  // CP
    wave.insert(wave.end(), body.begin(), body.end());
  }
  auto cp_corr = [](const cvec& w) {
    cplx acc{0.0, 0.0};
    double energy = 0.0;
    for (std::size_t b = 0; b + 80 <= w.size(); b += 80) {
      for (std::size_t i = 0; i < 16; ++i) {
        acc += w[b + i] * std::conj(w[b + 64 + i]);
        energy += 0.5 * (std::norm(w[b + i]) + std::norm(w[b + 64 + i]));
      }
    }
    return std::abs(acc) / energy;
  };
  EXPECT_GT(cp_corr(wave), 0.99);
  MultipathProfile profile;
  profile.num_taps = 12;          // strong delay spread at 20 MHz
  profile.decay_per_tap_db = 1.0;
  profile.k_factor = 0.0;
  cvec faded = wave;
  apply_multipath_inplace(faded, draw_multipath_taps(profile, rng));
  // Repetition survives multipath (linear convolution preserves periodic
  // structure within a block) — but equalizer-less *energy* dispersion and
  // ISI across block boundaries reduce the normalized correlation.
  EXPECT_LT(cp_corr(faded), cp_corr(wave));
}

}  // namespace
}  // namespace ctc::channel
