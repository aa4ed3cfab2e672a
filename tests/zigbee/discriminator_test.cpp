// Accuracy of discriminator 2 (zigbee::kDiscriminator): the fdlibm atan2
// behind the fm_discriminate kernel against libm, and the FM-discriminator
// chips of received frames against discriminator 1's per-step libm loop.
// Seeds are fixed, so every bound below is a deterministic check.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "channel/environment.h"
#include "dsp/kernels/kernels.h"
#include "dsp/rng.h"
#include "zigbee/app.h"
#include "zigbee/oqpsk.h"
#include "zigbee/transmitter.h"

namespace ctc::zigbee {
namespace {

// Discriminator 1: the per-step libm loop extend_frequency_chips ran before
// the fm_discriminate kernel. Kept only as this test's oracle.
rvec libm_frequency_chips(std::span<const cplx> waveform,
                          std::size_t num_chips, std::size_t spc) {
  rvec chips(num_chips, 0.0);
  for (std::size_t i = 0; i < num_chips; ++i) {
    double rotation = 0.0;
    for (std::size_t s = i * spc + 1; s <= (i + 1) * spc; ++s) {
      const cplx step = waveform[s] * std::conj(waveform[s - 1]);
      if (std::norm(step) > 1e-24) {
        rotation += std::atan2(step.imag(), step.real());
      }
    }
    chips[i] = rotation / (kPi / 2.0);
  }
  return chips;
}

double ulp(double x) {
  const double mag = std::abs(x);
  return std::nextafter(mag, std::numeric_limits<double>::infinity()) - mag;
}

void expect_within_two_ulp(double y, double x) {
  const double ours = dsp::kernels::fm_atan2(y, x);
  const double libm = std::atan2(y, x);
  EXPECT_LE(std::abs(ours - libm), 2.0 * ulp(libm))
      << "atan2(" << y << ", " << x << "): " << ours << " vs " << libm;
}

TEST(DiscriminatorTest, FmAtan2WithinTwoUlpOfLibm) {
  // A dense sweep of angles over all four quadrants at radii 1e-12 .. 1e12.
  for (int k = 0; k < 65536; ++k) {
    const double angle = kPi * (k - 32768) / 32768.0;
    for (double radius : {1e-12, 1e-3, 1.0, 7.5, 1e12}) {
      expect_within_two_ulp(radius * std::sin(angle),
                            radius * std::cos(angle));
    }
  }
  // Ratios on s_atan's reduction thresholds (+-1 ulp), in every quadrant.
  for (double t : {0x1p-27, 0.4375, 0.6875, 1.1875, 2.4375, 0x1p60}) {
    for (double r : {std::nextafter(t, 0.0), t, std::nextafter(t, 4.0 * t)}) {
      for (double x : {1.0, 3.0, 0.7}) {
        expect_within_two_ulp(r * x, x);
        expect_within_two_ulp(r * x, -x);
        expect_within_two_ulp(-r * x, x);
        expect_within_two_ulp(-r * x, -x);
      }
    }
  }
  // Gaussian pairs: the shape of a noisy discriminator step.
  dsp::Rng rng(14);
  for (int i = 0; i < 500000; ++i) {
    const cplx v = rng.complex_gaussian(2.0);
    expect_within_two_ulp(v.imag(), v.real());
  }
}

TEST(DiscriminatorTest, SignedZerosInfinitiesAndNanMatchLibm) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> specials = {0.0, -0.0, inf, -inf, nan};
  const std::vector<double> others = {
      0.0,  -0.0,  inf,    -inf,   nan,    1.0,     -1.0,
      0.25, -3.5,  1e300,  -1e300, 1e-310, -1e-310, 0x1p-1074};
  for (double special : specials) {
    for (double other : others) {
      for (const auto& [y, x] : {std::pair{special, other},
                                 std::pair{other, special}}) {
        const double ours = dsp::kernels::fm_atan2(y, x);
        const double libm = std::atan2(y, x);
        if (std::isnan(libm)) {
          EXPECT_TRUE(std::isnan(ours)) << "atan2(" << y << ", " << x << ")";
          continue;
        }
        EXPECT_EQ(std::bit_cast<std::uint64_t>(ours),
                  std::bit_cast<std::uint64_t>(libm))
            << "atan2(" << y << ", " << x << "): " << ours << " vs " << libm;
      }
    }
  }
}

TEST(DiscriminatorTest, ChipsTrackTheLibmDiscriminatorOnReceivedFrames) {
  const auto frames = make_text_workload(20);
  const Transmitter tx;
  const OqpskDemodulator demodulator(2);
  std::size_t compared = 0;
  for (double snr_db : {7.0, 12.0, 17.0}) {
    const auto environment = channel::Environment::awgn(snr_db);
    for (std::size_t f = 0; f < frames.size(); ++f) {
      dsp::Rng rng = dsp::Rng::for_stream(1408, f);
      const cvec received =
          environment.propagate(tx.transmit_frame(frames[f]), rng);
      const std::size_t chips = received.size() / 2 - 1;
      const rvec ours = demodulator.frequency_chips(received, chips);
      const rvec libm = libm_frequency_chips(received, chips, 2);
      for (std::size_t i = 0; i < chips; ++i) {
        EXPECT_LE(std::abs(ours[i] - libm[i]), 1e-15)
            << "snr=" << snr_db << " frame=" << f << " chip=" << i;
        EXPECT_EQ(ours[i] > 0.0, libm[i] > 0.0)
            << "sign flip at snr=" << snr_db << " frame=" << f
            << " chip=" << i;
      }
      compared += chips;
    }
  }
  EXPECT_EQ(compared, 3u * 20u * 1408u);
}

}  // namespace
}  // namespace ctc::zigbee
