#include "dsp/fir.h"

#include <cmath>

#include "dsp/require.h"

namespace ctc::dsp {

rvec design_lowpass(double cutoff, std::size_t num_taps, WindowKind window) {
  CTC_REQUIRE_MSG(cutoff > 0.0 && cutoff < 0.5,
                  "cutoff must be a fraction of the sample rate in (0, 0.5)");
  CTC_REQUIRE_MSG(num_taps % 2 == 1 && num_taps >= 3,
                  "need an odd tap count for integer group delay");
  const rvec w = make_window(window, num_taps);
  rvec taps(num_taps);
  const double center = static_cast<double>(num_taps - 1) / 2.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < num_taps; ++i) {
    const double t = static_cast<double>(i) - center;
    const double x = kTwoPi * cutoff * t;
    const double sinc = (std::abs(t) < 1e-12) ? 1.0 : std::sin(x) / x;
    taps[i] = 2.0 * cutoff * sinc * w[i];
    sum += taps[i];
  }
  for (auto& tap : taps) tap /= sum;  // unity DC gain
  return taps;
}

}  // namespace ctc::dsp
