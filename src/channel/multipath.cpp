#include "channel/multipath.h"

#include <cmath>

#include "channel/fading.h"
#include "dsp/require.h"
#include "dsp/stats.h"

namespace ctc::channel {

cvec draw_multipath_taps(const MultipathProfile& profile, dsp::Rng& rng) {
  CTC_REQUIRE(profile.num_taps >= 1);
  CTC_REQUIRE(profile.decay_per_tap_db >= 0.0);
  cvec taps(profile.num_taps);
  double total_power = 0.0;
  rvec tap_power(profile.num_taps);
  for (std::size_t l = 0; l < profile.num_taps; ++l) {
    tap_power[l] = dsp::from_db(-profile.decay_per_tap_db * static_cast<double>(l));
    total_power += tap_power[l];
  }
  for (std::size_t l = 0; l < profile.num_taps; ++l) {
    const double scale = std::sqrt(tap_power[l] / total_power);
    taps[l] = scale * (l == 0 ? rician_tap(profile.k_factor, rng)
                              : rayleigh_tap(rng));
  }
  return taps;
}

void apply_multipath_inplace(std::span<cplx> signal,
                             std::span<const cplx> taps) {
  CTC_REQUIRE(!taps.empty());
  // Causal convolution reads only indices <= n, so sweeping n backward sees
  // every signal[n - l] before it is overwritten.
  for (std::size_t n = signal.size(); n-- > 0;) {
    cplx acc{0.0, 0.0};
    const std::size_t depth = std::min(taps.size(), n + 1);
    for (std::size_t l = 0; l < depth; ++l) acc += taps[l] * signal[n - l];
    signal[n] = acc;
  }
}

}  // namespace ctc::channel
