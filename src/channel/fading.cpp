#include "channel/fading.h"

#include <cmath>

#include "dsp/require.h"

namespace ctc::channel {

cplx rayleigh_tap(dsp::Rng& rng) { return rng.complex_gaussian(1.0); }

cplx rician_tap(double k_factor, dsp::Rng& rng) {
  CTC_REQUIRE(k_factor >= 0.0);
  const double los = std::sqrt(k_factor / (k_factor + 1.0));
  const double scatter_variance = 1.0 / (k_factor + 1.0);
  return cplx{los, 0.0} + rng.complex_gaussian(scatter_variance);
}

void apply_flat_fading_inplace(std::span<cplx> signal, cplx tap) {
  for (auto& x : signal) x *= tap;
}

}  // namespace ctc::channel
