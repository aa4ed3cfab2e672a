#include "channel/impairments.h"

#include <cmath>

#include "dsp/kernels/kernels.h"
#include "dsp/require.h"
#include "dsp/resample.h"

namespace ctc::channel {

void apply_cfo_inplace(std::span<cplx> signal, double cfo_hz,
                       double sample_rate_hz, double initial_phase_rad) {
  dsp::mix(signal, signal, cfo_hz, sample_rate_hz, initial_phase_rad);
}

void apply_timing_offset_inplace(std::span<cplx> signal,
                                 double delay_fraction) {
  CTC_REQUIRE(delay_fraction >= 0.0 && delay_fraction < 1.0);
  // Backward two-tap sweep; the kernel keeps the explicit fl(0 * d) add on
  // the first sample, matching the legacy `previous = {0, 0}` loop.
  dsp::kernels::active().two_tap(signal.data(), signal.size(),
                                 1.0 - delay_fraction, delay_fraction);
}

}  // namespace ctc::channel
