// Deterministic front-end impairments: carrier frequency offset and sample
// timing offset.
//
// Sec. VI-C of the paper observes that the "real environment" constellation
// is rotated by a frequency/phase offset (Fig. 6b) and switches the defense
// to |C40|; these impairments reproduce that effect in simulation.
#pragma once

#include <span>

#include "dsp/types.h"

namespace ctc::channel {

/// Applies a carrier frequency offset of `cfo_hz` at `sample_rate_hz`
/// starting from `initial_phase_rad`, in place. The propagate hot path runs
/// these *_inplace stages on a reused workspace so a Monte Carlo trial
/// allocates nothing in the channel stage.
void apply_cfo_inplace(std::span<cplx> signal, double cfo_hz,
                       double sample_rate_hz, double initial_phase_rad = 0.0);

/// Fractional-sample delay via linear interpolation (0 <= delay < 1), in
/// place: a backward sweep reads each untouched predecessor before
/// overwriting it. The first sample interpolates toward zero.
void apply_timing_offset_inplace(std::span<cplx> signal, double delay_fraction);

}  // namespace ctc::channel
