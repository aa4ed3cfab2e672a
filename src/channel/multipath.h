// Frequency-selective multipath: a random tapped-delay-line channel.
//
// The paper's lab (1-8 m indoor, human activity) has delay spread; over the
// 2 MHz ZigBee channel fading is roughly flat, but a defender looking for
// the attacker's 0.8 us cyclic-prefix repetition (Sec. VI-A1) is implicitly
// doing a *wideband* correlation, and delay spread is what destroys that
// repetition in practice. This model makes the bench for Figs. 8-9 honest.
//
// Model: L discrete taps with exponentially decaying power profile,
// tap 0 Rician (LoS), later taps Rayleigh; total power normalized to 1.
#pragma once

#include <span>

#include "dsp/rng.h"
#include "dsp/types.h"

namespace ctc::channel {

struct MultipathProfile {
  std::size_t num_taps = 4;        ///< channel length in samples
  double decay_per_tap_db = 6.0;   ///< exponential power-delay profile
  double k_factor = 8.0;           ///< Rician K of the first (LoS) tap
};

/// Draws one channel realization (complex taps, unit total average power).
cvec draw_multipath_taps(const MultipathProfile& profile, dsp::Rng& rng);

/// Convolves the signal with the taps in place ("same" length, causal:
/// output sample n sums taps applied to inputs n, n-1, ...; the backward
/// sweep only reads predecessors that have not been overwritten yet).
void apply_multipath_inplace(std::span<cplx> signal, std::span<const cplx> taps);

}  // namespace ctc::channel
