// Flat fading models for the "real environment" experiments.
//
// The paper's lab has human activity and multipath; over a 2 MHz ZigBee
// channel the fading is approximately flat, so we model a single complex
// tap: Rayleigh (no LoS) or Rician with K-factor (LoS + scatter). The tap is
// drawn once per frame (block fading), matching per-packet statistics.
#pragma once

#include <span>

#include "dsp/rng.h"
#include "dsp/types.h"

namespace ctc::channel {

/// One complex Rayleigh tap with E|h|^2 = 1.
cplx rayleigh_tap(dsp::Rng& rng);

/// One complex Rician tap with K-factor `k_factor` (linear) and E|h|^2 = 1.
/// k_factor = 0 degenerates to Rayleigh; k -> inf approaches a pure LoS tap.
cplx rician_tap(double k_factor, dsp::Rng& rng);

/// Applies a single complex tap to the whole block in place (block fading).
void apply_flat_fading_inplace(std::span<cplx> signal, cplx tap);

}  // namespace ctc::channel
