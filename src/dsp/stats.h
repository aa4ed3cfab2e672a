// Signal statistics: power, SNR scaling, waveform distortion.
#pragma once

#include <span>

#include "dsp/types.h"

namespace ctc::dsp {

/// Average power E|x|^2 of a complex block. Requires non-empty input.
double average_power(std::span<const cplx> signal);

/// Total energy sum |x|^2.
double energy(std::span<const cplx> signal);

/// Scales a copy of `signal` to unit average power. Requires nonzero power.
cvec normalize_power(std::span<const cplx> signal);

/// Normalized mean squared error between a reference and a test waveform:
/// sum|ref - test|^2 / sum|ref|^2. Sizes must match; reference must have
/// nonzero energy.
double nmse(std::span<const cplx> reference, std::span<const cplx> test);

/// Converts a power ratio in dB to linear.
double from_db(double db);

}  // namespace ctc::dsp
