// FIR filter design and application.
//
// The resampler (4 MHz ZigBee baseband <-> 20 MHz WiFi baseband) and the
// ZigBee receiver front-end (2 MHz channel filter inside the 20 MHz band)
// are built on windowed-sinc lowpass filters from this module.
#pragma once

#include <cstddef>
#include <span>

#include "dsp/types.h"
#include "dsp/window.h"

namespace ctc::dsp {

/// Designs an odd-length linear-phase lowpass FIR via the windowed-sinc
/// method. `cutoff` is the -6 dB edge as a fraction of the sample rate,
/// in (0, 0.5). Taps are normalized to unity DC gain.
rvec design_lowpass(double cutoff, std::size_t num_taps,
                    WindowKind window = WindowKind::hamming);

/// Full convolution of `signal` with real `taps` (output length =
/// signal + taps - 1): O(n*t) time-domain form through the dispatched
/// dsp::kernels fir_mac (AVX2 gather with FMA when available). Exactly
/// time-invariant at every dispatch level: outputs with a full tap window
/// depend only on the window's sample values, never on position.
cvec convolve_direct(std::span<const cplx> signal, std::span<const double> taps);

/// "Same"-length filtering: convolution trimmed so the output is aligned with
/// the input (group delay of (taps-1)/2 samples removed). Taps length must be
/// odd so the delay is an integer. Inherits convolve_direct()'s time
/// invariance — identical input segments filter to bitwise-identical output
/// segments — which the byte-keyed emulator slot cache and link waveform
/// cache rely on.
cvec filter_same(std::span<const cplx> signal, std::span<const double> taps);

}  // namespace ctc::dsp
