// FIR filter design.
//
// The resampler (4 MHz ZigBee baseband <-> 20 MHz WiFi baseband, see
// resample.h) filters with the windowed-sinc lowpass designed here, which
// the dispatched dsp::kernels resample kernel applies polyphase.
#pragma once

#include <cstddef>

#include "dsp/types.h"
#include "dsp/window.h"

namespace ctc::dsp {

/// Designs an odd-length linear-phase lowpass FIR via the windowed-sinc
/// method. `cutoff` is the -6 dB edge as a fraction of the sample rate,
/// in (0, 0.5). Taps are normalized to unity DC gain.
rvec design_lowpass(double cutoff, std::size_t num_taps,
                    WindowKind window = WindowKind::hamming);

}  // namespace ctc::dsp
