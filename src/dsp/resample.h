// Sample-rate conversion and frequency shifting.
//
// The paper's attacker records the 2 MHz ZigBee waveform at a 4 MHz sample
// rate, then "interpolates the ZigBee waveform with parameter 5, creating 80
// points in each WiFi symbol duration" (Sec. V-B1). upsample() implements
// that interpolation; decimate() is the matching ZigBee-receiver front-end
// when listening inside a 20 MHz WiFi capture; mix() implements the 5 MHz
// center-frequency offset between ZigBee channel 17 (2435 MHz) and the WiFi
// channel (2440 MHz).
#pragma once

#include <cstddef>
#include <span>

#include "dsp/types.h"

namespace ctc::dsp {

/// Integer upsampling by `factor`: zero-stuffing followed by an anti-imaging
/// lowpass (cutoff 0.5/factor of the output rate, 12 taps per phase — 61
/// taps at the paper's factor 5) with gain `factor`, with filter group delay
/// removed so output[i*factor] aligns with input[i]. The dispatched
/// resample kernel computes it polyphase: output q*factor + r sums only
/// taps r + s*factor against input q - s, with the bits of the full
/// zero-stuffed convolution (kernels.h). Bitwise time-invariant: equal
/// input windows give equal output bytes wherever they sit, which the
/// emulator's byte-keyed slot cache relies on.
cvec upsample(std::span<const cplx> input, std::size_t factor);

/// Integer decimation by `factor`: the same anti-alias lowpass as
/// upsample(), delay-compensated, evaluated only at every factor-th sample
/// (the bits of filtering all samples and keeping those).
cvec decimate(std::span<const cplx> input, std::size_t factor);

/// Digital mixer: out[n] = in[n] * exp(j*(initial_phase + 2*pi*freq_hz/fs *
/// n)), through the dispatched rotate kernel. `out` has in.size() samples
/// and may be `in` itself (the rotation in place has the same bits).
void mix(std::span<const cplx> in, std::span<cplx> out, double freq_hz,
         double sample_rate_hz, double initial_phase = 0.0);

/// One-shot frequency shift of a block starting at phase 0.
cvec frequency_shift(std::span<const cplx> input, double freq_hz,
                     double sample_rate_hz);

/// Fractional-sample delay in [-1, 1] via linear interpolation:
/// positive delay shifts the signal later (y[n] ~= x[n - delay]); negative
/// advances it. Samples interpolated past the ends use zero.
cvec fractional_delay(std::span<const cplx> input, double delay);

}  // namespace ctc::dsp
