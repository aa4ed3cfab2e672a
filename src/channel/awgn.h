// Additive white Gaussian noise channel.
//
// Matches the paper's convention (Sec. VII-B): the transmitted waveform is
// normalized to unit average power and SNR = 1 / sigma^2, i.e. noise variance
// sigma^2 = 10^(-SNR_dB/10) per complex sample.
#pragma once

#include <span>

#include "dsp/rng.h"
#include "dsp/types.h"

namespace ctc::channel {

/// Adds complex AWGN so the resulting SNR (vs the *measured* signal power)
/// equals `snr_db`. The signal is not rescaled.
cvec add_awgn(std::span<const cplx> signal, double snr_db, dsp::Rng& rng);

/// Adds complex AWGN of fixed per-sample variance `noise_variance`
/// (E|n|^2 = noise_variance), independent of the signal power, in place.
/// This is the paper's SNR = 1/sigma^2 convention when the signal has unit
/// power. The noise is dsp::Rng::add_complex_gaussian's (stream
/// dsp::kNoiseStream): four draws of `rng` seed it, whatever the signal
/// length.
void add_noise_variance_inplace(std::span<cplx> signal, double noise_variance,
                                dsp::Rng& rng);

}  // namespace ctc::channel
