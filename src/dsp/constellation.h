// Constellation generation and nearest-point quantization.
//
// Used three ways in this reproduction:
//  * the attack's 64-QAM quantization of chosen frequency points (Sec. V-A3),
//  * Gray bit mapping inside the 802.11g modulator,
//  * Monte-Carlo validation of the theoretical cumulant table (Table III),
//    which needs PSK/PAM/QAM generators of many orders.
#pragma once

#include <cstddef>
#include <span>

#include "dsp/types.h"

namespace ctc::dsp {

/// M-PSK points exp(j*2*pi*k/M), k = 0..M-1 (axis-aligned for M=4:
/// {1, j, -1, -j}, the Swami–Sadler convention used by Table III).
cvec make_psk(std::size_t order);

/// M-PAM points {±1, ±3, ...} on the real axis, unit average power.
cvec make_pam(std::size_t order);

/// Square M-QAM grid (M a perfect square of a power of two), levels
/// {±1, ±3, ...} in both axes, unit average power. Point order follows
/// Gray-coded axes: index = gray(row) * sqrt(M) + gray(col) is NOT applied
/// here; this is the plain grid, bit mapping lives in wifi::Qam.
cvec make_qam(std::size_t order);

}  // namespace ctc::dsp
