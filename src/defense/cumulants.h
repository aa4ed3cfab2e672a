// Second- and fourth-order moment/cumulant estimation (Sec. VI-B, Eqs. 5-9)
// and the theoretical constellation cumulants of Table III (Swami & Sadler).
#pragma once

#include <span>
#include <string>

#include "dsp/types.h"

namespace ctc::defense {

/// Sample estimates of the second-order moments and fourth-order cumulants
/// of a zero-mean complex sequence (Eqs. 8-9).
struct CumulantEstimates {
  cplx c20{0.0, 0.0};   ///< E[x^2]
  double c21 = 0.0;     ///< E|x|^2
  cplx c40{0.0, 0.0};   ///< cum(x,x,x,x)      = E[x^4] - 3 E[x^2]^2
  cplx c41{0.0, 0.0};   ///< cum(x,x,x,x*)     = E[x^3 x*] - 3 E[x^2] E|x|^2
  double c42 = 0.0;     ///< cum(x,x,x*,x*)    = E|x|^4 - |E[x^2]|^2 - 2 E|x|^2^2

  /// Normalized fourth-order cumulants Chat_4q = C_4q / C21^2
  /// (scale-invariant; Sec. VI-B2). `noise_variance` (if known) is
  /// subtracted from C21 first so the normalization uses signal power only.
  cplx normalized_c40(double noise_variance = 0.0) const;
  double normalized_c42(double noise_variance = 0.0) const;
};

/// Computes the sample estimates over `samples` (requires >= 4 samples).
/// Accumulation runs through the dispatched dsp::kernels cumulant path
/// (lane-structured, bitwise identical across SIMD levels).
CumulantEstimates estimate_cumulants(std::span<const cplx> samples);

/// Constellations of Table III.
enum class ModulationClass {
  bpsk, qpsk, psk_higher, pam4, pam8, pam16, qam16, qam64, qam256
};

/// Theoretical (C20, C40, C42) for unit power (C21 = 1), Table III.
struct TheoreticalCumulants {
  double c20 = 0.0;
  double c40 = 0.0;
  double c42 = 0.0;
};

TheoreticalCumulants theoretical_cumulants(ModulationClass modulation);

/// Human-readable name (for bench output).
std::string to_string(ModulationClass modulation);

}  // namespace ctc::defense
