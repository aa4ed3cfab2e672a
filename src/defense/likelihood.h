// Likelihood-based modulation classification (the ALRT/HLRT family of
// Sec. II-B, refs. [13]-[14]).
//
// The paper chooses cumulant features because "feature-based cumulant
// analysis has lower complexity than the likelihood function" — this module
// implements the alternative so the claim can be measured
// (bench/ablation_likelihood): average log-likelihood of the samples under
// each candidate constellation with complex-Gaussian noise, maximized over
// a grid of carrier-phase hypotheses (the "hybrid" in HLRT; signal level is
// handled by unit-power normalization).
#pragma once

#include <cstddef>
#include <span>

#include "dsp/types.h"

namespace ctc::defense {

struct LikelihoodConfig {
  /// Complex noise variance per sample. Required (> 0): likelihood methods
  /// need the noise level; that is part of their practical cost.
  double noise_variance = 0.1;
  /// Phase hypotheses per class (HLRT maximization grid).
  std::size_t phase_hypotheses = 16;
  /// Normalize the samples to unit average power first (handles unknown
  /// signal level, ref. [13]).
  bool normalize_power = true;
};

/// Average log-likelihood (nats/sample, additive constants dropped) of the
/// samples under `constellation` with equiprobable symbols, CN(0, sigma^2)
/// noise and carrier phase `phase_rad`.
double log_likelihood(std::span<const cplx> samples,
                      std::span<const cplx> constellation, double noise_variance,
                      double phase_rad);

/// Binary hypothesis test of Sec. VI recast as an HLRT: H0 "QPSK" vs H1
/// "the attacker's 64-QAM-quantized cloud" (modeled as 64-QAM). Returns the
/// per-sample log-likelihood ratio L(QPSK) - L(64QAM); > 0 favors H0.
double qpsk_vs_qam64_llr(std::span<const cplx> samples,
                         LikelihoodConfig config = {});

}  // namespace ctc::defense
