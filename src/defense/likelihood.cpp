#include "defense/likelihood.h"

#include <algorithm>
#include <cmath>

#include "dsp/constellation.h"
#include "dsp/require.h"
#include "dsp/stats.h"

namespace ctc::defense {

namespace {

double max_over_phases(std::span<const cplx> samples, const cvec& constellation,
                       const LikelihoodConfig& config, double* best_phase) {
  double best = -1e300;
  for (std::size_t p = 0; p < config.phase_hypotheses; ++p) {
    const double phase = kTwoPi * static_cast<double>(p) /
                         static_cast<double>(config.phase_hypotheses);
    const double value =
        log_likelihood(samples, constellation, config.noise_variance, phase);
    if (value > best) {
      best = value;
      if (best_phase != nullptr) *best_phase = phase;
    }
  }
  return best;
}

}  // namespace

double log_likelihood(std::span<const cplx> samples,
                      std::span<const cplx> constellation, double noise_variance,
                      double phase_rad) {
  CTC_REQUIRE(noise_variance > 0.0);
  CTC_REQUIRE(!samples.empty());
  CTC_REQUIRE(!constellation.empty());
  const cplx rotation = std::polar(1.0, phase_rad);
  const double inv_variance = 1.0 / noise_variance;
  const double log_m = std::log(static_cast<double>(constellation.size()));
  double total = 0.0;
  for (const cplx& sample : samples) {
    // log sum exp over symbols, stabilized by the minimum distance.
    double min_distance = 1e300;
    for (const cplx& symbol : constellation) {
      min_distance = std::min(min_distance, std::norm(sample - symbol * rotation));
    }
    double sum = 0.0;
    for (const cplx& symbol : constellation) {
      sum += std::exp(-(std::norm(sample - symbol * rotation) - min_distance) *
                      inv_variance);
    }
    total += -min_distance * inv_variance + std::log(sum) - log_m;
  }
  return total / static_cast<double>(samples.size());
}

double qpsk_vs_qam64_llr(std::span<const cplx> samples, LikelihoodConfig config) {
  CTC_REQUIRE(config.phase_hypotheses >= 1);
  cvec normalized;
  std::span<const cplx> working = samples;
  if (config.normalize_power) {
    normalized = dsp::normalize_power(samples);
    working = normalized;
  }
  const double qpsk =
      max_over_phases(working, dsp::make_psk(4), config, nullptr);
  const double qam64 =
      max_over_phases(working, dsp::make_qam(64), config, nullptr);
  return qpsk - qam64;
}

}  // namespace ctc::defense
