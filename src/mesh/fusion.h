// Decision fusion across a sensor field: combines per-sensor cumulant
// verdicts (defense::Detector on each sensor's received frame) into one
// field-level attack decision. Three rules, from cheapest to most informed:
//
//   majority     hard-verdict vote over usable sensors; a tie alarms
//                (detection-biased — a waveform-emulation miss costs more
//                than a false alarm, and the threshold stage already
//                controls the per-sensor false-alarm rate);
//   rssi_weighted  received-power-weighted mean of the per-sensor DE^2
//                soft scores against the detector threshold — sensors with
//                more signal estimate the cumulants better and get more say;
//   bayesian     sum of per-sensor Gaussian log-likelihood ratios of DE^2
//                under H1 (emulated) vs H0 (authentic), decided at LLR 0
//                (equal priors).
//
// All three are pure functions of their inputs — no RNG, no clock — so a
// fused campaign report inherits the engine's bit-stability for free.
#pragma once

#include <cstddef>
#include <span>
#include <string_view>

namespace ctc::mesh {

/// One sensor's contribution to a fused decision.
struct SensorVote {
  bool usable = false;    ///< the sensor's receiver produced chip samples
  bool is_attack = false; ///< per-sensor hard verdict (DE^2 >= threshold)
  double de2 = 0.0;       ///< per-sensor soft score (DE^2)
  double weight = 0.0;    ///< linear received power (mW), >= 0
};

/// Per-sensor class-conditional Gaussian models of DE^2 for the Bayesian
/// rule. Defaults approximate the Table IV training statistics at mid SNR.
struct GaussianPair {
  double mu_h0 = 0.05;   ///< authentic DE^2 mean
  double var_h0 = 0.01;  ///< authentic DE^2 variance
  double mu_h1 = 0.5;    ///< emulated DE^2 mean
  double var_h1 = 0.05;  ///< emulated DE^2 variance
};

/// Variances below this floor are clamped before the Gaussian log-pdf so a
/// degenerate (zero-variance) training model stays finite — and the clamped
/// result stays hand-computable in tests.
inline constexpr double kBayesVarianceFloor = 1e-12;

enum class FusionRule { majority, rssi_weighted, bayesian };

struct FusionResult {
  /// Rule-specific statistic: attack fraction (majority), weighted mean
  /// DE^2 (rssi_weighted), or summed LLR (bayesian).
  double score = 0.0;
  bool is_attack = false;
  std::size_t used = 0;  ///< usable sensors that entered the decision
};

/// Majority vote over usable sensors. Ties alarm (2*attacks >= used). With
/// zero usable sensors the field abstains: score 0, no attack.
FusionResult fuse_majority(std::span<const SensorVote> votes);

/// Received-power-weighted mean DE^2 >= threshold. Degenerate weights (all
/// usable sensors report zero power) fall back to the unweighted mean, so
/// the rule degrades to soft averaging instead of dividing by zero.
FusionResult fuse_rssi_weighted(std::span<const SensorVote> votes,
                                double threshold);

/// Summed per-sensor Gaussian LLR, decided at 0. `models` holds either one
/// entry (shared by every sensor) or exactly votes.size() entries.
FusionResult fuse_bayesian(std::span<const SensorVote> votes,
                           std::span<const GaussianPair> models);

/// The log-likelihood ratio one sensor contributes:
/// log N(de2; mu_h1, var_h1) - log N(de2; mu_h0, var_h0), with both
/// variances clamped to kBayesVarianceFloor. Exposed for the unit oracles.
double gaussian_llr(double de2, const GaussianPair& model);

}  // namespace ctc::mesh
