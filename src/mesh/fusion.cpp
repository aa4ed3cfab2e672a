#include "mesh/fusion.h"

#include <algorithm>
#include <cmath>

#include "dsp/require.h"
#include "dsp/types.h"

namespace ctc::mesh {

FusionResult fuse_majority(std::span<const SensorVote> votes) {
  FusionResult result;
  std::size_t attacks = 0;
  for (const SensorVote& vote : votes) {
    if (!vote.usable) continue;
    ++result.used;
    attacks += vote.is_attack ? 1 : 0;
  }
  if (result.used == 0) return result;
  result.score =
      static_cast<double>(attacks) / static_cast<double>(result.used);
  result.is_attack = 2 * attacks >= result.used;
  return result;
}

FusionResult fuse_rssi_weighted(std::span<const SensorVote> votes,
                                double threshold) {
  FusionResult result;
  double weight_sum = 0.0;
  double weighted_de2 = 0.0;
  double de2_sum = 0.0;
  for (const SensorVote& vote : votes) {
    if (!vote.usable) continue;
    CTC_REQUIRE(vote.weight >= 0.0);
    ++result.used;
    weight_sum += vote.weight;
    weighted_de2 += vote.weight * vote.de2;
    de2_sum += vote.de2;
  }
  if (result.used == 0) return result;
  result.score = weight_sum > 0.0
                     ? weighted_de2 / weight_sum
                     : de2_sum / static_cast<double>(result.used);
  result.is_attack = result.score >= threshold;
  return result;
}

double gaussian_llr(double de2, const GaussianPair& model) {
  const double var_h0 = std::max(model.var_h0, kBayesVarianceFloor);
  const double var_h1 = std::max(model.var_h1, kBayesVarianceFloor);
  auto log_pdf = [&](double mu, double var) {
    const double residual = de2 - mu;
    return -0.5 * std::log(kTwoPi * var) - residual * residual / (2.0 * var);
  };
  return log_pdf(model.mu_h1, var_h1) - log_pdf(model.mu_h0, var_h0);
}

FusionResult fuse_bayesian(std::span<const SensorVote> votes,
                           std::span<const GaussianPair> models) {
  CTC_REQUIRE(models.size() == 1 || models.size() == votes.size());
  FusionResult result;
  for (std::size_t i = 0; i < votes.size(); ++i) {
    const SensorVote& vote = votes[i];
    if (!vote.usable) continue;
    ++result.used;
    const GaussianPair& model = models.size() == 1 ? models[0] : models[i];
    result.score += gaussian_llr(vote.de2, model);
  }
  if (result.used == 0) return result;
  result.is_attack = result.score >= 0.0;
  return result;
}

}  // namespace ctc::mesh
