#include "defense/amc.h"

#include <algorithm>
#include <cmath>

#include "dsp/require.h"

namespace ctc::defense {

namespace {

constexpr ModulationClass kAllClasses[] = {
    ModulationClass::bpsk,  ModulationClass::qpsk,  ModulationClass::psk_higher,
    ModulationClass::pam4,  ModulationClass::pam8,  ModulationClass::pam16,
    ModulationClass::qam16, ModulationClass::qam64, ModulationClass::qam256,
};

struct Feature {
  double c20_magnitude = 0.0;
  double c40 = 0.0;
  double c42 = 0.0;
};

Feature feature_of(std::span<const cplx> samples, const AmcConfig& config) {
  const CumulantEstimates estimates = estimate_cumulants(samples);
  const double c21 = [&] {
    const double corrected = estimates.c21 - config.noise_variance;
    CTC_REQUIRE_MSG(corrected > 0.0, "noise variance exceeds measured power");
    return corrected;
  }();
  Feature feature;
  feature.c20_magnitude = std::abs(estimates.c20) / c21;
  const cplx c40 = estimates.c40 / (c21 * c21);
  feature.c40 = config.use_c40_magnitude ? std::abs(c40) : c40.real();
  feature.c42 = estimates.c42 / (c21 * c21);
  return feature;
}

double distance_sq(const Feature& feature, ModulationClass klass,
                   const AmcConfig& config) {
  const TheoreticalCumulants theory = theoretical_cumulants(klass);
  const double anchor_c40 =
      config.use_c40_magnitude ? std::abs(theory.c40) : theory.c40;
  const double d20 = feature.c20_magnitude - std::abs(theory.c20);
  const double d40 = feature.c40 - anchor_c40;
  const double d42 = feature.c42 - theory.c42;
  return d20 * d20 + d40 * d40 + d42 * d42;
}

}  // namespace

AmcResult classify_modulation(std::span<const cplx> samples, AmcConfig config) {
  const Feature feature = feature_of(samples, config);
  AmcResult result;
  for (ModulationClass klass : kAllClasses) {
    result.ranking.push_back({klass, distance_sq(feature, klass, config)});
  }
  std::sort(result.ranking.begin(), result.ranking.end(),
            [](const AmcScore& a, const AmcScore& b) {
              return a.distance_sq < b.distance_sq;
            });
  result.best = result.ranking.front().modulation;
  result.distance_sq = result.ranking.front().distance_sq;
  return result;
}

}  // namespace ctc::defense
