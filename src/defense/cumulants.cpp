#include "defense/cumulants.h"

#include <cmath>

#include "dsp/kernels/kernels.h"
#include "dsp/require.h"

namespace ctc::defense {

namespace {

// The Eq. 8-9 estimates from the folded kernel-layer running sums.
CumulantEstimates estimates_from_sums(const dsp::kernels::CumulantSums& sums,
                                      std::size_t count) {
  const auto n = static_cast<double>(count);
  CumulantEstimates est;
  est.c20 = sums.sum_x2 / n;
  est.c21 = sums.sum_abs2 / n;
  est.c40 = sums.sum_x4 / n - 3.0 * est.c20 * est.c20;
  est.c41 = sums.sum_x3_conj / n - 3.0 * est.c20 * est.c21;
  est.c42 = sums.sum_abs4 / n - std::norm(est.c20) - 2.0 * est.c21 * est.c21;
  return est;
}

double corrected_c21(double c21, double noise_variance) {
  CTC_REQUIRE(noise_variance >= 0.0);
  const double corrected = c21 - noise_variance;
  CTC_REQUIRE_MSG(corrected > 0.0, "noise variance exceeds measured power");
  return corrected;
}

}  // namespace

cplx CumulantEstimates::normalized_c40(double noise_variance) const {
  const double denom = corrected_c21(c21, noise_variance);
  return c40 / (denom * denom);
}

double CumulantEstimates::normalized_c42(double noise_variance) const {
  const double denom = corrected_c21(c21, noise_variance);
  return c42 / (denom * denom);
}

CumulantEstimates estimate_cumulants(std::span<const cplx> samples) {
  CTC_REQUIRE_MSG(samples.size() >= 4, "need at least 4 samples");
  dsp::kernels::CumulantLanes lanes;
  dsp::kernels::active().cumulant_acc(samples.data(), samples.size(), &lanes);
  return estimates_from_sums(lanes.fold(), samples.size());
}

TheoreticalCumulants theoretical_cumulants(ModulationClass modulation) {
  switch (modulation) {
    case ModulationClass::bpsk: return {1.0, -2.0, -2.0};
    case ModulationClass::qpsk: return {0.0, 1.0, -1.0};
    case ModulationClass::psk_higher: return {0.0, 0.0, -1.0};
    case ModulationClass::pam4: return {1.0, -1.36, -1.36};
    case ModulationClass::pam8: return {1.0, -1.2381, -1.2381};
    case ModulationClass::pam16: return {1.0, -1.2094, -1.2094};
    case ModulationClass::qam16: return {0.0, -0.68, -0.68};
    case ModulationClass::qam64: return {0.0, -0.619, -0.619};
    case ModulationClass::qam256: return {0.0, -0.6047, -0.6047};
  }
  CTC_REQUIRE_MSG(false, "unknown modulation class");
}

std::string to_string(ModulationClass modulation) {
  switch (modulation) {
    case ModulationClass::bpsk: return "BPSK";
    case ModulationClass::qpsk: return "QPSK";
    case ModulationClass::psk_higher: return "PSK(>4)";
    case ModulationClass::pam4: return "4-PAM";
    case ModulationClass::pam8: return "8-PAM";
    case ModulationClass::pam16: return "16-PAM";
    case ModulationClass::qam16: return "16-QAM";
    case ModulationClass::qam64: return "64-QAM";
    case ModulationClass::qam256: return "256-QAM";
  }
  CTC_REQUIRE_MSG(false, "unknown modulation class");
}

}  // namespace ctc::defense
