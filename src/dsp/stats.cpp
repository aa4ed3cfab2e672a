#include "dsp/stats.h"

#include <cmath>

#include "dsp/kernels/kernels.h"
#include "dsp/require.h"

namespace ctc::dsp {

double average_power(std::span<const cplx> signal) {
  CTC_REQUIRE(!signal.empty());
  return energy(signal) / static_cast<double>(signal.size());
}

double energy(std::span<const cplx> signal) {
  // Lane-structured reduction (see kernels.h): bitwise identical across
  // dispatch levels, a fixed but different summation order than a naive
  // sequential accumulator.
  return kernels::active().energy(signal.data(), signal.size());
}

cvec normalize_power(std::span<const cplx> signal) {
  const double p = average_power(signal);
  CTC_REQUIRE_MSG(p > 0.0, "cannot normalize an all-zero signal");
  const double scale = 1.0 / std::sqrt(p);
  cvec out(signal.begin(), signal.end());
  kernels::active().rscale(out.data(), out.size(), scale);
  return out;
}

double nmse(std::span<const cplx> reference, std::span<const cplx> test) {
  CTC_REQUIRE(reference.size() == test.size());
  const double ref_energy = energy(reference);
  CTC_REQUIRE_MSG(ref_energy > 0.0, "reference has zero energy");
  double err = 0.0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    err += std::norm(reference[i] - test[i]);
  }
  return err / ref_energy;
}

double from_db(double db) { return std::pow(10.0, db / 10.0); }

}  // namespace ctc::dsp
