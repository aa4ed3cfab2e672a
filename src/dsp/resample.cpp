#include "dsp/resample.h"

#include <cmath>

#include "dsp/fir.h"
#include "dsp/kernels/kernels.h"
#include "dsp/require.h"

namespace ctc::dsp {

namespace {

constexpr std::size_t kTapsPerPhase = 12;

// The anti-imaging / anti-alias lowpass shared by upsample() and decimate():
// cutoff 0.5/factor, factor * kTapsPerPhase + 1 taps, odd for an integer
// group delay.
rvec resampling_lowpass(std::size_t factor) {
  std::size_t num_taps = factor * kTapsPerPhase + 1;
  if (num_taps % 2 == 0) ++num_taps;
  return design_lowpass(0.5 / static_cast<double>(factor), num_taps);
}

}  // namespace

cvec upsample(std::span<const cplx> input, std::size_t factor) {
  CTC_REQUIRE(factor >= 1);
  if (factor == 1) return cvec(input.begin(), input.end());
  if (input.empty()) return {};
  const rvec taps = resampling_lowpass(factor);
  cvec out(input.size() * factor);
  const kernels::KernelTable& kt = kernels::active();
  kt.resample(input.data(), input.size(), factor, 1, taps.data(), taps.size(),
              out.data(), out.size());
  // Restore amplitude lost to zero-stuffing.
  kt.rscale(out.data(), out.size(), static_cast<double>(factor));
  return out;
}

cvec decimate(std::span<const cplx> input, std::size_t factor) {
  CTC_REQUIRE(factor >= 1);
  if (factor == 1) return cvec(input.begin(), input.end());
  if (input.empty()) return {};
  const rvec taps = resampling_lowpass(factor);
  cvec out((input.size() + factor - 1) / factor);
  kernels::active().resample(input.data(), input.size(), 1, factor,
                             taps.data(), taps.size(), out.data(), out.size());
  return out;
}

void mix(std::span<const cplx> in, std::span<cplx> out, double freq_hz,
         double sample_rate_hz, double initial_phase) {
  CTC_REQUIRE(sample_rate_hz > 0.0);
  CTC_REQUIRE(out.size() == in.size());
  kernels::active().rotate(in.data(), in.size(), out.data(), initial_phase,
                           kTwoPi * freq_hz / sample_rate_hz);
}

cvec frequency_shift(std::span<const cplx> input, double freq_hz,
                     double sample_rate_hz) {
  cvec out(input.size());
  mix(input, out, freq_hz, sample_rate_hz);
  return out;
}

cvec fractional_delay(std::span<const cplx> input, double delay) {
  CTC_REQUIRE(delay >= -1.0 && delay <= 1.0);
  cvec out(input.size());
  const auto sample_at = [&](long index) {
    return (index >= 0 && index < static_cast<long>(input.size()))
               ? input[static_cast<std::size_t>(index)]
               : cplx{0.0, 0.0};
  };
  for (std::size_t n = 0; n < input.size(); ++n) {
    const double position = static_cast<double>(n) - delay;
    const double floor_position = std::floor(position);
    const auto base = static_cast<long>(floor_position);
    const double fraction = position - floor_position;
    out[n] = (1.0 - fraction) * sample_at(base) + fraction * sample_at(base + 1);
  }
  return out;
}

}  // namespace ctc::dsp
