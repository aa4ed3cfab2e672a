#include "dsp/fir.h"

#include <cmath>

#include "dsp/kernels/kernels.h"
#include "dsp/require.h"

namespace ctc::dsp {

rvec design_lowpass(double cutoff, std::size_t num_taps, WindowKind window) {
  CTC_REQUIRE_MSG(cutoff > 0.0 && cutoff < 0.5,
                  "cutoff must be a fraction of the sample rate in (0, 0.5)");
  CTC_REQUIRE_MSG(num_taps % 2 == 1 && num_taps >= 3,
                  "need an odd tap count for integer group delay");
  const rvec w = make_window(window, num_taps);
  rvec taps(num_taps);
  const double center = static_cast<double>(num_taps - 1) / 2.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < num_taps; ++i) {
    const double t = static_cast<double>(i) - center;
    const double x = kTwoPi * cutoff * t;
    const double sinc = (std::abs(t) < 1e-12) ? 1.0 : std::sin(x) / x;
    taps[i] = 2.0 * cutoff * sinc * w[i];
    sum += taps[i];
  }
  for (auto& tap : taps) tap /= sum;  // unity DC gain
  return taps;
}

cvec convolve_direct(std::span<const cplx> signal, std::span<const double> taps) {
  CTC_REQUIRE(!taps.empty());
  if (signal.empty()) return {};
  cvec out(signal.size() + taps.size() - 1, cplx{0.0, 0.0});
  kernels::active().fir_mac(signal.data(), signal.size(), taps.data(),
                            taps.size(), out.data());
  return out;
}

cvec filter_same(std::span<const cplx> signal, std::span<const double> taps) {
  CTC_REQUIRE(taps.size() % 2 == 1);
  cvec full = convolve_direct(signal, taps);
  if (full.empty()) return full;  // empty signal
  // Trim the group delay in place rather than copying into a second buffer.
  const auto delay = static_cast<std::ptrdiff_t>((taps.size() - 1) / 2);
  full.erase(full.begin(), full.begin() + delay);
  full.resize(signal.size());
  return full;
}

}  // namespace ctc::dsp
