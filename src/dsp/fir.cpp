#include "dsp/fir.h"

#include <algorithm>
#include <cmath>

#include "dsp/fft.h"
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

cvec convolve_direct_reference(std::span<const cplx> signal,
                               std::span<const double> taps) {
  CTC_REQUIRE(!taps.empty());
  if (signal.empty()) return {};
  cvec out(signal.size() + taps.size() - 1, cplx{0.0, 0.0});
  kernels::table(kernels::SimdLevel::scalar)
      .fir_mac(signal.data(), signal.size(), taps.data(), taps.size(),
               out.data());
  return out;
}

bool use_fft_convolution(std::size_t signal_size, std::size_t taps_size) {
  // Measured with bench/perf_hotpath (Release, this FftPlan): the direct
  // form's real-taps MAC loop vectorizes to ~0.5 ns per tap-sample, so FFT
  // only breaks even near 800 taps and wins decisively past ~2k (7x at
  // n=8192, t=4097). Short filters — everything in the per-trial receive
  // path — stay direct.
  return taps_size >= 768 && signal_size * taps_size >= (std::size_t{1} << 21);
}

cvec convolve_fft(std::span<const cplx> signal, std::span<const double> taps) {
  CTC_REQUIRE(!taps.empty());
  if (signal.empty()) return {};
  const std::size_t out_size = signal.size() + taps.size() - 1;
  const std::size_t fft_size = std::max<std::size_t>(2, next_power_of_two(out_size));
  const FftPlan& plan = shared_fft_plan(fft_size);
  // Thread-local scratch: zero per-call allocation once the buffers have
  // grown to the workload's high-water mark.
  thread_local cvec padded_signal;
  thread_local cvec padded_taps;
  padded_signal.assign(fft_size, cplx{0.0, 0.0});
  std::copy(signal.begin(), signal.end(), padded_signal.begin());
  padded_taps.assign(fft_size, cplx{0.0, 0.0});
  for (std::size_t j = 0; j < taps.size(); ++j) {
    padded_taps[j] = cplx{taps[j], 0.0};
  }
  plan.forward_inplace(padded_signal);
  plan.forward_inplace(padded_taps);
  kernels::active().cmul(padded_signal.data(), padded_taps.data(), fft_size);
  plan.inverse_inplace(padded_signal);
  return cvec(padded_signal.begin(),
              padded_signal.begin() + static_cast<std::ptrdiff_t>(out_size));
}

cvec convolve(std::span<const cplx> signal, std::span<const double> taps) {
  if (use_fft_convolution(signal.size(), taps.size())) {
    return convolve_fft(signal, taps);
  }
  return convolve_direct(signal, taps);
}

cvec filter_same(std::span<const cplx> signal, std::span<const double> taps,
                 ConvolvePolicy policy) {
  CTC_REQUIRE(taps.size() % 2 == 1);
  cvec full = policy == ConvolvePolicy::direct ? convolve_direct(signal, taps)
              : policy == ConvolvePolicy::fft  ? convolve_fft(signal, taps)
                                               : convolve(signal, taps);
  if (full.empty()) return full;  // empty signal
  // Trim the group delay in place rather than copying into a second buffer.
  const auto delay = static_cast<std::ptrdiff_t>((taps.size() - 1) / 2);
  full.erase(full.begin(), full.begin() + delay);
  full.resize(signal.size());
  return full;
}

FirFilter::FirFilter(rvec taps) : taps_(std::move(taps)) {
  CTC_REQUIRE(!taps_.empty());
  history_.assign(taps_.size() > 1 ? taps_.size() - 1 : 1, cplx{0.0, 0.0});
}

cvec FirFilter::process(std::span<const cplx> block) {
  const std::size_t hist = taps_.size() - 1;
  if (use_fft_convolution(block.size() + hist, taps_.size())) {
    // Linearize the circular history (oldest first), convolve once, and keep
    // the block-aligned slice: full[hist + i] == sum_j taps[j] * x[i - j],
    // exactly the direct form's output sample (up to FFT rounding).
    cvec extended;
    extended.reserve(hist + block.size());
    for (std::size_t k = 0; k < hist; ++k) {
      extended.push_back(history_[(pos_ + k) % hist]);
    }
    extended.insert(extended.end(), block.begin(), block.end());
    const cvec full = convolve_fft(extended, taps_);
    cvec out(full.begin() + static_cast<std::ptrdiff_t>(hist),
             full.begin() + static_cast<std::ptrdiff_t>(hist + block.size()));
    for (std::size_t i = 0; i < block.size(); ++i) {
      history_[pos_] = block[i];
      pos_ = (pos_ + 1) % hist;
    }
    return out;
  }
  cvec out(block.size());
  for (std::size_t i = 0; i < block.size(); ++i) {
    cplx acc = block[i] * taps_[0];
    for (std::size_t j = 1; j <= hist; ++j) {
      // history_[(pos_ + hist - j) % hist] holds input[i - j] for j <= i.
      const cplx past = (j <= i) ? block[i - j]
                                 : history_[(pos_ + 2 * hist - (j - i)) % hist];
      acc += past * taps_[j];
    }
    out[i] = acc;
  }
  // Update history with the tail of this block.
  for (std::size_t i = 0; i < block.size(); ++i) {
    if (hist == 0) break;
    history_[pos_] = block[i];
    pos_ = (pos_ + 1) % hist;
  }
  return out;
}

void FirFilter::reset() {
  for (auto& value : history_) value = cplx{0.0, 0.0};
  pos_ = 0;
}

}  // namespace ctc::dsp
