#include "dsp/fft.h"

#include <cmath>

#include "dsp/require.h"

namespace ctc::dsp {

bool is_power_of_two(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

FftPlan::FftPlan(std::size_t size) : size_(size) {
  CTC_REQUIRE_MSG(is_power_of_two(size) && size >= 2,
                  "FFT size must be a power of two >= 2");
  // Bit-reversal permutation.
  bit_reverse_.resize(size_);
  std::size_t bits = 0;
  for (std::size_t probe = size_; probe > 1; probe >>= 1) ++bits;
  for (std::size_t i = 0; i < size_; ++i) {
    std::size_t reversed = 0;
    for (std::size_t b = 0; b < bits; ++b) {
      if (i & (std::size_t{1} << b)) reversed |= std::size_t{1} << (bits - 1 - b);
    }
    bit_reverse_[i] = reversed;
  }
  // Forward twiddles exp(-j 2 pi k / N), then each stage's subsequence.
  cvec twiddles(size_ / 2);
  for (std::size_t k = 0; k < size_ / 2; ++k) {
    const double angle = -kTwoPi * static_cast<double>(k) / static_cast<double>(size_);
    twiddles[k] = {std::cos(angle), std::sin(angle)};
  }
  forward_twiddles_.reserve(size_ - 1);
  for (std::size_t len = 2; len <= size_; len <<= 1) {
    for (std::size_t k = 0; k < len / 2; ++k) {
      forward_twiddles_.push_back(twiddles[k * (size_ / len)]);
    }
  }
  inverse_twiddles_.reserve(size_ - 1);
  for (const cplx& w : forward_twiddles_) {
    inverse_twiddles_.push_back(std::conj(w));
  }
}

void FftPlan::transform(std::span<cplx> data, bool invert) const {
  for (std::size_t i = 0; i < size_; ++i) {
    const std::size_t j = bit_reverse_[i];
    if (i < j) std::swap(data[i], data[j]);
  }
  const cplx* twiddles =
      invert ? inverse_twiddles_.data() : forward_twiddles_.data();
  for (std::size_t len = 2; len <= size_; len <<= 1) {
    const std::size_t half = len / 2;
    const cplx* stage = twiddles + (half - 1);
    for (std::size_t start = 0; start < size_; start += len) {
      cplx* lo = data.data() + start;
      cplx* hi = lo + half;
      for (std::size_t k = 0; k < half; ++k) {
        // The even sample is read as two doubles: held as a cplx, GCC
        // stored its halves to the stack and reloaded them as one vector on
        // every butterfly (about 3x slower). Same adds and subtracts.
        const cplx odd = hi[k] * stage[k];
        const double er = lo[k].real();
        const double ei = lo[k].imag();
        lo[k] = cplx{er + odd.real(), ei + odd.imag()};
        hi[k] = cplx{er - odd.real(), ei - odd.imag()};
      }
    }
  }
  if (invert) {
    const double scale = 1.0 / static_cast<double>(size_);
    for (auto& value : data) value *= scale;
  }
}

cvec FftPlan::forward(std::span<const cplx> input) const {
  CTC_REQUIRE(input.size() == size_);
  cvec data(input.begin(), input.end());
  transform(data, /*invert=*/false);
  return data;
}

cvec FftPlan::inverse(std::span<const cplx> input) const {
  CTC_REQUIRE(input.size() == size_);
  cvec data(input.begin(), input.end());
  transform(data, /*invert=*/true);
  return data;
}

void FftPlan::forward_inplace(std::span<cplx> data) const {
  CTC_REQUIRE(data.size() == size_);
  transform(data, /*invert=*/false);
}

void FftPlan::inverse_inplace(std::span<cplx> data) const {
  CTC_REQUIRE(data.size() == size_);
  transform(data, /*invert=*/true);
}

void FftPlan::inverse_into(cvec& out, std::span<const cplx> input) const {
  CTC_REQUIRE(input.size() == size_);
  out.assign(input.begin(), input.end());
  transform(out, /*invert=*/true);
}

}  // namespace ctc::dsp
