// Fast Fourier Transform.
//
// The attack pipeline (Sec. V of the paper) is built around the 64-point
// FFT/IFFT of the 802.11g OFDM modulator. FftPlan implements an iterative
// radix-2 Cooley–Tukey transform for any power-of-two size with precomputed
// twiddles, stored per stage so each butterfly loop reads them in order;
// each user (the emulator's slot transform, the OFDM modulator,
// Welch PSD) owns its plan. dft()/idft() are O(n^2) reference
// implementations used by tests.
//
// Conventions (match Eq. (1) of the paper and standard OFDM usage):
//   forward:  X[k] = sum_n x[n] * exp(-j 2 pi k n / N)        (no scaling)
//   inverse:  x[n] = (1/N) sum_k X[k] * exp(+j 2 pi k n / N)
// so inverse(forward(x)) == x, and Parseval reads
//   sum_n |x[n]|^2 == (1/N) sum_k |X[k]|^2.
#pragma once

#include <cstddef>
#include <span>

#include "dsp/types.h"

namespace ctc::dsp {

/// Radix-2 FFT plan for a fixed power-of-two size.
class FftPlan {
 public:
  /// Requires `size` to be a power of two, >= 2.
  explicit FftPlan(std::size_t size);

  std::size_t size() const { return size_; }

  /// Out-of-place forward transform. `input.size()` must equal size().
  cvec forward(std::span<const cplx> input) const;

  /// Out-of-place inverse transform (includes the 1/N scaling).
  cvec inverse(std::span<const cplx> input) const;

  /// In-place forward transform over a caller-owned buffer of exactly
  /// size() samples — no allocation. Same convention as forward().
  void forward_inplace(std::span<cplx> data) const;

  /// In-place inverse transform (includes the 1/N scaling) — no allocation.
  void inverse_inplace(std::span<cplx> data) const;

  /// Out-of-place inverse into a caller-provided buffer (resized to size());
  /// reusing `out` across calls amortizes the allocation away.
  void inverse_into(cvec& out, std::span<const cplx> input) const;

 private:
  void transform(std::span<cplx> data, bool invert) const;

  std::size_t size_;
  std::vector<std::size_t> bit_reverse_;
  // Twiddles per stage, in the order the butterflies read them: stage
  // len = 2, 4, ..., N holds its len/2 factors exp(-j 2 pi k / len) at
  // [len/2 - 1, len - 1), N - 1 in all. Each is the value exp(-j 2 pi
  // (k N/len) / N) of a single N-point table, so every butterfly multiplies
  // by the bits the strided form read from it. The inverse table holds the
  // conjugates.
  cvec forward_twiddles_;
  cvec inverse_twiddles_;
};

/// True if `n` is a power of two (and nonzero).
bool is_power_of_two(std::size_t n);

}  // namespace ctc::dsp
