// Portable kernel implementations, shared between the scalar table and the
// AVX2 TU (which reuses them for unaligned heads, sub-vector tails, and the
// kernels whose cost is a sequential dependency chain rather than math).
//
// ONLY include this from src/dsp/kernels/*.cpp: both kernel TUs compile
// with -ffp-contract=off, which is what makes the bitwise-class contracts
// hold. Including it from a TU with default contraction would silently
// fuse the multiply-adds below into FMAs and break scalar/AVX2 equality.
//
// Each function's floating-point expression structure is a contract (see
// kernels.h); do not "simplify" the arithmetic here without updating the
// AVX2 side and the equivalence suite together.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "dsp/kernels/kernels.h"
#include "dsp/types.h"

namespace ctc::dsp::kernels::scalar_impl {

// The smallest input index whose tap index j = k - i*up is at most t - 1,
// so inputs [first, k/up] (clipped to n) are the ones output k meets.
inline std::size_t resample_first_input(std::size_t k, std::size_t up,
                                        std::size_t t) {
  return k >= t ? (k - t + up) / up : 0;
}

// The old scatter convolution restricted to the products that meet an
// input sample and to the kept outputs: output k gathers fl(x_i * t_j) in
// ascending input index i (descending tap index), unfused, from +0.0.
inline void resample(const cplx* x, std::size_t n, std::size_t up,
                     std::size_t down, const double* taps, std::size_t t,
                     cplx* out, std::size_t m) {
  const std::size_t delay = (t - 1) / 2;
  for (std::size_t o = 0; o < m; ++o) {
    const std::size_t k = o * down + delay;
    const std::size_t end = k / up < n ? k / up + 1 : n;
    double re = 0.0;
    double im = 0.0;
    for (std::size_t i = resample_first_input(k, up, t); i < end; ++i) {
      const double tap = taps[k - i * up];
      re = re + x[i].real() * tap;
      im = im + x[i].imag() * tap;
    }
    out[o] = cplx{re, im};
  }
}

// The phase wrap step: two independent ifs, not if/else.
inline double wrap_phase_step(double phase, double step) {
  phase += step;
  if (phase > kTwoPi) phase -= kTwoPi;
  if (phase < -kTwoPi) phase += kTwoPi;
  return phase;
}

// The reference rotation loop: per-sample sincos of the exact phase.
inline double rotate(const cplx* in, std::size_t n, cplx* out, double phase,
                     double step) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = in[i] * cplx{std::cos(phase), std::sin(phase)};
    phase = wrap_phase_step(phase, step);
  }
  return phase;
}

inline void rscale(cplx* x, std::size_t n, double s) {
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = cplx{x[i].real() * s, x[i].imag() * s};
  }
}

inline void apply_window(const cplx* in, const double* w, std::size_t n,
                         cplx* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = cplx{in[i].real() * w[i], in[i].imag() * w[i]};
  }
}

inline void accumulate_mag2(double* acc, const cplx* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double re = x[i].real();
    const double im = x[i].imag();
    acc[i] += (re * re) + (im * im);
  }
}

// Backward two-tap sweep of the legacy timing-offset loop. The first
// element keeps its explicit fl(b*0) add so signed-zero behaviour matches
// the legacy `previous = {0, 0}` initialization exactly.
inline void two_tap(cplx* x, std::size_t n, double a, double b) {
  for (std::size_t i = n; i-- > 0;) {
    const cplx prev = i > 0 ? x[i - 1] : cplx{0.0, 0.0};
    x[i] = cplx{(x[i].real() * a) + (prev.real() * b),
                (x[i].imag() * a) + (prev.imag() * b)};
  }
}

// std::complex operator/=, which GCC lowers to a call of libgcc's
// __divdc3 — what the pre-kernel equalizer compiled to. That is Smith's
// method, not the textbook formula: a ratio and denominator from h alone
// (see kernels.h for the operation order), GCC 12's scaling of huge, tiny
// and subnormal operands, an alternate formula for a ratio at or below
// DBL_MIN, and recovery of infinities and zeros that computed as NaN. The
// AVX2 kernel runs the common path and hands every other case back here.
// Each sample is read before its quotient is written, so in == out works.
inline void cdiv(const cplx* in, std::size_t n, cplx h, cplx* out) {
  for (std::size_t i = 0; i < n; ++i) {
    cplx v = in[i];
    v /= h;
    out[i] = v;
  }
}

// 8-real-lane energy: component m (the flattened re/im stream) lands in
// lane m mod 8; fold is ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)) — the AVX2
// vertical A+B add followed by the 128-bit-half and pair folds. The
// acc/fold split lets the AVX2 TU spill its registers into `lane` and run
// this exact code for sub-vector tails.
inline void energy_acc(double lane[8], const double* d, std::size_t m) {
  std::size_t k = 0;
  for (; k + 8 <= m; k += 8) {
    for (std::size_t j = 0; j < 8; ++j) lane[j] += d[k + j] * d[k + j];
  }
  for (std::size_t j = 0; k < m; ++k, ++j) lane[j] += d[k] * d[k];
}

inline double energy_fold(const double lane[8]) {
  const double c0 = lane[0] + lane[4];
  const double c1 = lane[1] + lane[5];
  const double c2 = lane[2] + lane[6];
  const double c3 = lane[3] + lane[7];
  return (c0 + c2) + (c1 + c3);
}

inline double energy(const cplx* x, std::size_t n) {
  double lane[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  energy_acc(lane, reinterpret_cast<const double*>(x), 2 * n);
  return energy_fold(lane);
}

// 4-complex-lane conjugate dot product: sample i lands in lane i mod 4,
// each contribution is fl(fl(ar*br) + fl(ai*bi)) / fl(fl(ai*br) - fl(ar*bi));
// fold is (l0+l2) + (l1+l3) per component. Split as acc/fold for the same
// AVX2 tail-reuse reason as energy.
inline void dot_conj_acc(double lr[4], double li[4], const cplx* a,
                         const cplx* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = i & 3;
    const double ar = a[i].real();
    const double ai = a[i].imag();
    const double br = b[i].real();
    const double bi = b[i].imag();
    lr[j] += (ar * br) + (ai * bi);
    li[j] += (ai * br) - (ar * bi);
  }
}

inline cplx dot_conj_fold(const double lr[4], const double li[4]) {
  return {(lr[0] + lr[2]) + (lr[1] + lr[3]),
          (li[0] + li[2]) + (li[1] + li[3])};
}

inline cplx dot_conj(const cplx* a, const cplx* b, std::size_t n) {
  double lr[4] = {0.0, 0.0, 0.0, 0.0};
  double li[4] = {0.0, 0.0, 0.0, 0.0};
  dot_conj_acc(lr, li, a, b, n);
  return dot_conj_fold(lr, li);
}

// Chip-domain correlation strip (see kernels.h), in three passes over the
// caller's work buffer: zr, zi hold the pulse-filtered stream
// z(t) = sum_n pulse[n] x[t + n] for t in [0, m + 30*spc), which gives
// chips 0..30 as z_j(s) = z(s + j*spc); er, ei hold chip 31's wrapped
// filter for s in [0, m). The AVX2 form vectorizes each pass and runs these
// loops on its tails, so both levels compute every value the same way.
inline constexpr std::size_t kStripChips = 32;

// z(t) for t in [t0, t1).
inline void chip_filter(const cplx* x, std::size_t t0, std::size_t t1,
                        std::size_t spc, const double* pulse, double* zr,
                        double* zi) {
  for (std::size_t t = t0; t < t1; ++t) {
    double re = pulse[0] * x[t].real();
    double im = pulse[0] * x[t].imag();
    for (std::size_t n = 1; n < 2 * spc; ++n) {
      re += pulse[n] * x[t + n].real();
      im += pulse[n] * x[t + n].imag();
    }
    zr[t] = re;
    zi[t] = im;
  }
}

// z_31(s) for s in [s0, s1): the pulse's first spc taps read the period's
// last chip slot, the rest wrap to its start.
inline void chip_edge(const cplx* x, std::size_t s0, std::size_t s1,
                      std::size_t spc, const double* pulse, double* er,
                      double* ei) {
  const cplx* last = x + (kStripChips - 1) * spc;
  for (std::size_t s = s0; s < s1; ++s) {
    double re = pulse[0] * last[s].real();
    double im = pulse[0] * last[s].imag();
    for (std::size_t n = 1; n < spc; ++n) {
      re += pulse[n] * last[s + n].real();
      im += pulse[n] * last[s + n].imag();
    }
    for (std::size_t n = spc; n < 2 * spc; ++n) {
      re += pulse[n] * x[s + n - spc].real();
      im += pulse[n] * x[s + n - spc].imag();
    }
    er[s] = re;
    ei[s] = im;
  }
}

// Where each chip's term reads its two components and whether it negates
// them. The reference's conjugate is +-1 on an I chip and -+i on a Q chip,
// so an I chip adds +-(zr, zi) and a Q chip +-(zi, -zr).
struct ChipTerms {
  const double* re[kStripChips];
  const double* im[kStripChips];
  bool neg_re[kStripChips];
  bool neg_im[kStripChips];
};

inline ChipTerms chip_terms(const double* work, std::size_t m, std::size_t spc,
                            std::uint32_t chips) {
  const std::size_t zn = m + (kStripChips - 2) * spc;
  const double* zr = work;
  const double* zi = zr + zn;
  const double* er = zi + zn;
  const double* ei = er + m;
  ChipTerms terms;
  for (std::size_t j = 0; j < kStripChips; ++j) {
    const bool last = j == kStripChips - 1;
    const double* cr = last ? er : zr + j * spc;
    const double* ci = last ? ei : zi + j * spc;
    const bool negative = ((chips >> j) & 1U) == 0;
    const bool in_phase = j % 2 == 0;
    terms.re[j] = in_phase ? cr : ci;
    terms.im[j] = in_phase ? ci : cr;
    terms.neg_re[j] = negative;
    terms.neg_im[j] = in_phase ? negative : !negative;
  }
  return terms;
}

// out[s] for s in [s0, s1): chip 0's term, then chips 1..31 added in order.
inline void chip_sum(const ChipTerms& terms, std::size_t s0, std::size_t s1,
                     cplx* out) {
  for (std::size_t s = s0; s < s1; ++s) {
    double re = terms.neg_re[0] ? -terms.re[0][s] : terms.re[0][s];
    double im = terms.neg_im[0] ? -terms.im[0][s] : terms.im[0][s];
    for (std::size_t j = 1; j < kStripChips; ++j) {
      re += terms.neg_re[j] ? -terms.re[j][s] : terms.re[j][s];
      im += terms.neg_im[j] ? -terms.im[j][s] : terms.im[j][s];
    }
    out[s] = cplx{re, im};
  }
}

inline void chip_strip(const cplx* x, std::size_t m, std::size_t spc,
                       const double* pulse, std::uint32_t chips, double* work,
                       cplx* out) {
  if (m == 0) return;
  const std::size_t zn = m + (kStripChips - 2) * spc;
  chip_filter(x, 0, zn, spc, pulse, work, work + zn);
  chip_edge(x, 0, m, spc, pulse, work + 2 * zn, work + 2 * zn + m);
  chip_sum(chip_terms(work, m, spc, chips), 0, m, out);
}

// One sample's contribution to the cumulant sums, with the exact rounding
// structure of the legacy estimate_cumulants() loop compiled without FMA:
//   x2  = x * x                 (libstdc++ complex multiply)
//   x4  = x2 * x2
//   u   = (x2 * x) * conj(x)    (left-associated multiply chain)
// expanded so shared products (re*re, im*im, re*im) are rounded once and
// reused, matching both the std::complex operators and the AVX2 lanes.
inline void cumulant_push(CumulantSums& s, cplx x) {
  const double re = x.real();
  const double im = x.imag();
  const double rr = re * re;
  const double ii = im * im;
  const double ri = re * im;
  const double abs2 = rr + ii;
  const double x2r = rr - ii;
  const double x2i = ri + ri;
  const double x4r = (x2r * x2r) - (x2i * x2i);
  const double x4i = (x2r * x2i) + (x2i * x2r);
  const double tr = (x2r * re) - (x2i * im);
  const double ti = (x2r * im) + (x2i * re);
  const double ur = (tr * re) + (ti * im);
  const double ui = (ti * re) - (tr * im);
  s.sum_x2 += cplx{x2r, x2i};
  s.sum_x4 += cplx{x4r, x4i};
  s.sum_x3_conj += cplx{ur, ui};
  s.sum_abs2 += abs2;
  s.sum_abs4 += abs2 * abs2;
}

inline void cumulant_acc(const cplx* x, std::size_t n, CumulantLanes* lanes) {
  for (std::size_t i = 0; i < n; ++i) {
    cumulant_push(lanes->lane[i & 3], x[i]);
  }
}

// Legacy OqpskDemodulator::soft_chips inner loop: one sequential
// accumulator per chip over the 2*spc pulse taps, I branch on even chips
// and Q on odd ones, normalized by the pulse energy.
inline void oqpsk_mf(const cplx* wave, std::size_t num_chips, std::size_t spc,
                     const double* pulse, std::size_t plen, double pulse_energy,
                     double* soft) {
  for (std::size_t i = 0; i < num_chips; ++i) {
    const std::size_t start = i * spc;
    const bool in_phase = (i % 2 == 0);
    double acc = 0.0;
    for (std::size_t s = 0; s < plen; ++s) {
      const cplx& value = wave[start + s];
      acc += (in_phase ? value.real() : value.imag()) * pulse[s];
    }
    soft[i] = acc / pulse_energy;
  }
}

inline void pack_hard_chips(const std::uint8_t* chips, std::size_t m,
                            std::uint32_t* out) {
  for (std::size_t k = 0; k < m; ++k) {
    std::uint32_t word = 0;
    for (std::uint32_t j = 0; j < 32; ++j) {
      if (chips[k * 32 + j] != 0) word |= (std::uint32_t{1} << j);
    }
    out[k] = word;
  }
}

inline void pack_sign_chips(const double* freq, std::size_t m,
                            std::uint32_t* out) {
  for (std::size_t k = 0; k < m; ++k) {
    std::uint32_t word = 0;
    for (std::uint32_t j = 0; j < 32; ++j) {
      if (freq[k * 32 + j] > 0.0) word |= (std::uint32_t{1} << j);
    }
    out[k] = word;
  }
}

// Strict-less update: ties keep the LOWEST symbol index, exactly like the
// legacy despread_block() loop.
inline void match16(std::uint32_t observed, const std::uint32_t* rows16,
                    std::uint32_t mask, std::uint8_t* symbol,
                    std::uint8_t* distance) {
  unsigned best_distance = 33;
  unsigned best_symbol = 0;
  for (unsigned row = 0; row < 16; ++row) {
    const auto dist = static_cast<unsigned>(
        std::popcount((observed ^ rows16[row]) & mask));
    if (dist < best_distance) {
      best_distance = dist;
      best_symbol = row;
    }
  }
  *symbol = static_cast<std::uint8_t>(best_symbol);
  *distance = static_cast<std::uint8_t>(best_distance);
}

inline void despread_words(const std::uint32_t* received, std::size_t m,
                           const std::uint32_t* rows16, std::uint32_t mask,
                           std::uint8_t* symbols, std::uint8_t* distances) {
  for (std::size_t k = 0; k < m; ++k) {
    match16(received[k], rows16, mask, &symbols[k], &distances[k]);
  }
}

// -- add_gauss ----------------------------------------------------------------
// Every expression below is mirrored operation for operation by the AVX2
// lanes; the integer steps and the selections are exact, so only the
// order of the rounded double operations matters.

// fdlibm e_log (ln2 split and Lg1..Lg7), and k_sin / k_cos (S1..S6,
// C1..C6) in their branch-free msun form.
inline constexpr double kLn2Hi = 0x1.62e42feep-1;
inline constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
inline constexpr double kLg1 = 0x1.5555555555593p-1;
inline constexpr double kLg2 = 0x1.999999997fa04p-2;
inline constexpr double kLg3 = 0x1.2492494229359p-2;
inline constexpr double kLg4 = 0x1.c71c51d8e78afp-3;
inline constexpr double kLg5 = 0x1.7466496cb03dep-3;
inline constexpr double kLg6 = 0x1.39a09d078c69fp-3;
inline constexpr double kLg7 = 0x1.2f112df3e5244p-3;
inline constexpr double kS1 = -0x1.5555555555549p-3;
inline constexpr double kS2 = 0x1.111111110f8a6p-7;
inline constexpr double kS3 = -0x1.a01a019c161d5p-13;
inline constexpr double kS4 = 0x1.71de357b1fe7dp-19;
inline constexpr double kS5 = -0x1.ae5e68a2b9cebp-26;
inline constexpr double kS6 = 0x1.5d93a5acfd57cp-33;
inline constexpr double kC1 = 0x1.555555555554cp-5;
inline constexpr double kC2 = -0x1.6c16c16c15177p-10;
inline constexpr double kC3 = 0x1.a01a019cb1590p-16;
inline constexpr double kC4 = -0x1.27e4f809c52adp-22;
inline constexpr double kC5 = 0x1.1ee9ebdb4b1c4p-29;
inline constexpr double kC6 = -0x1.8fae9be8838d4p-37;
inline constexpr double kHalfPi = 0x1.921fb54442d18p+0;
// Adding 1.5 * 2^52 rounds a double in [0, 2^51) to the nearest integer
// (ties to even) and leaves that integer in the low mantissa bits.
inline constexpr double kRoundShift = 0x1.8p52;

inline std::uint64_t rotl64(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

// xoshiro256++ step of lane j — the same generator as dsp::Rng::next_u64.
inline std::uint64_t gauss_next(GaussLanes* lanes, std::size_t j) {
  std::uint64_t(&s)[4][4] = lanes->s;
  const std::uint64_t result = rotl64(s[0][j] + s[3][j], 23) + s[0][j];
  const std::uint64_t t = s[1][j] << 17;
  s[2][j] ^= s[0][j];
  s[3][j] ^= s[1][j];
  s[1][j] ^= s[2][j];
  s[0][j] ^= s[3][j];
  s[2][j] ^= t;
  s[3][j] = rotl64(s[3][j], 45);
  return result;
}

// The top 52 bits of a draw as a double in [1, 2) (exponent bits forced).
inline double mantissa_unit(std::uint64_t draw) {
  return std::bit_cast<double>((draw >> 12) | 0x3ff0000000000000ULL);
}

// fdlibm e_log for x in [2^-52, 1], without the branches that input range
// never takes: x = 2^k (1 + f) with 1 + f in [sqrt(2)/2, sqrt(2)), then
// log(1+f) = f - (f^2/2 - s (f^2/2 + R(s^2))), s = f / (2 + f).
inline double gauss_log(double x) {
  const auto bits = std::bit_cast<std::uint64_t>(x);
  const std::uint64_t mantissa = bits & 0x000fffffffffffffULL;
  // 2^52 when 1 + mantissa >= sqrt(2): that input is halved and k bumped.
  const std::uint64_t halve =
      (mantissa + 0x00095f6400000000ULL) & 0x0010000000000000ULL;
  const double m =
      std::bit_cast<double>(mantissa | (halve ^ 0x3ff0000000000000ULL));
  // Exact: a small integer. The AVX2 lanes reach the same value through
  // the 2^52 bias trick, having no int64 -> double conversion.
  const auto biased = static_cast<std::int64_t>((bits >> 52) + (halve >> 52));
  const auto k = static_cast<double>(biased - 1023);
  const double f = m - 1.0;
  const double s = f / (2.0 + f);
  const double z = s * s;
  const double w = z * z;
  const double t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
  const double t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
  const double r = t2 + t1;
  const double hfsq = 0.5 * f * f;
  return k * kLn2Hi - ((hfsq - (s * (hfsq + r) + k * kLn2Lo)) - f);
}

// sin and cos of 2 pi u for u in [0, 1). 4u - nearbyint(4u) is exact, so
// the only rounding before the polynomials is the one multiply by pi/2.
inline void gauss_sincos_2pi(double u, double* sin_out, double* cos_out) {
  const double t = 4.0 * u;
  const double shifted = t + kRoundShift;
  const double q = shifted - kRoundShift;
  const double x = (t - q) * kHalfPi;  // |x| <= pi/4
  const std::uint64_t quadrant = std::bit_cast<std::uint64_t>(shifted) & 3;
  const double z = x * x;
  const double w = z * z;
  const double rs = kS2 + z * (kS3 + z * kS4) + z * w * (kS5 + z * kS6);
  const double sin_x = x + z * x * (kS1 + z * rs);
  const double rc =
      z * (kC1 + z * (kC2 + z * kC3)) + w * w * (kC4 + z * (kC5 + z * kC6));
  const double hz = 0.5 * z;
  const double one_minus_hz = 1.0 - hz;
  const double cos_x = one_minus_hz + (((1.0 - one_minus_hz) - hz) + z * rc);
  // sin(q pi/2 + x): odd quadrants swap sin and cos; sin is negative in
  // quadrants 2 and 3, cos in quadrants 1 and 2.
  const bool odd = (quadrant & 1) != 0;
  const double sin_v = odd ? cos_x : sin_x;
  const double cos_v = odd ? sin_x : cos_x;
  *sin_out = (quadrant & 2) != 0 ? -sin_v : sin_v;
  *cos_out = ((quadrant + 1) & 2) != 0 ? -cos_v : cos_v;
}

inline void add_gauss(cplx* x, std::size_t n, double sigma,
                      GaussLanes* lanes) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = i & 3;
    const double u1 = 2.0 - mantissa_unit(gauss_next(lanes, j));  // (0, 1]
    const double u2 = mantissa_unit(gauss_next(lanes, j)) - 1.0;  // [0, 1)
    const double scaled = sigma * std::sqrt(-2.0 * gauss_log(u1));
    double sin_v = 0.0;
    double cos_v = 0.0;
    gauss_sincos_2pi(u2, &sin_v, &cos_v);
    x[i] = cplx{x[i].real() + scaled * cos_v, x[i].imag() + scaled * sin_v};
  }
}

// -- fm_discriminate ----------------------------------------------------------
// fdlibm e_atan2 over s_atan. The AVX2 kernel sends every lane that would
// take one of fm_atan2's early branches through fm_atan2 itself, so only
// fm_atan_reduced and the final quadrant fix have to round alike there.

// s_atan's breakpoints 7/16, 11/16, 19/16, 39/16 split [0, inf) into five
// intervals. Interval id reduces r to x = (A r - B) / (A + B r) — the
// identity for id 0, then (2r - 1)/(2 + r), (r - 1)/(1 + r),
// (r - 1.5)/(1 + 1.5 r) and -1/r — and adds back atan's value hi + lo at
// the interval's anchor (0, 1/2, 1, 3/2, inf).
inline constexpr double kAtanBreak[4] = {0.4375, 0.6875, 1.1875, 2.4375};
inline constexpr double kAtanA[5] = {1.0, 2.0, 1.0, 1.0, 0.0};
inline constexpr double kAtanB[5] = {0.0, 1.0, 1.0, 1.5, 1.0};
inline constexpr double kAtanHi[5] = {0.0, 0x1.dac670561bb4fp-2,
                                      0x1.921fb54442d18p-1,
                                      0x1.f730bd281f69bp-1, kHalfPi};
inline constexpr double kAtanLo[5] = {0.0, 0x1.a2b7f222f65e2p-56,
                                      0x1.1a62633145c07p-55,
                                      0x1.007887af0cbbdp-56,
                                      0x1.1a62633145c07p-54};
inline constexpr double kAT0 = 0x1.555555555550dp-2;
inline constexpr double kAT1 = -0x1.999999998ebc4p-3;
inline constexpr double kAT2 = 0x1.24924920083ffp-3;
inline constexpr double kAT3 = -0x1.c71c6fe231671p-4;
inline constexpr double kAT4 = 0x1.745cdc54c206ep-4;
inline constexpr double kAT5 = -0x1.3b0f2af749a6dp-4;
inline constexpr double kAT6 = 0x1.10d66a0d03d51p-4;
inline constexpr double kAT7 = -0x1.dde2d52defd9ap-5;
inline constexpr double kAT8 = 0x1.97b4b24760debp-5;
inline constexpr double kAT9 = -0x1.2b4442c6a6c2fp-5;
inline constexpr double kAT10 = 0x1.0ad3ae322da11p-6;
inline constexpr double kPiLo = 0x1.1a62633145c07p-53;  // pi - fl(pi)

// atan(r) for r = |y/x| >= 0 finite. fdlibm's separate id < 0 form
// x - x (s1 + s2) and its r < 2^-27 early return give the same bits as
// this one expression with hi = lo = 0, so one path serves all five ids.
inline double fm_atan_reduced(double r) {
  const std::size_t id = std::size_t{r >= kAtanBreak[0]} +
                         std::size_t{r >= kAtanBreak[1]} +
                         std::size_t{r >= kAtanBreak[2]} +
                         std::size_t{r >= kAtanBreak[3]};
  const double a = kAtanA[id];
  const double b = kAtanB[id];
  const double x = (a * r - b) / (a + b * r);
  const double z = x * x;
  const double w = z * z;
  const double s1 =
      z * (kAT0 + w * (kAT2 + w * (kAT4 + w * (kAT6 + w * (kAT8 +
                                                           w * kAT10)))));
  const double s2 =
      w * (kAT1 + w * (kAT3 + w * (kAT5 + w * (kAT7 + w * kAT9))));
  return kAtanHi[id] - ((x * (s1 + s2) - kAtanLo[id]) - x);
}

// The high word of |v| (sign cleared), fdlibm's ix / iy.
inline std::int64_t fm_high_word(double v) {
  return static_cast<std::int64_t>(
      (std::bit_cast<std::uint64_t>(v) >> 32) & 0x7fffffffU);
}

inline double fm_atan2(double y, double x) {
  if (std::isnan(x) || std::isnan(y)) return x + y;
  const bool x_neg = std::signbit(x);
  const bool y_neg = std::signbit(y);
  const double ax = std::abs(x);
  const double ay = std::abs(y);
  const double inf = std::numeric_limits<double>::infinity();
  if (ay == 0.0) return x_neg ? (y_neg ? -kPi : kPi) : y;
  if (ax == 0.0) return y_neg ? -kHalfPi : kHalfPi;
  if (ax == inf) {
    const double quarter = 0x1.921fb54442d18p-1;  // fl(pi/4)
    if (ay == inf) {
      const double v = x_neg ? 3.0 * quarter : quarter;
      return y_neg ? -v : v;
    }
    return x_neg ? (y_neg ? -kPi : kPi) : (y_neg ? -0.0 : 0.0);
  }
  if (ay == inf) return y_neg ? -kHalfPi : kHalfPi;
  // fdlibm's exponent-gap shortcuts: |y/x| past 2^60 is pi/2, and below
  // 2^-60 with x < 0 the result is +-pi.
  const std::int64_t k = (fm_high_word(y) - fm_high_word(x)) >> 20;
  double z;
  if (k > 60) {
    z = kHalfPi + 0.5 * kPiLo;
  } else if (x_neg && k < -60) {
    z = 0.0;
  } else {
    z = fm_atan_reduced(std::abs(y / x));
  }
  if (!x_neg) return y_neg ? -z : z;
  return y_neg ? (z - kPiLo) - kPi : kPi - (z - kPiLo);
}

// -- qam_cost -----------------------------------------------------------------
// The nearest odd 64-QAM level of value / alpha, kept as a double so the
// clamp comes before any integer conversion: 2 floor(s / 2) + 1 for
// s = fl(value / alpha), clamped to [-7, 7] by the AVX2 max/min select (a
// NaN level becomes -7). The rule once also added 2 when s - level > 1,
// which no s reaches. While |s| >= 2^-1021, s / 2 is exact and
// floor(s / 2) > s / 2 - 1, so level > s - 1 exactly when |s| < 2^53 (then
// 2 floor(s / 2) + 1 is exact), and past 2^53 s / 2 is an integer and
// level = fl(s + 1) >= s; either way fl(s - level) <= 1. Below 2^-1021 the
// level is +-1 and s - level < 1. An infinite s gives Inf - Inf and a NaN
// one NaN, neither > 1. So the level is a non-decreasing function of s
// (halving, floor and clamp all are), with NaN at the bottom (-7).
inline double qam_level(double value, double alpha) {
  const double scaled = value / alpha;
  const double level = 2.0 * std::floor(scaled / 2.0) + 1.0;
  const double clamped = level > -7.0 ? level : -7.0;
  return clamped < 7.0 ? clamped : 7.0;
}

// One component's levels over ascending alphas (alphas[0] > 0), as runs of
// equal level: run r covers candidates [start[r], start[r + 1]), the last
// one up to m. Over such a grid the level is monotone in the candidate
// index for every value v: for finite nonzero v, v / alpha is monotone in
// alpha on (0, Inf] and correct rounding keeps it so, and the level is
// monotone in s (above); v = +-0 gives s = +-0 and level 1 throughout, a
// NaN v -7 throughout, and v = +Inf gives 7 at every finite alpha and -7
// at alpha = Inf (v = -Inf -7 throughout). So a monotone run of odd levels
// in [-7, 7] has at most eight runs, and any candidate between two
// evaluated ones of equal level has that level.
struct QamRuns {
  static constexpr std::size_t kMax = 8;
  std::size_t count = 0;
  std::size_t start[kMax];
  double level[kMax];
};

// The first candidate after `lo` whose level differs from `cur`, given
// level(lo) == cur and level(*hi) == *hi_level != cur: a probe, a gallop
// away from it and a bisection between candidates whose levels were
// evaluated. On return *hi is that candidate and *hi_level its level.
inline void qam_step(double v, const double* alphas, std::size_t lo,
                     std::size_t probe, double cur, std::size_t* hi,
                     double* hi_level) {
  probe = probe <= lo ? lo + 1 : (probe > *hi ? *hi : probe);
  const double probe_level = qam_level(v, alphas[probe]);
  if (probe_level == cur) {
    lo = probe;
    for (std::size_t stride = 1; lo + stride < *hi; stride *= 2) {
      const double level = qam_level(v, alphas[lo + stride]);
      if (level != cur) {
        *hi = lo + stride;
        *hi_level = level;
        break;
      }
      lo += stride;
    }
  } else {
    *hi = probe;
    *hi_level = probe_level;
    for (std::size_t stride = 1; lo + stride < *hi; stride *= 2) {
      const double level = qam_level(v, alphas[*hi - stride]);
      if (level == cur) {
        lo = *hi - stride;
        break;
      }
      *hi -= stride;
      *hi_level = level;
    }
  }
  while (*hi - lo > 1) {
    const std::size_t mid = lo + (*hi - lo) / 2;
    const double level = qam_level(v, alphas[mid]);
    if (level == cur) {
      lo = mid;
    } else {
      *hi = mid;
      *hi_level = level;
    }
  }
}

// Finds v's runs with exact qam_level evaluations only. Between the two
// ends' levels the level passes each odd value in turn (or skips some); for
// each such transition the probe is the first candidate past where v /
// alpha crosses the even boundary between its two levels, on a uniform
// grid of cell 1 / inv_cell. All probes and their left neighbours are
// evaluated up front, so their divides overlap. A transition whose pair
// shows the step (left neighbour at the current level, probe not) is done;
// any other runs qam_step. Any ascending grid is correct; a uniform one
// is fast.
inline void qam_runs(double v, const double* alphas, std::size_t m,
                     double inv_cell, QamRuns* runs) {
  const double first = qam_level(v, alphas[0]);
  const double last = m > 1 ? qam_level(v, alphas[m - 1]) : first;
  runs->count = 1;
  runs->start[0] = 0;
  runs->level[0] = first;
  if (first == last) return;
  const double dir = last > first ? 2.0 : -2.0;
  const auto transitions = static_cast<std::size_t>((last - first) / dir);
  std::size_t at[QamRuns::kMax];
  double left[QamRuns::kMax];
  double right[QamRuns::kMax];
  for (std::size_t k = 0; k < transitions; ++k) {
    const double boundary = first + dir * (static_cast<double>(k) + 0.5);
    const double cross = std::abs(boundary) >= 2.0
                             ? (v / boundary - alphas[0]) * inv_cell
                             : -1.0;
    at[k] = cross >= 0.0 && cross < static_cast<double>(m - 1)
                ? static_cast<std::size_t>(cross) + 1
                : 1;
    left[k] = qam_level(v, alphas[at[k] - 1]);
    right[k] = qam_level(v, alphas[at[k]]);
  }
  double cur = first;
  std::size_t lo = 0;  // level(lo) == cur
  while (cur != last && runs->count < QamRuns::kMax) {
    const auto k = static_cast<std::size_t>((cur - first) / dir);
    std::size_t hi = m - 1;
    double hi_level = last;
    if (at[k] > lo && left[k] == cur && right[k] != cur) {
      hi = at[k];
      hi_level = right[k];
    } else {
      qam_step(v, alphas, lo, at[k], cur, &hi, &hi_level);
    }
    runs->start[runs->count] = hi;
    runs->level[runs->count] = hi_level;
    ++runs->count;
    lo = hi;
    cur = hi_level;
  }
}

// Eq. 4's cost at every candidate with no divide per point and candidate:
// each point's two components get their level runs, and
// segment(vr, vi, lr, li, a, b) adds the point's term at levels (lr, li)
// to candidates [a, b). Points run in order, so each candidate's sum
// starts at 0.0 and runs in point order, as the per-candidate loop's does.
template <class Segment>
inline void qam_cost_runs(const cplx* points, std::size_t n,
                          const double* alphas, std::size_t m, double* costs,
                          const Segment& segment) {
  for (std::size_t c = 0; c < m; ++c) costs[c] = 0.0;
  if (m == 0) return;
  const double span = alphas[m - 1] - alphas[0];
  const double inv_cell = span > 0.0 ? static_cast<double>(m - 1) / span : 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double vr = points[i].real();
    const double vi = points[i].imag();
    QamRuns re;
    QamRuns im;
    qam_runs(vr, alphas, m, inv_cell, &re);
    qam_runs(vi, alphas, m, inv_cell, &im);
    std::size_t r = 0;
    std::size_t q = 0;
    for (std::size_t a = 0; a < m;) {
      const std::size_t end_r = r + 1 < re.count ? re.start[r + 1] : m;
      const std::size_t end_q = q + 1 < im.count ? im.start[q + 1] : m;
      const std::size_t b = end_r < end_q ? end_r : end_q;
      segment(vr, vi, re.level[r], im.level[q], a, b);
      if (b == end_r) ++r;
      if (b == end_q) ++q;
      a = b;
    }
  }
}

// One point's term at fixed levels, added to candidates [a, b):
// fl(fl(dr^2) + fl(di^2)), d = point - fl(alpha * level) per component.
inline void qam_segment(double vr, double vi, double lr, double li,
                        const double* alphas, std::size_t a, std::size_t b,
                        double* costs) {
  for (std::size_t c = a; c < b; ++c) {
    const double dr = vr - alphas[c] * lr;
    const double di = vi - alphas[c] * li;
    costs[c] += (dr * dr) + (di * di);
  }
}

inline void qam_cost(const cplx* points, std::size_t n, const double* alphas,
                     std::size_t m, double* costs) {
  qam_cost_runs(points, n, alphas, m, costs,
                [&](double vr, double vi, double lr, double li, std::size_t a,
                    std::size_t b) {
                  qam_segment(vr, vi, lr, li, alphas, a, b, costs);
                });
}

// Legacy extend_frequency_chips loop with fm_atan2 for libm's atan2.
inline void fm_discriminate(const cplx* wave, std::size_t num_chips,
                            std::size_t spc, double* chips) {
  for (std::size_t i = 0; i < num_chips; ++i) {
    double rotation = 0.0;
    for (std::size_t s = i * spc + 1; s <= (i + 1) * spc; ++s) {
      const double a = wave[s].real();
      const double b = wave[s].imag();
      const double c = wave[s - 1].real();
      const double d = wave[s - 1].imag();
      const double re = (a * c) + (b * d);
      const double im = (b * c) - (a * d);
      if ((re * re) + (im * im) > 1e-24) rotation += fm_atan2(im, re);
    }
    chips[i] = rotation / kHalfPi;
  }
}

}  // namespace ctc::dsp::kernels::scalar_impl
