// AVX2+FMA kernel table.
//
// Compiled with -mavx2 -mfma -ffp-contract=off (src/dsp/CMakeLists.txt):
// intrinsics supply the vector ops, and disabling contraction means the
// scalar heads/tails in this TU (shared with scalar_impl.h) round exactly
// like the scalar table — that is what makes the bitwise contracts hold.
// FMA appears ONLY as explicit _mm256_fmadd_pd / std::fma in the two
// tolerance-class kernels (resample, oqpsk_mf).
//
// Lane conventions (see kernels.h): reductions keep two accumulator
// registers A (elements ≡ 0,1 mod 4 / components 0-3 mod 8) and B
// (elements ≡ 2,3 mod 4 / components 4-7 mod 8); tails spill the lanes and
// continue with the scalar_impl code, so scalar/AVX2 equality is by
// construction rather than by parallel maintenance.
#include "dsp/kernels/kernels_internal.h"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "dsp/kernels/scalar_impl.h"

namespace ctc::dsp::kernels::detail {
namespace {

inline const double* as_doubles(const cplx* p) {
  return reinterpret_cast<const double*>(p);
}
inline double* as_doubles(cplx* p) { return reinterpret_cast<double*>(p); }

/// [x0,x1,x2,x3] -> [x1,x0,x3,x2] (swap re/im within each complex).
inline __m256d swap_pairs(__m256d v) { return _mm256_permute_pd(v, 0x5); }

/// Sign mask that negates the odd (imaginary) lanes on XOR.
inline __m256d negate_odd_mask() {
  return _mm256_set_pd(-0.0, 0.0, -0.0, 0.0);
}

/// Packed complex multiply: two interleaved complexes per register.
/// Rounding per lane: re = fl(fl(ar*br) - fl(ai*bi)),
/// im = fl(fl(ai*br) + fl(ar*bi)) — the libstdc++ operator* structure.
inline __m256d cmul_packed(__m256d a, __m256d b) {
  const __m256d t1 = _mm256_mul_pd(a, _mm256_movedup_pd(b));
  const __m256d t2 = _mm256_mul_pd(swap_pairs(a), _mm256_permute_pd(b, 0xF));
  return _mm256_addsub_pd(t1, t2);
}

/// Splits 4 interleaved complexes at p into real and imaginary registers.
inline void deinterleave4(const double* p, __m256d* re, __m256d* im) {
  const __m256d a = _mm256_loadu_pd(p);
  const __m256d b = _mm256_loadu_pd(p + 4);
  const __m256d lo = _mm256_permute2f128_pd(a, b, 0x20);
  const __m256d hi = _mm256_permute2f128_pd(a, b, 0x31);
  *re = _mm256_unpacklo_pd(lo, hi);
  *im = _mm256_unpackhi_pd(lo, hi);
}

// ---------------------------------------------------------------------------
// resample (tolerance): per output one fma chain over ascending tap index,
// from +0.0, over the taps that meet an input sample. That is the old full
// convolution's gather chain with its stuffed-zero products and unkept
// outputs left out. The vector interiors and resample_one (edges and
// leftovers) round every output as that same chain, so no output's bits
// depend on which path ran it. Registers of two outputs each keep several
// chains in flight: four when upsampling (one load per fma), eight when
// decimating (two half loads per fma), the faster counts on a 4-core x86
// host.
//
// One fused step can leave a -0 accumulator: an exact product-plus-sum
// that is negative but below half the least subnormal rounds to -0. A
// skipped stuffed-zero product with a tap of clear sign bit would have
// turned that -0 into +0. Every other step rounds the same exact value
// whatever the zero's sign, so the two chains differ at most in the sign
// of a zero, and resample_zero_signs redoes each output with a zero
// component through the zero-stuffed chain.
// ---------------------------------------------------------------------------

constexpr std::size_t kUpChains = 4;
constexpr std::size_t kDownChains = 8;

cplx resample_one(const cplx* x, std::size_t n, std::size_t up,
                  const double* taps, std::size_t t, std::size_t k) {
  const std::size_t first = scalar_impl::resample_first_input(k, up, t);
  const std::size_t end = k / up < n ? k / up + 1 : n;
  double re = 0.0;
  double im = 0.0;
  for (std::size_t i = end; i-- > first;) {  // ascending tap index
    const double tap = taps[k - i * up];
    re = std::fma(x[i].real(), tap, re);
    im = std::fma(x[i].imag(), tap, im);
  }
  return cplx{re, im};
}

// The old chain itself: every tap whose zero-stuffed index k - j lies in
// [0, n*up), a stuffed zero where k - j is not a multiple of up.
cplx resample_stuffed(const cplx* x, std::size_t n, std::size_t up,
                      const double* taps, std::size_t t, std::size_t k) {
  const std::size_t last = n * up - 1;
  const std::size_t jhi = k < t - 1 ? k : t - 1;
  double re = 0.0;
  double im = 0.0;
  for (std::size_t j = k > last ? k - last : 0; j <= jhi; ++j) {
    const std::size_t stuffed = k - j;
    const cplx v = stuffed % up == 0 ? x[stuffed / up] : cplx{0.0, 0.0};
    re = std::fma(v.real(), taps[j], re);
    im = std::fma(v.imag(), taps[j], im);
  }
  return cplx{re, im};
}

// Redoes the outputs with a +-0 component through resample_stuffed (n > 0).
void resample_zero_signs(const cplx* x, std::size_t n, std::size_t up,
                         std::size_t down, const double* taps, std::size_t t,
                         cplx* out, std::size_t m) {
  const std::size_t delay = (t - 1) / 2;
  const __m256d zero = _mm256_setzero_pd();
  for (std::size_t o = 0; o < m; o += 2) {
    const bool pair = o + 1 < m;
    const __m256d v =
        pair ? _mm256_loadu_pd(as_doubles(out + o))
             : _mm256_castpd128_pd256(_mm_loadu_pd(as_doubles(out + o)));
    const int zeros = _mm256_movemask_pd(_mm256_cmp_pd(v, zero, _CMP_EQ_OQ)) &
                      (pair ? 15 : 3);
    if ((zeros & 3) != 0) {
      out[o] = resample_stuffed(x, n, up, taps, t, o * down + delay);
    }
    if ((zeros & 12) != 0) {
      out[o + 1] = resample_stuffed(x, n, up, taps, t, (o + 1) * down + delay);
    }
  }
}

// Upsampling: output k = q*up + r (phase r) takes taps r + s*up against
// x[q - s]. Where every phase's whole tap set lies inside x, a register
// holds one phase's outputs at q and q + 1, whose samples are adjacent.
// Returns the interior's q range [*qa, *qb) (empty when *qa >= *qb).
void resample_up(const cplx* x, std::size_t n, std::size_t up,
                 const double* taps, std::size_t t, cplx* out, std::size_t m,
                 std::size_t* qa, std::size_t* qb) {
  const std::size_t delay = (t - 1) / 2;
  const std::size_t most_taps = (t + up - 1) / up;  // phase 0's count
  // Interior q: whole tap sets (q >= most_taps - 1, q < n) and every
  // phase's output index k - delay inside [0, m).
  *qa = std::max(most_taps - 1, (delay + up - 1) / up);
  *qb = m + delay >= up ? std::min(n, (m + delay - up) / up + 1) : 0;
  std::size_t q0 = *qa;
  for (; q0 + 2 * kUpChains <= *qb; q0 += 2 * kUpChains) {
    for (std::size_t r = 0; r < up; ++r) {
      __m256d acc[kUpChains];
      for (auto& a : acc) a = _mm256_setzero_pd();
      for (std::size_t j = r, s = 0; j < t; j += up, ++s) {
        const __m256d tap = _mm256_set1_pd(taps[j]);
        for (std::size_t b = 0; b < kUpChains; ++b) {
          acc[b] = _mm256_fmadd_pd(
              _mm256_loadu_pd(as_doubles(x + q0 + 2 * b - s)), tap, acc[b]);
        }
      }
      for (std::size_t b = 0; b < kUpChains; ++b) {
        const std::size_t o = (q0 + 2 * b) * up + r - delay;
        _mm_storeu_pd(as_doubles(out + o), _mm256_castpd256_pd128(acc[b]));
        _mm_storeu_pd(as_doubles(out + o + up),
                      _mm256_extractf128_pd(acc[b], 1));
      }
    }
  }
  for (; q0 < *qb; ++q0) {
    for (std::size_t r = 0; r < up; ++r) {
      out[q0 * up + r - delay] = resample_one(x, n, up, taps, t, q0 * up + r);
    }
  }
}

// Decimation: output o takes every tap against x[o*down + delay - j].
// Where the whole window lies inside x, a register holds outputs o and
// o + 1, loaded as two halves `down` samples apart. Returns the interior
// [*oa, *ob).
void resample_down(const cplx* x, std::size_t n, std::size_t down,
                   const double* taps, std::size_t t, cplx* out,
                   std::size_t m, std::size_t* oa, std::size_t* ob) {
  const std::size_t delay = (t - 1) / 2;
  *oa = (delay + down - 1) / down;  // k >= t - 1
  *ob = n > delay ? std::min(m, (n - 1 - delay) / down + 1) : 0;  // k < n
  std::size_t o0 = *oa;
  for (; o0 + 2 * kDownChains <= *ob; o0 += 2 * kDownChains) {
    __m256d acc[kDownChains];
    for (auto& a : acc) a = _mm256_setzero_pd();
    for (std::size_t j = 0; j < t; ++j) {
      const __m256d tap = _mm256_set1_pd(taps[j]);
#pragma GCC unroll 8
      for (std::size_t b = 0; b < kDownChains; ++b) {
        const cplx* lo = x + (o0 + 2 * b) * down + delay - j;
        const __m256d v = _mm256_insertf128_pd(
            _mm256_castpd128_pd256(_mm_loadu_pd(as_doubles(lo))),
            _mm_loadu_pd(as_doubles(lo + down)), 1);
        acc[b] = _mm256_fmadd_pd(v, tap, acc[b]);
      }
    }
    for (std::size_t b = 0; b < kDownChains; ++b) {
      _mm256_storeu_pd(as_doubles(out + o0 + 2 * b), acc[b]);
    }
  }
  for (; o0 < *ob; ++o0) {
    out[o0] = resample_one(x, n, 1, taps, t, o0 * down + delay);
  }
}

void resample(const cplx* x, std::size_t n, std::size_t up, std::size_t down,
              const double* taps, std::size_t t, cplx* out, std::size_t m) {
  const std::size_t delay = (t - 1) / 2;
  // The vector interior covers outputs [lo, hi); the rest run one by one.
  std::size_t lo = 0;
  std::size_t hi = 0;
  if (down == 1) {
    std::size_t qa = 0;
    std::size_t qb = 0;
    resample_up(x, n, up, taps, t, out, m, &qa, &qb);
    if (qa < qb) {
      lo = qa * up - delay;
      hi = qb * up - delay;
    }
  } else if (up == 1) {
    std::size_t oa = 0;
    std::size_t ob = 0;
    resample_down(x, n, down, taps, t, out, m, &oa, &ob);
    if (oa < ob) {
      lo = oa;
      hi = ob;
    }
  }
  for (std::size_t o = 0; o < lo; ++o) {
    out[o] = resample_one(x, n, up, taps, t, o * down + delay);
  }
  for (std::size_t o = hi; o < m; ++o) {
    out[o] = resample_one(x, n, up, taps, t, o * down + delay);
  }
  if (up > 1 && n > 0) resample_zero_signs(x, n, up, down, taps, t, out, m);
}

// ---------------------------------------------------------------------------
// rotate (tolerance samples, bitwise final phase): phasor recurrence
// re-anchored from the exact scalar phase every 128 samples.
// ---------------------------------------------------------------------------

double rotate(const cplx* in, std::size_t n, cplx* out, double phase,
              double step) {
  constexpr std::size_t kAnchor = 128;
  const double c4 = std::cos(4.0 * step);
  const double s4 = std::sin(4.0 * step);
  const __m256d rot4 = _mm256_set_pd(s4, c4, s4, c4);
  std::size_t i = 0;
  while (i + 4 <= n) {
    const double ph0 = phase;
    const double ph1 = scalar_impl::wrap_phase_step(ph0, step);
    const double ph2 = scalar_impl::wrap_phase_step(ph1, step);
    const double ph3 = scalar_impl::wrap_phase_step(ph2, step);
    __m256d p01 = _mm256_set_pd(std::sin(ph1), std::cos(ph1), std::sin(ph0),
                                std::cos(ph0));
    __m256d p23 = _mm256_set_pd(std::sin(ph3), std::cos(ph3), std::sin(ph2),
                                std::cos(ph2));
    std::size_t remaining = n - i;
    if (remaining > kAnchor) remaining = kAnchor;
    const std::size_t block = remaining & ~std::size_t{3};
    for (std::size_t done = 0; done < block; done += 4) {
      const __m256d v0 = _mm256_loadu_pd(as_doubles(in + i));
      const __m256d v1 = _mm256_loadu_pd(as_doubles(in + i + 2));
      _mm256_storeu_pd(as_doubles(out + i), cmul_packed(v0, p01));
      _mm256_storeu_pd(as_doubles(out + i + 2), cmul_packed(v1, p23));
      p01 = cmul_packed(p01, rot4);
      p23 = cmul_packed(p23, rot4);
      // Advance the exact phase recurrence past the 4 consumed samples so
      // re-anchoring (and the returned state) match the scalar level.
      phase = scalar_impl::wrap_phase_step(phase, step);
      phase = scalar_impl::wrap_phase_step(phase, step);
      phase = scalar_impl::wrap_phase_step(phase, step);
      phase = scalar_impl::wrap_phase_step(phase, step);
      i += 4;
    }
  }
  return scalar_table().rotate(in + i, n - i, out + i, phase, step);
}

// ---------------------------------------------------------------------------
// Elementwise complex ops (bitwise).
//
// Tail leftovers call through the scalar TABLE (an indirect call into the
// scalar TU's object code), not the inlined scalar_impl functions: GCC's
// vectorizer recognizes the complex-multiply shape of the inlined loops and
// emits vfmaddsub in this -mfma TU even under -ffp-contract=off, which
// would fork the tails from the scalar level by 1 ulp.
// ---------------------------------------------------------------------------

void rscale(cplx* x, std::size_t n, double s) {
  const __m256d vs = _mm256_set1_pd(s);
  double* xd = as_doubles(x);
  const std::size_t m = 2 * n;
  std::size_t k = 0;
  for (; k + 4 <= m; k += 4) {
    _mm256_storeu_pd(xd + k, _mm256_mul_pd(_mm256_loadu_pd(xd + k), vs));
  }
  scalar_table().rscale(x + k / 2, n - k / 2, s);
}

void apply_window(const cplx* in, const double* w, std::size_t n, cplx* out) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d wv = _mm256_loadu_pd(w + i);
    const __m256d w01 = _mm256_permute4x64_pd(wv, 0x50);  // [w0,w0,w1,w1]
    const __m256d w23 = _mm256_permute4x64_pd(wv, 0xFA);  // [w2,w2,w3,w3]
    const __m256d v0 = _mm256_loadu_pd(as_doubles(in + i));
    const __m256d v1 = _mm256_loadu_pd(as_doubles(in + i + 2));
    _mm256_storeu_pd(as_doubles(out + i), _mm256_mul_pd(v0, w01));
    _mm256_storeu_pd(as_doubles(out + i + 2), _mm256_mul_pd(v1, w23));
  }
  scalar_table().apply_window(in + i, w + i, n - i, out + i);
}

void accumulate_mag2(double* acc, const cplx* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d re;
    __m256d im;
    deinterleave4(as_doubles(x + i), &re, &im);
    const __m256d mag2 =
        _mm256_add_pd(_mm256_mul_pd(re, re), _mm256_mul_pd(im, im));
    _mm256_storeu_pd(acc + i, _mm256_add_pd(_mm256_loadu_pd(acc + i), mag2));
  }
  scalar_table().accumulate_mag2(acc + i, x + i, n - i);
}

void two_tap(cplx* x, std::size_t n, double a, double b) {
  const __m256d va = _mm256_set1_pd(a);
  const __m256d vb = _mm256_set1_pd(b);
  double* xd = as_doubles(x);
  std::size_t i = n;
  // Backward sweep: elements [j, j+1] are written only after [j-1, j] have
  // been read, and every later-read index is below every written one.
  while (i >= 3) {
    const std::size_t j = i - 2;
    const __m256d cur = _mm256_loadu_pd(xd + 2 * j);
    const __m256d prev = _mm256_loadu_pd(xd + 2 * j - 2);
    _mm256_storeu_pd(
        xd + 2 * j,
        _mm256_add_pd(_mm256_mul_pd(cur, va), _mm256_mul_pd(prev, vb)));
    i -= 2;
  }
  scalar_table().two_tap(x, i, a, b);
}

// ---------------------------------------------------------------------------
// cdiv (bitwise): libgcc's __divdc3 common path (operation order in
// kernels.h) with Smith's ratio and denominator computed once per call and
// two samples per register, so one divide serves four numerators. What
// libgcc does differently runs the scalar table: the whole call when it
// would halve (major >= DBL_MAX/2), scale up (major < DBL_EPSILON) or use
// its subnormal-ratio order (|r| <= DBL_MIN, e.g. an exactly real or
// imaginary h); one sample when a component is below DBL_MIN in magnitude
// (its operand scaling) or a quotient is NaN (its recovery branch, NaN
// payloads). The numerators must stay unfused: a build with contraction
// differs from libgcc by 1 ulp on some samples. Quotients go to `out`,
// which may be `in`, so a redone sample starts from its input as loaded.
// ---------------------------------------------------------------------------

template <bool kImagMajor>
void cdiv_smith(const cplx* in, std::size_t n, cplx h, double ratio,
                double denom, cplx* out) {
  const __m256d r = _mm256_set1_pd(ratio);
  const __m256d den = _mm256_set1_pd(denom);
  const __m256d neg_odd = negate_odd_mask();
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d tiny = _mm256_set1_pd(std::numeric_limits<double>::min());
  const double* xd = as_doubles(in);
  double* od = as_doubles(out);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m256d v = _mm256_loadu_pd(xd + 2 * i);  // [a0, b0, a1, b1]
    // [a r + b, b r + (-a)] or [a + b r, b + (-(a r))]: x - y is x + (-y).
    const __m256d num =
        kImagMajor ? _mm256_add_pd(_mm256_mul_pd(v, r),
                                   _mm256_xor_pd(swap_pairs(v), neg_odd))
                   : _mm256_add_pd(v, _mm256_xor_pd(
                                          _mm256_mul_pd(swap_pairs(v), r),
                                          neg_odd));
    const __m256d q = _mm256_div_pd(num, den);
    const int redo = _mm256_movemask_pd(_mm256_or_pd(
        _mm256_cmp_pd(_mm256_andnot_pd(sign, v), tiny, _CMP_LT_OQ),
        _mm256_cmp_pd(q, q, _CMP_UNORD_Q)));
    _mm256_storeu_pd(od + 2 * i, q);
    if (redo != 0) {
      // The saved input, since the store above may have overwritten it.
      alignas(32) double saved[4];
      _mm256_store_pd(saved, v);
      for (std::size_t k = 0; k < 2; ++k) {
        if ((redo >> (2 * k)) & 3) {
          const cplx sample{saved[2 * k], saved[2 * k + 1]};
          scalar_table().cdiv(&sample, 1, h, out + i + k);
        }
      }
    }
  }
  scalar_table().cdiv(in + i, n - i, h, out + i);
}

void cdiv(const cplx* in, std::size_t n, cplx h, cplx* out) {
  const double c = h.real();
  const double d = h.imag();
  const bool imag_major = std::abs(c) < std::abs(d);
  const double major = imag_major ? std::abs(d) : std::abs(c);
  const double ratio = imag_major ? c / d : d / c;
  const double denom = imag_major ? (c * ratio) + d : (d * ratio) + c;
  // Written so that a NaN major or ratio fails it.
  const bool common = major < std::numeric_limits<double>::max() / 2 &&
                      major >= std::numeric_limits<double>::epsilon() &&
                      std::abs(ratio) > std::numeric_limits<double>::min();
  if (!common) {
    scalar_table().cdiv(in, n, h, out);
  } else if (imag_major) {
    cdiv_smith<true>(in, n, h, ratio, denom, out);
  } else {
    cdiv_smith<false>(in, n, h, ratio, denom, out);
  }
}

// ---------------------------------------------------------------------------
// Reductions (bitwise, lane-structured).
// ---------------------------------------------------------------------------

double energy(const cplx* x, std::size_t n) {
  const double* d = as_doubles(x);
  const std::size_t m = 2 * n;
  __m256d acc_a = _mm256_setzero_pd();
  __m256d acc_b = _mm256_setzero_pd();
  std::size_t k = 0;
  for (; k + 8 <= m; k += 8) {
    const __m256d va = _mm256_loadu_pd(d + k);
    const __m256d vb = _mm256_loadu_pd(d + k + 4);
    acc_a = _mm256_add_pd(acc_a, _mm256_mul_pd(va, va));
    acc_b = _mm256_add_pd(acc_b, _mm256_mul_pd(vb, vb));
  }
  double lane[8];
  _mm256_storeu_pd(lane, acc_a);
  _mm256_storeu_pd(lane + 4, acc_b);
  scalar_impl::energy_acc(lane, d + k, m - k);
  return scalar_impl::energy_fold(lane);
}

cplx dot_conj(const cplx* a, const cplx* b, std::size_t n) {
  const __m256d neg_odd = negate_odd_mask();
  __m256d acc_a = _mm256_setzero_pd();  // complexes i % 4 in {0, 1}
  __m256d acc_b = _mm256_setzero_pd();  // complexes i % 4 in {2, 3}
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d va = _mm256_loadu_pd(as_doubles(a + i));
    const __m256d wa = _mm256_loadu_pd(as_doubles(b + i));
    const __m256d vb = _mm256_loadu_pd(as_doubles(a + i + 2));
    const __m256d wb = _mm256_loadu_pd(as_doubles(b + i + 2));
    // Per complex: [ar*br, ai*bi] and [ai*br, ar*bi]; regroup so each
    // contribution lane is a single rounded sum fl(p +- q).
    const __m256d t1a = _mm256_mul_pd(va, wa);
    const __m256d t2a = _mm256_mul_pd(swap_pairs(va), wa);
    const __m256d s1a = _mm256_unpacklo_pd(t1a, t2a);
    const __m256d s2a = _mm256_xor_pd(_mm256_unpackhi_pd(t1a, t2a), neg_odd);
    acc_a = _mm256_add_pd(acc_a, _mm256_add_pd(s1a, s2a));
    const __m256d t1b = _mm256_mul_pd(vb, wb);
    const __m256d t2b = _mm256_mul_pd(swap_pairs(vb), wb);
    const __m256d s1b = _mm256_unpacklo_pd(t1b, t2b);
    const __m256d s2b = _mm256_xor_pd(_mm256_unpackhi_pd(t1b, t2b), neg_odd);
    acc_b = _mm256_add_pd(acc_b, _mm256_add_pd(s1b, s2b));
  }
  double spill_a[4];
  double spill_b[4];
  _mm256_storeu_pd(spill_a, acc_a);
  _mm256_storeu_pd(spill_b, acc_b);
  double lr[4] = {spill_a[0], spill_a[2], spill_b[0], spill_b[2]};
  double li[4] = {spill_a[1], spill_a[3], spill_b[1], spill_b[3]};
  scalar_impl::dot_conj_acc(lr, li, a + i, b + i, n - i);
  return scalar_impl::dot_conj_fold(lr, li);
}

// chip_strip (bitwise): the three passes of scalar_impl::chip_strip, four
// positions per register. The filter passes keep two positions per
// register with x interleaved, multiply and add unfused in the scalar tap
// order, then deinterleave into the SoA work arrays. The chip sum runs
// sixteen offsets per pass (four registers per component, so the 31
// dependent adds of each offset overlap), applying each chip's sign by an
// XOR of the sign bit, which is exactly the scalar negation.

/// [r0 i0 r1 i1], [r2 i2 r3 i3] -> [r0 r1 r2 r3] and [i0 i1 i2 i3] stored
/// at re and im.
inline void store_split(__m256d a, __m256d b, double* re, double* im) {
  const __m256d lo = _mm256_permute2f128_pd(a, b, 0x20);
  const __m256d hi = _mm256_permute2f128_pd(a, b, 0x31);
  _mm256_storeu_pd(re, _mm256_unpacklo_pd(lo, hi));
  _mm256_storeu_pd(im, _mm256_unpackhi_pd(lo, hi));
}

void chip_filter(const cplx* x, std::size_t t1, std::size_t spc,
                 const double* pulse, double* zr, double* zi) {
  const std::size_t taps = 2 * spc;
  std::size_t t = 0;
  for (; t + 4 <= t1; t += 4) {
    const double* xt = as_doubles(x + t);
    const __m256d p0 = _mm256_broadcast_sd(pulse);
    __m256d a = _mm256_mul_pd(_mm256_loadu_pd(xt), p0);
    __m256d b = _mm256_mul_pd(_mm256_loadu_pd(xt + 4), p0);
    for (std::size_t n = 1; n < taps; ++n) {
      const __m256d pn = _mm256_broadcast_sd(pulse + n);
      a = _mm256_add_pd(a, _mm256_mul_pd(_mm256_loadu_pd(xt + 2 * n), pn));
      b = _mm256_add_pd(b, _mm256_mul_pd(_mm256_loadu_pd(xt + 2 * n + 4), pn));
    }
    store_split(a, b, zr + t, zi + t);
  }
  chip_filter_scalar(x, t, t1, spc, pulse, zr, zi);
}

void chip_edge(const cplx* x, std::size_t m, std::size_t spc,
               const double* pulse, double* er, double* ei) {
  const std::size_t head = (scalar_impl::kStripChips - 1) * spc;
  std::size_t s = 0;
  for (; s + 4 <= m; s += 4) {
    const double* xl = as_doubles(x + s + head);
    const double* xs = as_doubles(x + s);
    const __m256d p0 = _mm256_broadcast_sd(pulse);
    __m256d a = _mm256_mul_pd(_mm256_loadu_pd(xl), p0);
    __m256d b = _mm256_mul_pd(_mm256_loadu_pd(xl + 4), p0);
    for (std::size_t n = 1; n < spc; ++n) {
      const __m256d pn = _mm256_broadcast_sd(pulse + n);
      a = _mm256_add_pd(a, _mm256_mul_pd(_mm256_loadu_pd(xl + 2 * n), pn));
      b = _mm256_add_pd(b, _mm256_mul_pd(_mm256_loadu_pd(xl + 2 * n + 4), pn));
    }
    for (std::size_t n = spc; n < 2 * spc; ++n) {
      const __m256d pn = _mm256_broadcast_sd(pulse + n);
      const double* xn = xs + 2 * (n - spc);
      a = _mm256_add_pd(a, _mm256_mul_pd(_mm256_loadu_pd(xn), pn));
      b = _mm256_add_pd(b, _mm256_mul_pd(_mm256_loadu_pd(xn + 4), pn));
    }
    store_split(a, b, er + s, ei + s);
  }
  chip_edge_scalar(x, s, m, spc, pulse, er, ei);
}

/// Offsets [s, s + 4G) of the chip sum, G registers per component.
template <std::size_t G>
inline void chip_sum_block(const scalar_impl::ChipTerms& terms,
                           const double* flip_re, const double* flip_im,
                           std::size_t s, cplx* out) {
  __m256d re[G];
  __m256d im[G];
  {
    const __m256d fr = _mm256_broadcast_sd(flip_re);
    const __m256d fi = _mm256_broadcast_sd(flip_im);
#pragma GCC unroll 4
    for (std::size_t g = 0; g < G; ++g) {
      re[g] = _mm256_xor_pd(_mm256_loadu_pd(terms.re[0] + s + 4 * g), fr);
      im[g] = _mm256_xor_pd(_mm256_loadu_pd(terms.im[0] + s + 4 * g), fi);
    }
  }
  for (std::size_t j = 1; j < scalar_impl::kStripChips; ++j) {
    const __m256d fr = _mm256_broadcast_sd(flip_re + j);
    const __m256d fi = _mm256_broadcast_sd(flip_im + j);
    const double* pr = terms.re[j] + s;
    const double* pi = terms.im[j] + s;
#pragma GCC unroll 4
    for (std::size_t g = 0; g < G; ++g) {
      re[g] = _mm256_add_pd(re[g],
                            _mm256_xor_pd(_mm256_loadu_pd(pr + 4 * g), fr));
      im[g] = _mm256_add_pd(im[g],
                            _mm256_xor_pd(_mm256_loadu_pd(pi + 4 * g), fi));
    }
  }
#pragma GCC unroll 4
  for (std::size_t g = 0; g < G; ++g) {
    // [r0 r1 r2 r3], [i0 i1 i2 i3] -> [r0 i0 r1 i1], [r2 i2 r3 i3].
    const __m256d lo = _mm256_unpacklo_pd(re[g], im[g]);
    const __m256d hi = _mm256_unpackhi_pd(re[g], im[g]);
    double* o = as_doubles(out + s + 4 * g);
    _mm256_storeu_pd(o, _mm256_permute2f128_pd(lo, hi, 0x20));
    _mm256_storeu_pd(o + 4, _mm256_permute2f128_pd(lo, hi, 0x31));
  }
}

void chip_strip(const cplx* x, std::size_t m, std::size_t spc,
                const double* pulse, std::uint32_t chips, double* work,
                cplx* out) {
  if (m == 0) return;
  const std::size_t zn = m + (scalar_impl::kStripChips - 2) * spc;
  chip_filter(x, zn, spc, pulse, work, work + zn);
  chip_edge(x, m, spc, pulse, work + 2 * zn, work + 2 * zn + m);
  const scalar_impl::ChipTerms terms =
      scalar_impl::chip_terms(work, m, spc, chips);
  double flip_re[scalar_impl::kStripChips];
  double flip_im[scalar_impl::kStripChips];
  for (std::size_t j = 0; j < scalar_impl::kStripChips; ++j) {
    flip_re[j] = terms.neg_re[j] ? -0.0 : 0.0;
    flip_im[j] = terms.neg_im[j] ? -0.0 : 0.0;
  }
  std::size_t s = 0;
  for (; s + 16 <= m; s += 16) {
    chip_sum_block<4>(terms, flip_re, flip_im, s, out);
  }
  for (; s + 4 <= m; s += 4) chip_sum_block<1>(terms, flip_re, flip_im, s, out);
  scalar_impl::chip_sum(terms, s, m, out);
}

void cumulant_acc(const cplx* x, std::size_t n, CumulantLanes* lanes) {
  std::size_t i = 0;
  if (n >= 4) {
    // Lane j of each register is exactly lanes->lane[j] for one field.
    alignas(32) double x2r_l[4];
    alignas(32) double x2i_l[4];
    alignas(32) double x4r_l[4];
    alignas(32) double x4i_l[4];
    alignas(32) double ur_l[4];
    alignas(32) double ui_l[4];
    alignas(32) double a2_l[4];
    alignas(32) double a4_l[4];
    for (std::size_t j = 0; j < 4; ++j) {
      x2r_l[j] = lanes->lane[j].sum_x2.real();
      x2i_l[j] = lanes->lane[j].sum_x2.imag();
      x4r_l[j] = lanes->lane[j].sum_x4.real();
      x4i_l[j] = lanes->lane[j].sum_x4.imag();
      ur_l[j] = lanes->lane[j].sum_x3_conj.real();
      ui_l[j] = lanes->lane[j].sum_x3_conj.imag();
      a2_l[j] = lanes->lane[j].sum_abs2;
      a4_l[j] = lanes->lane[j].sum_abs4;
    }
    __m256d sx2r = _mm256_load_pd(x2r_l);
    __m256d sx2i = _mm256_load_pd(x2i_l);
    __m256d sx4r = _mm256_load_pd(x4r_l);
    __m256d sx4i = _mm256_load_pd(x4i_l);
    __m256d sur = _mm256_load_pd(ur_l);
    __m256d sui = _mm256_load_pd(ui_l);
    __m256d sa2 = _mm256_load_pd(a2_l);
    __m256d sa4 = _mm256_load_pd(a4_l);
    for (; i + 4 <= n; i += 4) {
      __m256d re;
      __m256d im;
      deinterleave4(as_doubles(x + i), &re, &im);
      const __m256d rr = _mm256_mul_pd(re, re);
      const __m256d ii = _mm256_mul_pd(im, im);
      const __m256d ri = _mm256_mul_pd(re, im);
      const __m256d abs2 = _mm256_add_pd(rr, ii);
      const __m256d x2r = _mm256_sub_pd(rr, ii);
      const __m256d x2i = _mm256_add_pd(ri, ri);
      const __m256d x4r = _mm256_sub_pd(_mm256_mul_pd(x2r, x2r),
                                        _mm256_mul_pd(x2i, x2i));
      const __m256d x2rx2i = _mm256_mul_pd(x2r, x2i);
      const __m256d x4i = _mm256_add_pd(x2rx2i, x2rx2i);
      const __m256d tr = _mm256_sub_pd(_mm256_mul_pd(x2r, re),
                                       _mm256_mul_pd(x2i, im));
      const __m256d ti = _mm256_add_pd(_mm256_mul_pd(x2r, im),
                                       _mm256_mul_pd(x2i, re));
      const __m256d ur = _mm256_add_pd(_mm256_mul_pd(tr, re),
                                       _mm256_mul_pd(ti, im));
      const __m256d ui = _mm256_sub_pd(_mm256_mul_pd(ti, re),
                                       _mm256_mul_pd(tr, im));
      sx2r = _mm256_add_pd(sx2r, x2r);
      sx2i = _mm256_add_pd(sx2i, x2i);
      sx4r = _mm256_add_pd(sx4r, x4r);
      sx4i = _mm256_add_pd(sx4i, x4i);
      sur = _mm256_add_pd(sur, ur);
      sui = _mm256_add_pd(sui, ui);
      sa2 = _mm256_add_pd(sa2, abs2);
      sa4 = _mm256_add_pd(sa4, _mm256_mul_pd(abs2, abs2));
    }
    _mm256_store_pd(x2r_l, sx2r);
    _mm256_store_pd(x2i_l, sx2i);
    _mm256_store_pd(x4r_l, sx4r);
    _mm256_store_pd(x4i_l, sx4i);
    _mm256_store_pd(ur_l, sur);
    _mm256_store_pd(ui_l, sui);
    _mm256_store_pd(a2_l, sa2);
    _mm256_store_pd(a4_l, sa4);
    for (std::size_t j = 0; j < 4; ++j) {
      lanes->lane[j].sum_x2 = cplx{x2r_l[j], x2i_l[j]};
      lanes->lane[j].sum_x4 = cplx{x4r_l[j], x4i_l[j]};
      lanes->lane[j].sum_x3_conj = cplx{ur_l[j], ui_l[j]};
      lanes->lane[j].sum_abs2 = a2_l[j];
      lanes->lane[j].sum_abs4 = a4_l[j];
    }
  }
  // Scalar tail (starts at lane 0 because the vector loop consumed 4k),
  // through the scalar table like the elementwise tails: the inlined
  // cumulant_push re-fuses into vfm* under some flag sets (the sanitizer
  // presets) despite -ffp-contract=off.
  if (i < n) scalar_table().cumulant_acc(x + i, n - i, lanes);
}

// ---------------------------------------------------------------------------
// add_gauss (bitwise): four samples per pass, sample i + j on lane j, each
// expression the scalar_impl one with the four lanes side by side. Samples
// past the last full pass go through the scalar table, starting again at
// lane 0 exactly as the scalar loop would.
// ---------------------------------------------------------------------------

inline __m256d splat(double v) { return _mm256_set1_pd(v); }
inline __m256i splat_u64(std::uint64_t v) {
  return _mm256_set1_epi64x(static_cast<long long>(v));
}
// Single rounded operations, named so the polynomials below read like
// their scalar_impl twins.
inline __m256d vadd(__m256d a, __m256d b) { return _mm256_add_pd(a, b); }
inline __m256d vsub(__m256d a, __m256d b) { return _mm256_sub_pd(a, b); }
inline __m256d vmul(__m256d a, __m256d b) { return _mm256_mul_pd(a, b); }

template <int K>
inline __m256i rotl64x4(__m256i x) {
  return _mm256_or_si256(_mm256_slli_epi64(x, K),
                         _mm256_srli_epi64(x, 64 - K));
}

/// One xoshiro256++ step of all four lanes (s[w] holds word w of each).
inline __m256i xoshiro_step(__m256i s[4]) {
  const __m256i result =
      _mm256_add_epi64(rotl64x4<23>(_mm256_add_epi64(s[0], s[3])), s[0]);
  const __m256i t = _mm256_slli_epi64(s[1], 17);
  s[2] = _mm256_xor_si256(s[2], s[0]);
  s[3] = _mm256_xor_si256(s[3], s[1]);
  s[1] = _mm256_xor_si256(s[1], s[2]);
  s[0] = _mm256_xor_si256(s[0], s[3]);
  s[2] = _mm256_xor_si256(s[2], t);
  s[3] = rotl64x4<45>(s[3]);
  return result;
}

inline __m256d mantissa_unit(__m256i draw) {
  return _mm256_castsi256_pd(_mm256_or_si256(
      _mm256_srli_epi64(draw, 12), splat_u64(0x3ff0000000000000ULL)));
}

inline __m256d gauss_log(__m256d x) {
  using namespace scalar_impl;
  const __m256i bits = _mm256_castpd_si256(x);
  const __m256i mantissa =
      _mm256_and_si256(bits, splat_u64(0x000fffffffffffffULL));
  const __m256i halve = _mm256_and_si256(
      _mm256_add_epi64(mantissa, splat_u64(0x00095f6400000000ULL)),
      splat_u64(0x0010000000000000ULL));
  const __m256d m = _mm256_castsi256_pd(_mm256_or_si256(
      mantissa, _mm256_xor_si256(halve, splat_u64(0x3ff0000000000000ULL))));
  // Biased exponent e in [971, 1024] as a double: (2^52 + e) - 2^52 - 1023,
  // every step exact.
  const __m256i biased = _mm256_add_epi64(_mm256_srli_epi64(bits, 52),
                                          _mm256_srli_epi64(halve, 52));
  const __m256d k = vsub(
      vsub(_mm256_castsi256_pd(
               _mm256_or_si256(biased, splat_u64(0x4330000000000000ULL))),
           splat(0x1p52)),
      splat(1023.0));
  const __m256d f = vsub(m, splat(1.0));
  const __m256d s = _mm256_div_pd(f, vadd(splat(2.0), f));
  const __m256d z = vmul(s, s);
  const __m256d w = vmul(z, z);
  const __m256d t1 =
      vmul(w, vadd(splat(kLg2), vmul(w, vadd(splat(kLg4),
                                             vmul(w, splat(kLg6))))));
  const __m256d t2 = vmul(
      z, vadd(splat(kLg1),
              vmul(w, vadd(splat(kLg3),
                           vmul(w, vadd(splat(kLg5), vmul(w, splat(kLg7))))))));
  const __m256d r = vadd(t2, t1);
  const __m256d hfsq = vmul(vmul(splat(0.5), f), f);
  return vsub(vmul(k, splat(kLn2Hi)),
              vsub(vsub(hfsq, vadd(vmul(s, vadd(hfsq, r)),
                                   vmul(k, splat(kLn2Lo)))),
                   f));
}

inline void gauss_sincos_2pi(__m256d u, __m256d* sin_out, __m256d* cos_out) {
  using namespace scalar_impl;
  const __m256d t = vmul(splat(4.0), u);
  const __m256d shifted = vadd(t, splat(kRoundShift));
  const __m256d q = vsub(shifted, splat(kRoundShift));
  const __m256d x = vmul(vsub(t, q), splat(kHalfPi));
  const __m256i quadrant =
      _mm256_and_si256(_mm256_castpd_si256(shifted), splat_u64(3));
  const __m256d z = vmul(x, x);
  const __m256d w = vmul(z, z);
  const __m256d rs =
      vadd(vadd(splat(kS2), vmul(z, vadd(splat(kS3), vmul(z, splat(kS4))))),
           vmul(vmul(z, w), vadd(splat(kS5), vmul(z, splat(kS6)))));
  const __m256d sin_x =
      vadd(x, vmul(vmul(z, x), vadd(splat(kS1), vmul(z, rs))));
  const __m256d rc = vadd(
      vmul(z, vadd(splat(kC1), vmul(z, vadd(splat(kC2),
                                            vmul(z, splat(kC3)))))),
      vmul(vmul(w, w),
           vadd(splat(kC4),
                vmul(z, vadd(splat(kC5), vmul(z, splat(kC6)))))));
  const __m256d hz = vmul(splat(0.5), z);
  const __m256d one_minus_hz = vsub(splat(1.0), hz);
  const __m256d cos_x =
      vadd(one_minus_hz,
           vadd(vsub(vsub(splat(1.0), one_minus_hz), hz), vmul(z, rc)));
  const __m256i one = splat_u64(1);
  const __m256d odd = _mm256_castsi256_pd(
      _mm256_cmpeq_epi64(_mm256_and_si256(quadrant, one), one));
  const __m256d sin_v = _mm256_blendv_pd(sin_x, cos_x, odd);
  const __m256d cos_v = _mm256_blendv_pd(cos_x, sin_x, odd);
  // Bit 1 of quadrant (sin) and of quadrant + 1 (cos), moved to the sign.
  const __m256i two = splat_u64(2);
  const __m256i sin_sign =
      _mm256_slli_epi64(_mm256_and_si256(quadrant, two), 62);
  const __m256i cos_sign = _mm256_slli_epi64(
      _mm256_and_si256(_mm256_add_epi64(quadrant, one), two), 62);
  *sin_out = _mm256_xor_pd(sin_v, _mm256_castsi256_pd(sin_sign));
  *cos_out = _mm256_xor_pd(cos_v, _mm256_castsi256_pd(cos_sign));
}

void add_gauss(cplx* x, std::size_t n, double sigma, GaussLanes* lanes) {
  __m256i s[4];
  for (std::size_t w = 0; w < 4; ++w) {
    s[w] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lanes->s[w]));
  }
  double* xd = as_doubles(x);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d u1 = vsub(splat(2.0), mantissa_unit(xoshiro_step(s)));
    const __m256d u2 = vsub(mantissa_unit(xoshiro_step(s)), splat(1.0));
    const __m256d scaled = vmul(
        splat(sigma), _mm256_sqrt_pd(vmul(splat(-2.0), gauss_log(u1))));
    __m256d sin_v;
    __m256d cos_v;
    gauss_sincos_2pi(u2, &sin_v, &cos_v);
    const __m256d re = vmul(scaled, cos_v);
    const __m256d im = vmul(scaled, sin_v);
    const __m256d lo = _mm256_unpacklo_pd(re, im);  // [re0, im0, re2, im2]
    const __m256d hi = _mm256_unpackhi_pd(re, im);  // [re1, im1, re3, im3]
    double* p = xd + 2 * i;
    _mm256_storeu_pd(
        p, vadd(_mm256_loadu_pd(p), _mm256_permute2f128_pd(lo, hi, 0x20)));
    _mm256_storeu_pd(p + 4, vadd(_mm256_loadu_pd(p + 4),
                                 _mm256_permute2f128_pd(lo, hi, 0x31)));
  }
  for (std::size_t w = 0; w < 4; ++w) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes->s[w]), s[w]);
  }
  scalar_table().add_gauss(x + i, n - i, sigma, lanes);
}

// ---------------------------------------------------------------------------
// fm_discriminate (bitwise): four steps per pass, step j + l on lane l, and
// kFmPasses independent passes per iteration in lock step. One pass is a
// single dependency chain (step products, r = |im|/|re| by a divide, the
// interval lookup, x = (A r - B)/(A + B r) by a second divide, two Horner
// chains, the quadrant fix) of about 130 cycles, so one pass at a time
// leaves the core latency-bound, far from its divide throughput; fm_passes
// issues each stage for all passes side by side.
// Lanes whose step has a zero, infinite or NaN component, or an exponent
// gap past 2^60, take fm_atan2's branches in the scalar TU, once per
// iteration for every flagged lane; the rest run fm_atan_reduced with the
// interval id picked from the compare masks and its A, B, hi, lo looked up
// by one dword permute each (ids 0-3) plus a blend for id 4. Only spc = 2,
// the rate every receiver runs, takes this path, over whole 16-chip
// blocks whose chips are summed in vector registers; other rates and the
// chips past the last whole block run the scalar table.
// ---------------------------------------------------------------------------

/// Passes per iteration: 32 steps, 16 chips at spc = 2.
inline constexpr std::size_t kFmPasses = 8;

/// Table row (ids 0-3) from `row`, id 4 from `last`, per lane.
inline __m256d atan_lookup(const double row[4], double last, __m256i index,
                           __m256d is_last) {
  const __m256d picked = _mm256_castsi256_pd(_mm256_permutevar8x32_epi32(
      _mm256_castpd_si256(_mm256_loadu_pd(row)), index));
  return _mm256_blendv_pd(picked, splat(last), is_last);
}

/// Four steps (a + ib) * conj(c + id), sample w[l + 1] over w[l] on lane l.
inline void fm_steps(const double* w, __m256d* re, __m256d* im) {
  __m256d a;
  __m256d b;
  __m256d c;
  __m256d d;
  deinterleave4(w, &c, &d);
  deinterleave4(w + 2, &a, &b);
  *re = vadd(vmul(a, c), vmul(b, d));
  *im = vsub(vmul(b, c), vmul(a, d));
}

/// Phases of kFmPasses passes into phase[p], pass p the four steps from
/// sample 4p of w (interleaved doubles), 0.0 where a step is gated out.
/// Branch-free: returns bit 4p + l set where lane l of pass p is gated in
/// but needs one of fm_atan2's special branches; fm_fixup finishes those
/// lanes.
inline std::uint32_t fm_passes(const double* w,
                               __m256d (&phase)[kFmPasses]) {
  using namespace scalar_impl;
  const __m256d sign = splat(-0.0);
  const __m256d inf = splat(std::numeric_limits<double>::infinity());
  const __m256d zero = _mm256_setzero_pd();
  __m256d re[kFmPasses];
  __m256d im[kFmPasses];
  __m256d gate[kFmPasses];
  __m256d r[kFmPasses];
  std::uint32_t special = 0;
#pragma GCC unroll 8
  for (std::size_t p = 0; p < kFmPasses; ++p) fm_steps(w + 8 * p, &re[p], &im[p]);
#pragma GCC unroll 8
  for (std::size_t p = 0; p < kFmPasses; ++p) {
    gate[p] = _mm256_cmp_pd(vadd(vmul(re[p], re[p]), vmul(im[p], im[p])),
                            splat(1e-24), _CMP_GT_OQ);
    const __m256d ax = _mm256_andnot_pd(sign, re[p]);
    const __m256d ay = _mm256_andnot_pd(sign, im[p]);
    // Ordinary lanes: both components finite and nonzero, and fdlibm's
    // k = (iy - ix) >> 20 within [-60, 60], i.e. -60 * 2^20 <= iy - ix <
    // 61 * 2^20 on the high words.
    const __m256d finite_nonzero = _mm256_and_pd(
        _mm256_and_pd(_mm256_cmp_pd(ax, zero, _CMP_GT_OQ),
                      _mm256_cmp_pd(ax, inf, _CMP_LT_OQ)),
        _mm256_and_pd(_mm256_cmp_pd(ay, zero, _CMP_GT_OQ),
                      _mm256_cmp_pd(ay, inf, _CMP_LT_OQ)));
    const __m256i gap =
        _mm256_sub_epi64(_mm256_srli_epi64(_mm256_castpd_si256(ay), 32),
                         _mm256_srli_epi64(_mm256_castpd_si256(ax), 32));
    const __m256i far = _mm256_or_si256(
        _mm256_cmpgt_epi64(gap, splat_u64((61U << 20) - 1)),
        _mm256_cmpgt_epi64(_mm256_set1_epi64x(-(60LL << 20)), gap));
    const __m256d ordinary =
        _mm256_andnot_pd(_mm256_castsi256_pd(far), finite_nonzero);
    special |= static_cast<std::uint32_t>(_mm256_movemask_pd(
                   _mm256_andnot_pd(ordinary, gate[p])))
               << (4 * p);
    r[p] = _mm256_div_pd(ay, ax);
  }
  __m256d x[kFmPasses];
  __m256d hi[kFmPasses];
  __m256d lo[kFmPasses];
#pragma GCC unroll 8
  for (std::size_t p = 0; p < kFmPasses; ++p) {
    const __m256d m1 = _mm256_cmp_pd(r[p], splat(kAtanBreak[0]), _CMP_GE_OQ);
    const __m256d m2 = _mm256_cmp_pd(r[p], splat(kAtanBreak[1]), _CMP_GE_OQ);
    const __m256d m3 = _mm256_cmp_pd(r[p], splat(kAtanBreak[2]), _CMP_GE_OQ);
    const __m256d m4 = _mm256_cmp_pd(r[p], splat(kAtanBreak[3]), _CMP_GE_OQ);
    // id (0-3 before the m4 blend) = number of set masks; dword pair
    // (2 id, 2 id + 1) of a 4-double row is element id.
    const __m256i id = _mm256_sub_epi64(
        _mm256_sub_epi64(
            _mm256_sub_epi64(_mm256_setzero_si256(), _mm256_castpd_si256(m1)),
            _mm256_castpd_si256(m2)),
        _mm256_castpd_si256(m3));
    const __m256i lo_dword = _mm256_add_epi64(id, id);
    const __m256i index = _mm256_or_si256(
        lo_dword,
        _mm256_slli_epi64(_mm256_add_epi64(lo_dword, splat_u64(1)), 32));
    const __m256d ca = atan_lookup(kAtanA, kAtanA[4], index, m4);
    const __m256d cb = atan_lookup(kAtanB, kAtanB[4], index, m4);
    hi[p] = atan_lookup(kAtanHi, kAtanHi[4], index, m4);
    lo[p] = atan_lookup(kAtanLo, kAtanLo[4], index, m4);
    x[p] = _mm256_div_pd(vsub(vmul(ca, r[p]), cb), vadd(ca, vmul(cb, r[p])));
  }
#pragma GCC unroll 8
  for (std::size_t p = 0; p < kFmPasses; ++p) {
    const __m256d z = vmul(x[p], x[p]);
    const __m256d w4 = vmul(z, z);
    // The scalar Horner chains, innermost term first.
    __m256d s1 = splat(kAT10);
    for (double t : {kAT8, kAT6, kAT4, kAT2}) s1 = vadd(splat(t), vmul(w4, s1));
    s1 = vmul(z, vadd(splat(kAT0), vmul(w4, s1)));
    __m256d s2 = splat(kAT9);
    for (double t : {kAT7, kAT5, kAT3, kAT1}) s2 = vadd(splat(t), vmul(w4, s2));
    s2 = vmul(w4, s2);
    const __m256d atan_r =
        vsub(hi[p], vsub(vsub(vmul(x[p], vadd(s1, s2)), lo[p]), x[p]));
    // Quadrant fix: pi - (atan_r - pi_lo) where re < 0 (blendv reads its
    // sign bit), then the sign of im.
    const __m256d folded = _mm256_blendv_pd(
        atan_r, vsub(splat(kPi), vsub(atan_r, splat(kPiLo))), re[p]);
    phase[p] = _mm256_and_pd(_mm256_xor_pd(folded, _mm256_and_pd(im[p], sign)),
                             gate[p]);
  }
  return special;
}

/// Recomputes the lanes fm_passes flagged through the scalar TU's
/// fm_atan2, from step products fm_steps rounds exactly as fm_passes did.
[[gnu::noinline]] void fm_fixup(const double* w, std::uint32_t special,
                                __m256d* phase) {
  for (std::size_t p = 0; special != 0; ++p, special >>= 4) {
    const std::uint32_t lanes = special & 0xF;
    if (lanes == 0) continue;
    __m256d re;
    __m256d im;
    fm_steps(w + 8 * p, &re, &im);
    alignas(32) double re_l[4];
    alignas(32) double im_l[4];
    alignas(32) double phase_l[4];
    _mm256_store_pd(re_l, re);
    _mm256_store_pd(im_l, im);
    _mm256_store_pd(phase_l, phase[p]);
    for (int l = 0; l < 4; ++l) {
      if ((lanes >> l) & 1) phase_l[l] = kernels::fm_atan2(im_l[l], re_l[l]);
    }
    phase[p] = _mm256_load_pd(phase_l);
  }
}

void fm_discriminate(const cplx* wave, std::size_t num_chips, std::size_t spc,
                     double* chips) {
  constexpr std::size_t kBlockChips = 2 * kFmPasses;
  const std::size_t vector_chips =
      spc == 2 ? num_chips - num_chips % kBlockChips : 0;
  // A block's 16 chips are summed in four registers. Chip k is the scalar
  // sum fl(fl(+0.0 + p0) + p1) / (pi/2) of its steps p0, p1: adding
  // [+0.0, -0.0] per chip turns a -0.0 p0 into +0.0 as the scalar sum's
  // start does and leaves every p1 as it is, and hadd adds each lane pair.
  // Gated phases are finite, so the order inside hadd cannot change a bit.
  // One divide then serves four chips.
  const __m256d start = negate_odd_mask();
  const __m256d half_pi = splat(scalar_impl::kHalfPi);
  for (std::size_t chip = 0; chip < vector_chips; chip += kBlockChips) {
    const double* w = as_doubles(wave + 2 * chip);
    __m256d phase[kFmPasses];
    const std::uint32_t special = fm_passes(w, phase);
    if (special != 0) fm_fixup(w, special, phase);
#pragma GCC unroll 4
    for (std::size_t p = 0; p < kFmPasses; p += 2) {
      // [chip 0, chip 2, chip 1, chip 3] of passes p and p + 1.
      const __m256d sums =
          _mm256_hadd_pd(vadd(phase[p], start), vadd(phase[p + 1], start));
      _mm256_storeu_pd(
          chips + chip + 2 * p,
          _mm256_div_pd(_mm256_permute4x64_pd(sums, 0xD8), half_pi));
    }
  }
  scalar_table().fm_discriminate(wave + vector_chips * spc,
                                 num_chips - vector_chips, spc,
                                 chips + vector_chips);
}

// ---------------------------------------------------------------------------
// qam_cost (bitwise). Four or more candidates take scalar_impl's level
// runs, and each run's terms are four candidates per register: the point's
// components and levels broadcast, the alphas loaded, then the scalar
// residual square-and-add per lane, so each lane's sum is the scalar
// table's for its alpha; a run's last m mod 4 candidates add through the
// scalar segment. Fewer candidates (the golden-section search asks for one
// at a time) run two points per register, [re0, im0, re1, im1], through
// qam_level's divide, floor and clamp: one divide per two points, a
// horizontal add for each point's fl(dr^2 + di^2), then the point-order
// scalar sum. The halving is a multiply by 0.5: x / 2 and x * 0.5 are the
// same correctly rounded value.
// ---------------------------------------------------------------------------

inline __m256d qam_residual(__m256d value, __m256d alpha) {
  const __m256d scaled = _mm256_div_pd(value, alpha);
  __m256d level = vadd(
      vmul(splat(2.0), _mm256_floor_pd(vmul(scaled, splat(0.5)))), splat(1.0));
  // max/min return the second operand for a NaN level: -7, as in scalar.
  level = _mm256_min_pd(_mm256_max_pd(level, splat(-7.0)), splat(7.0));
  return vsub(value, vmul(alpha, level));
}

double qam_cost_single(const double* pd, std::size_t n, double a) {
  const __m256d alpha = splat(a);
  double cost = 0.0;
  for (std::size_t i = 0; i < n; i += 2) {
    // An odd last point fills both halves and adds only the low one.
    const __m256d v =
        i + 1 < n ? _mm256_loadu_pd(pd + 2 * i)
                  : _mm256_broadcast_pd(
                        reinterpret_cast<const __m128d*>(pd + 2 * i));
    const __m256d d = qam_residual(v, alpha);
    const __m256d sq = vmul(d, d);
    const __m256d norms = _mm256_hadd_pd(sq, sq);  // [n0, n0, n1, n1]
    cost = cost + _mm256_cvtsd_f64(norms);
    if (i + 1 < n) {
      cost = cost + _mm_cvtsd_f64(_mm256_extractf128_pd(norms, 1));
    }
  }
  return cost;
}

void qam_segment(double vr, double vi, double lr, double li,
                 const double* alphas, std::size_t a, std::size_t b,
                 double* costs) {
  std::size_t c = a;
  if (c + 4 <= b) {
    const __m256d r = splat(vr);
    const __m256d i = splat(vi);
    const __m256d level_r = splat(lr);
    const __m256d level_i = splat(li);
    for (; c + 4 <= b; c += 4) {
      const __m256d alpha = _mm256_loadu_pd(alphas + c);
      const __m256d dr = vsub(r, vmul(alpha, level_r));
      const __m256d di = vsub(i, vmul(alpha, level_i));
      _mm256_storeu_pd(costs + c,
                       vadd(_mm256_loadu_pd(costs + c),
                            vadd(vmul(dr, dr), vmul(di, di))));
    }
  }
  scalar_impl::qam_segment(vr, vi, lr, li, alphas, c, b, costs);
}

void qam_cost(const cplx* points, std::size_t n, const double* alphas,
              std::size_t m, double* costs) {
  if (m < 4) {
    for (std::size_t c = 0; c < m; ++c) {
      costs[c] = qam_cost_single(as_doubles(points), n, alphas[c]);
    }
    return;
  }
  scalar_impl::qam_cost_runs(
      points, n, alphas, m, costs,
      [&](double vr, double vi, double lr, double li, std::size_t a,
          std::size_t b) { qam_segment(vr, vi, lr, li, alphas, a, b, costs); });
}

// ---------------------------------------------------------------------------
// O-QPSK matched filter (tolerance): per-chip fused deinterleave + dot.
// ---------------------------------------------------------------------------

void oqpsk_mf(const cplx* wave, std::size_t num_chips, std::size_t spc,
              const double* pulse, std::size_t plen, double pulse_energy,
              double* soft) {
  // Deinterleave is fused into the per-chip dot (no staging buffers: with
  // the repo's short half-sine pulse the extra memory round-trip costs more
  // than it saves). Tolerance class — lane fold plus explicit FMA.
  for (std::size_t i = 0; i < num_chips; ++i) {
    const double* base = as_doubles(wave + i * spc);
    const bool in_phase = (i % 2 == 0);
    __m256d acc = _mm256_setzero_pd();
    std::size_t s = 0;
    for (; s + 4 <= plen; s += 4) {
      __m256d re;
      __m256d im;
      deinterleave4(base + 2 * s, &re, &im);
      acc = _mm256_fmadd_pd(in_phase ? re : im, _mm256_loadu_pd(pulse + s),
                            acc);
    }
    double lane[4];
    _mm256_storeu_pd(lane, acc);
    double sum = (lane[0] + lane[2]) + (lane[1] + lane[3]);
    for (; s < plen; ++s) {
      sum = std::fma(base[2 * s + (in_phase ? 0 : 1)], pulse[s], sum);
    }
    soft[i] = sum / pulse_energy;
  }
}

// ---------------------------------------------------------------------------
// Packed-chip correlation (bitwise, integer).
// ---------------------------------------------------------------------------

void pack_hard_chips(const std::uint8_t* chips, std::size_t m,
                     std::uint32_t* out) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i all_ones = _mm256_set1_epi8(-1);
  for (std::size_t word = 0; word < m; ++word) {
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(chips + word * 32));
    const __m256i nonzero =
        _mm256_xor_si256(_mm256_cmpeq_epi8(v, zero), all_ones);
    out[word] = static_cast<std::uint32_t>(_mm256_movemask_epi8(nonzero));
  }
}

void pack_sign_chips(const double* freq, std::size_t m, std::uint32_t* out) {
  const __m256d zero = _mm256_setzero_pd();
  for (std::size_t word = 0; word < m; ++word) {
    std::uint32_t bits = 0;
    for (std::uint32_t group = 0; group < 8; ++group) {
      const __m256d v = _mm256_loadu_pd(freq + word * 32 + group * 4);
      const auto mask = static_cast<std::uint32_t>(
          _mm256_movemask_pd(_mm256_cmp_pd(v, zero, _CMP_GT_OQ)));
      bits |= mask << (group * 4);
    }
    out[word] = bits;
  }
}

/// Per-32-bit-lane popcount: pshufb nibble LUT, then horizontal byte sums
/// via maddubs/madd.
inline __m256i popcount_epi32(__m256i v) {
  const __m256i low4 = _mm256_set1_epi8(0x0F);
  const __m256i lut = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2,
                                       3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2,
                                       2, 3, 2, 3, 3, 4);
  const __m256i lo = _mm256_and_si256(v, low4);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low4);
  const __m256i byte_counts = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                              _mm256_shuffle_epi8(lut, hi));
  const __m256i pair_sums =
      _mm256_maddubs_epi16(byte_counts, _mm256_set1_epi8(1));
  return _mm256_madd_epi16(pair_sums, _mm256_set1_epi16(1));
}

void despread_words(const std::uint32_t* received, std::size_t m,
                    const std::uint32_t* rows16, std::uint32_t mask,
                    std::uint8_t* symbols, std::uint8_t* distances) {
  const __m256i vmask = _mm256_set1_epi32(static_cast<int>(mask));
  __m256i vrows[16];
  for (int row = 0; row < 16; ++row) {
    vrows[row] = _mm256_set1_epi32(static_cast<int>(rows16[row]));
  }
  std::size_t k = 0;
  for (; k + 8 <= m; k += 8) {
    const __m256i words = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(received + k));
    __m256i best_dist = _mm256_set1_epi32(64);
    __m256i best_sym = _mm256_setzero_si256();
    for (int row = 0; row < 16; ++row) {
      const __m256i diff =
          _mm256_and_si256(_mm256_xor_si256(words, vrows[row]), vmask);
      const __m256i dist = popcount_epi32(diff);
      // Update strictly when dist < best: ties keep the lowest row.
      const __m256i closer = _mm256_cmpgt_epi32(best_dist, dist);
      best_dist = _mm256_blendv_epi8(best_dist, dist, closer);
      best_sym =
          _mm256_blendv_epi8(best_sym, _mm256_set1_epi32(row), closer);
    }
    alignas(32) std::uint32_t dist_out[8];
    alignas(32) std::uint32_t sym_out[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(dist_out), best_dist);
    _mm256_store_si256(reinterpret_cast<__m256i*>(sym_out), best_sym);
    for (std::size_t j = 0; j < 8; ++j) {
      symbols[k + j] = static_cast<std::uint8_t>(sym_out[j]);
      distances[k + j] = static_cast<std::uint8_t>(dist_out[j]);
    }
  }
  scalar_impl::despread_words(received + k, m - k, rows16, mask, symbols + k,
                              distances + k);
}

}  // namespace

bool avx2_compiled() { return true; }

const KernelTable& avx2_table() {
  static constexpr KernelTable table = {
      .resample = resample,
      .rotate = rotate,
      .rscale = rscale,
      .apply_window = apply_window,
      .accumulate_mag2 = accumulate_mag2,
      .two_tap = two_tap,
      .cdiv = cdiv,
      .energy = energy,
      .dot_conj = dot_conj,
      .cumulant_acc = cumulant_acc,
      .chip_strip = chip_strip,
      .add_gauss = add_gauss,
      .fm_discriminate = fm_discriminate,
      .qam_cost = qam_cost,
      .oqpsk_mf = oqpsk_mf,
      .pack_hard_chips = pack_hard_chips,
      .pack_sign_chips = pack_sign_chips,
      .despread_words = despread_words,
      // The differential chain is latency-bound, not throughput-bound; the
      // scalar match is already optimal per word.
      .match16 = scalar_impl::match16,
  };
  return table;
}

}  // namespace ctc::dsp::kernels::detail

#else  // non-x86-64: no AVX2 TU; dispatcher never selects this table.

namespace ctc::dsp::kernels::detail {

bool avx2_compiled() { return false; }

const KernelTable& avx2_table() { return scalar_table(); }

}  // namespace ctc::dsp::kernels::detail

#endif
