// Runtime-dispatched SIMD kernel layer for the complex hot loops.
//
// Every dense inner loop in the repo — polyphase resampling, mixer
// rotation, matched filtering, FM discrimination, the equalizer's complex
// division, cumulant accumulation, energy reduction, the frame scanner's
// chip-domain preamble strip, packed-chip correlation, Gaussian noise, the
// attack's QAM scale search — funnels through the function-pointer table
// in this header.
// The implementation level is chosen ONCE per process (first use) from
// CPUID, and can be forced with the CTC_SIMD environment variable:
//
//     CTC_SIMD=scalar   portable reference implementations
//     CTC_SIMD=avx2     AVX2+FMA implementations (fails loudly if the CPU
//                       cannot execute them)
//
// Dispatch is a pure function of the environment and the CPU, never of the
// calling thread, so a process is internally consistent: the CI determinism
// gates (threads=1 vs N, shard partitions, kill/resume) compare runs of the
// same binary in the same environment and therefore stay byte-identical.
//
// Equivalence contracts (each kernel documents which one it keeps; the
// suite in tests/dsp/kernels_equivalence_test.cpp pins them):
//
//   bitwise    The scalar implementation mirrors the SIMD arithmetic
//              structure exactly — same per-element expressions, no FMA
//              contraction, and the documented fixed lane-fold order for
//              reductions — so scalar and AVX2 agree bit for bit on every
//              input. Integer kernels are trivially in this class.
//
//   tolerance  The scalar implementation is the pinned pre-optimization
//              reference (the `*_reference` oracle pattern); the SIMD form
//              uses FMA or algebraic rearrangement and agrees to a small
//              relative tolerance.
//
// Reductions in the bitwise class accumulate into LANE structures: element
// i of the input goes to lane (i mod L), each lane sums sequentially, and
// the final fold is "vertical add of the register halves, then horizontal
// add of adjacent pairs" — exactly what the AVX2 code does with two
// accumulator registers. See fold helpers below.
#pragma once

#include <cstddef>
#include <cstdint>

#include "dsp/types.h"

namespace ctc::dsp::kernels {

/// Implementation level of the kernel table.
enum class SimdLevel {
  scalar = 0,  ///< portable reference (always available)
  avx2 = 1,    ///< AVX2 + FMA (x86-64 only)
};

/// Human-readable level name ("scalar" / "avx2").
const char* level_name(SimdLevel level);

/// Fourth-order cumulant running sums (the inputs of Eqs. 8-9):
///   sum_x2 = sum x^2, sum_x4 = sum x^4, sum_x3_conj = sum x^3 conj(x),
///   sum_abs2 = sum |x|^2, sum_abs4 = sum |x|^4.
struct CumulantSums {
  cplx sum_x2{0.0, 0.0};
  cplx sum_x4{0.0, 0.0};
  cplx sum_x3_conj{0.0, 0.0};
  double sum_abs2 = 0.0;
  double sum_abs4 = 0.0;
};

/// Lane-structured cumulant accumulator: sample i of a cumulant_acc call
/// contributes to lane (i mod 4). Folding the lanes in the fixed order
/// (0+2)+(1+3) yields sums that are bit-identical across dispatch levels.
struct CumulantLanes {
  CumulantSums lane[4];

  /// Fixed-order fold: (lane0 + lane2) + (lane1 + lane3) per field.
  CumulantSums fold() const;
};

/// Four independent xoshiro256++ generators feeding add_gauss. Word w of
/// lane j is s[w][j], so each state word loads as one 4-lane register.
struct GaussLanes {
  std::uint64_t s[4][4];
};

/// The dispatched kernel table. All pointers are non-null at every level.
struct KernelTable {
  // -- polyphase resampler (tolerance) -------------------------------------
  /// out[o] for o in [0, m) is sample k = o*down + (t-1)/2 of the full
  /// convolution of the odd-length real `taps` with x zero-stuffed by `up`
  /// (x[i] at index i*up, zeros between): the sum over the inputs i with
  /// tap index j = k - i*up in [0, t) of x[i] * taps[j]. Only those
  /// products are formed, and each level keeps the bits of the full
  /// convolution it replaces. Scalar adds fl(x_i * t_j) unfused in
  /// ascending input index (the old scatter loop's order) from +0.0: a
  /// skipped product is a stuffed zero times a finite tap, +-0, and a
  /// round-to-nearest sum is -0 only when both addends are, so the
  /// accumulator is never -0 and adding +-0 to it is exact. AVX2 runs one
  /// fma chain over ascending tap index from +0.0, several outputs in
  /// flight; a fused step can round a tiny negative exact value to -0,
  /// which a skipped product would have made +0, so the chains differ at
  /// most in a zero's sign and an output with a zero component is redone
  /// with the stuffed zeros. Per output the value depends on nothing but
  /// the window's samples, so it is time-invariant to the bit at each level
  /// (the byte-keyed slot and waveform caches rely on it).
  void (*resample)(const cplx* x, std::size_t n, std::size_t up,
                   std::size_t down, const double* taps, std::size_t t,
                   cplx* out, std::size_t m);

  // -- mixer / rotator (tolerance) -----------------------------------------
  /// out[i] = in[i] * exp(j*phase_i) where phase_0 = phase and
  /// phase_{i+1} = wrap(phase_i + step) (wrap subtracts/adds 2*pi past
  /// +-2*pi, one if each). Returns the final wrapped phase, which is
  /// computed by the exact scalar recurrence at EVERY level, so it is
  /// bit-identical across levels even though the samples are only
  /// tolerance-equivalent (AVX2 uses a renormalized phasor recurrence
  /// instead of per-sample sincos). in == out is allowed.
  double (*rotate)(const cplx* in, std::size_t n, cplx* out, double phase,
                   double step);

  // -- elementwise complex ops (bitwise) -----------------------------------
  /// x[i] *= s (real scalar).
  void (*rscale)(cplx* x, std::size_t n, double s);
  /// out[i] = in[i] * w[i] (real window).
  void (*apply_window)(const cplx* in, const double* w, std::size_t n,
                       cplx* out);
  /// acc[i] += |x[i]|^2 (Welch PSD accumulation).
  void (*accumulate_mag2)(double* acc, const cplx* x, std::size_t n);
  /// In-place two-tap filter, backward sweep:
  /// x[i] = a*x[i] + b*x[i-1] (x[-1] = 0). The per-element expression is
  /// fl(fl(a*xi) + fl(b*xi1)) — identical to the legacy timing-offset loop.
  void (*two_tap)(cplx* x, std::size_t n, double a, double b);

  // -- complex division (bitwise) ------------------------------------------
  /// out[i] = in[i] / h with the bits of std::complex operator/=, which GCC
  /// lowers to libgcc's __divdc3 — the equalizer's numerics. For h = c + id,
  /// Smith's ratio r is c/d when |c| < |d|, else d/c, and the denominator
  /// den is fl(c*r) + d, else fl(d*r) + c. A sample a + ib then rounds as
  ///   |c| < |d|:  x = fl(fl(a*r) + b) / den,  y = fl(fl(b*r) - a) / den
  ///   otherwise:  x = fl(fl(b*r) + a) / den,  y = fl(b - fl(a*r)) / den.
  /// Scalar calls operator/= per sample. AVX2 computes r and den once and
  /// the four unfused numerators of two samples per divide, when the call
  /// passes libgcc's common-path gate: max(|c|, |d|) in
  /// [DBL_EPSILON, DBL_MAX/2) and |r| > DBL_MIN (so not an exactly real or
  /// imaginary h). Any other h runs the scalar table for the whole call.
  /// Inside the gate, a sample with a component below DBL_MIN in magnitude
  /// (zero or subnormal) or a NaN quotient is redone by the scalar table
  /// from its saved input, as is the odd tail. `out` may be `in` (the
  /// in-place division); it must not overlap `in` any other way. The
  /// receiver divides the received frame straight into its equalized
  /// buffer, so no copy precedes the division.
  void (*cdiv)(const cplx* in, std::size_t n, cplx h, cplx* out);

  // -- reductions (bitwise, lane-structured) -------------------------------
  /// sum over components c of |c|^2 with an 8-real-lane structure
  /// (component m -> lane m mod 8; fold: vertical halves then pairs).
  double (*energy)(const cplx* x, std::size_t n);
  /// sum a[i] * conj(b[i]) with a 4-complex-lane structure.
  cplx (*dot_conj)(const cplx* a, const cplx* b, std::size_t n);
  /// Accumulates x[i] into lanes->lane[i mod 4].
  void (*cumulant_acc)(const cplx* x, std::size_t n, CumulantLanes* lanes);

  // -- chip-domain correlation strip (bitwise) -----------------------------
  /// out[s] for s in [0, m) is, in real arithmetic, dot_conj(x + s, r,
  /// 32*spc), where r is one period of the periodic half-sine O-QPSK
  /// waveform of the 32 chips in `chips` (bit j set = chip +1, clear = -1;
  /// chip j's pulse, pulse[0..2*spc), starts at sample j*spc on I for even
  /// j and on Q for odd j, and chip 31's pulse wraps past the period end to
  /// sample 0). The sum is regrouped by chips. The filtered sample of chip
  /// j at offset s is
  ///   z_j(s) = sum over n of pulse[n] * x[s + (j*spc + n) mod 32*spc],
  /// one fl(pulse[n] * x) per component added from n = 0 up, starting from
  /// the n = 0 product. Then out[s] is z_0(s)'s term plus the other 31
  /// terms in chip order, where an I chip's term is +-z_j(s) and a Q
  /// chip's is +-(-i)z_j(s): one signed add per component and chip, no
  /// multiply. Reads x[0, m + 32*spc - 1). `work` holds
  /// chip_strip_work(m, spc) doubles of scratch; `out` must not alias `x`
  /// or `work`.
  void (*chip_strip)(const cplx* x, std::size_t m, std::size_t spc,
                     const double* pulse, std::uint32_t chips, double* work,
                     cplx* out);

  // -- Gaussian noise (bitwise) --------------------------------------------
  /// x[i] += sigma * r_i * (cos t_i, sin t_i): Box–Muller on polynomial
  /// log/sincos. Sample i takes two draws from lane i mod 4 (u1 = 2 - [1,2)
  /// from the first, u2 = [1,2) - 1 from the second, both from the top 52
  /// bits); r_i = sqrt(-2 gauss_log(u1)), t_i = 2 pi u2. `lanes` advances by
  /// exactly the draws taken.
  void (*add_gauss)(cplx* x, std::size_t n, double sigma, GaussLanes* lanes);

  // -- FM discriminator (bitwise) ------------------------------------------
  /// chips[i] = (sum over s = i*spc+1 .. (i+1)*spc of phase_s) / (pi/2),
  /// summed from 0.0 in order. Step s is wave[s] * conj(wave[s-1]) rounded
  /// as re = fl(a*c) + fl(b*d), im = fl(b*c) - fl(a*d) (a, b the sample, c, d
  /// its predecessor); phase_s = fm_atan2(im, re) when re^2 + im^2 > 1e-24,
  /// else the step is skipped (NaN steps fail the gate). Strictly per chip:
  /// chip i reads samples i*spc .. (i+1)*spc only, so `wave` needs
  /// num_chips*spc + 1 samples. AVX2 vectorizes spc = 2 only, in blocks of
  /// 16 chips: eight four-step passes in lock step, the lanes that need
  /// fm_atan2's special branches finished through the scalar routine once
  /// per block, and each chip summed in vector registers as
  /// fl(fl(+0.0 + p0) + p1) / (pi/2): the in-order sum's value, since a
  /// gated phase is finite and a sum from +0.0 turns a -0.0 p0 into +0.0.
  /// Other spc and the chips past the last whole block run the scalar
  /// table.
  void (*fm_discriminate)(const cplx* wave, std::size_t num_chips,
                          std::size_t spc, double* chips);

  // -- QAM scale search (bitwise) ------------------------------------------
  /// costs[c] = Eq. 4's quantization cost of the n points on the
  /// alphas[c]-scaled 64-QAM grid, for c in [0, m). Per component v the
  /// level is qam_level(v, alpha); the point adds fl(fl(dr*dr) + fl(di*di)),
  /// d = point - fl(alpha * level) per component, to a sum that starts at
  /// 0.0 and runs in point order. Requires ascending alphas with
  /// alphas[0] > 0 (equal neighbours allowed). Over such a grid each
  /// component's level is a monotone step function of the candidate index
  /// with at most eight runs, so both levels find the runs with a few exact
  /// qam_level evaluations per component (probing where |v| / alpha
  /// crosses 2, 4 and 6) and never divide per point and candidate; AVX2
  /// then sums four candidates per register. Fewer than four candidates
  /// run qam_level per point at AVX2, two points per divide.
  void (*qam_cost)(const cplx* points, std::size_t n, const double* alphas,
                   std::size_t m, double* costs);

  // -- O-QPSK matched filter (tolerance) -----------------------------------
  /// soft[i] = (sum_s branch_i(wave[i*spc + s]) * pulse[s]) / pulse_energy,
  /// branch_i = real part for even i, imaginary for odd (the O-QPSK I/Q
  /// offset). pulse has plen = 2*spc taps. Scalar is the legacy
  /// OqpskDemodulator::soft_chips loop.
  void (*oqpsk_mf)(const cplx* wave, std::size_t num_chips, std::size_t spc,
                   const double* pulse, std::size_t plen, double pulse_energy,
                   double* soft);

  // -- packed-chip correlation (bitwise, integer) --------------------------
  /// Packs m consecutive 32-chip blocks (nonzero byte -> 1 bit, bit j =
  /// chip j) into out[0..m).
  void (*pack_hard_chips)(const std::uint8_t* chips, std::size_t m,
                          std::uint32_t* out);
  /// Packs discriminator signs: bit j of out[k] = (freq[32k + j] > 0).
  void (*pack_sign_chips)(const double* freq, std::size_t m,
                          std::uint32_t* out);
  /// For each received word, the best of 16 candidate rows by Hamming
  /// distance of the masked XOR; ties break to the LOWEST row index
  /// (strict-less update, matching despread_block()).
  void (*despread_words)(const std::uint32_t* received, std::size_t m,
                         const std::uint32_t* rows16, std::uint32_t mask,
                         std::uint8_t* symbols, std::uint8_t* distances);
  /// Single-word variant (the differential despreader's sequential chain).
  void (*match16)(std::uint32_t observed, const std::uint32_t* rows16,
                  std::uint32_t mask, std::uint8_t* symbol,
                  std::uint8_t* distance);
};

/// Scratch doubles chip_strip needs for an m-offset strip: the filtered
/// stream (m + 30*spc complex values) and chip 31's wrapped filter (m).
constexpr std::size_t chip_strip_work(std::size_t m, std::size_t spc) {
  return 4 * m + 60 * spc;
}

/// The kernel table for an explicit level. `scalar` always works; asking
/// for `avx2` on a CPU without AVX2+FMA trips a contract failure. Tests use
/// this to compare levels side by side regardless of CTC_SIMD.
const KernelTable& table(SimdLevel level);

/// Best level this CPU can execute (CPUID probe, cached).
SimdLevel best_supported_level();

/// The level active() dispatches to: CTC_SIMD if set (invalid values trip
/// a contract failure), else best_supported_level(). Resolved once.
SimdLevel active_level();

/// The process-wide dispatched table — the one hot loops call through.
const KernelTable& active();

/// add_gauss's polynomials at the scalar level, exported so the accuracy
/// tests can sweep them against libm. gauss_log is fdlibm's e_log for x in
/// [2^-52, 1]; gauss_sincos_2pi returns sin and cos of 2*pi*u for u in
/// [0, 1) by exact quadrant reduction plus fdlibm's k_sin/k_cos.
double gauss_log(double x);
void gauss_sincos_2pi(double u, double* sin_out, double* cos_out);

/// fm_discriminate's phase at the scalar level, exported for the accuracy
/// tests: fdlibm's e_atan2 over s_atan in one unfused operation order. Its
/// special cases (signed zeros, infinities, NaN) are libm's.
double fm_atan2(double y, double x);

/// qam_cost's level rule, shared with attack::quantize_to_qam64: the
/// nearest odd level in [-7, 7] to value / alpha, i.e. 2 floor(s / 2) + 1
/// for s = value / alpha, clamped as a double (NaN gives -7), so the result
/// always converts to int. It is non-decreasing in s (scalar_impl.h proves
/// that the old "plus 2 if s - level > 1" correction never fires).
double qam_level(double value, double alpha);

}  // namespace ctc::dsp::kernels
