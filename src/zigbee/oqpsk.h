// Half-sine O-QPSK modulation and demodulation (802.15.4, 2450 MHz PHY).
//
// Even-indexed chips ride the in-phase branch, odd-indexed chips the
// quadrature branch delayed by one chip period Tc (the "offset" in O-QPSK).
// Every chip is shaped with a half-sine pulse spanning 2 Tc, which makes the
// waveform constant-envelope (MSK-equivalent).
//
// Timeline: chip i's pulse occupies samples [i*spc, i*spc + 2*spc), so a
// stream of N chips produces (N + 1) * spc samples; one 32-chip symbol
// nominally occupies 32*spc samples (64 samples = 16 us at 4 MHz, spc = 2).
//
// The demodulator is a synchronized matched filter (integrate-and-dump
// against the half-sine) producing one *soft chip value* per chip — exactly
// the "input of the DSSS demodulation" that the paper's defense uses to
// rebuild a QPSK constellation (Sec. VI-A2).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dsp/types.h"

namespace ctc::zigbee {

/// Version of the FM-discriminator chips (frequency_chips), bumped whenever
/// their bits change on purpose.
///   * step s is waveform[s] * conj(waveform[s-1]), rounded as
///     re = fl(a*c) + fl(b*d), im = fl(b*c) - fl(a*d) (a, b the sample, c, d
///     its predecessor) — the libstdc++ complex multiply's bits;
///   * a step counts only if re^2 + im^2 > 1e-24, so a NaN step adds
///     nothing (libstdc++'s __muldc3 infinity recovery is not reproduced: a
///     step whose components are both NaN is gated out);
///   * its phase is fdlibm's e_atan2 over s_atan (dsp::kernels::fm_atan2),
///     in one unfused operation order, within 2 ulp of libm and with libm's
///     signed-zero, infinity and NaN cases; the dispatched fm_discriminate
///     kernel computes it four steps at a time on AVX2 and recomputes any
///     lane with a zero, infinite or NaN component, or an exponent gap past
///     2^60, through the scalar routine, so the chips are the same at every
///     SIMD level and no longer depend on libm.
/// Discriminator 1 called libm's atan2 per step, whose bits belonged to the
/// platform libm, at 24-36 ns/sample. It is gone; nothing can select it.
/// Campaign manifests fold this id into their fingerprint, so a run
/// checkpointed under another discriminator is refused rather than merged.
inline constexpr int kDiscriminator = 2;

class OqpskModulator {
 public:
  explicit OqpskModulator(std::size_t samples_per_chip = 2);

  /// Modulates a chip stream (values 0/1) into complex baseband.
  /// Output length: (chips.size() + 1) * samples_per_chip.
  cvec modulate(std::span<const std::uint8_t> chips) const;

  std::size_t samples_per_chip() const { return samples_per_chip_; }

 private:
  std::size_t samples_per_chip_;
  rvec pulse_;
};

class OqpskDemodulator {
 public:
  explicit OqpskDemodulator(std::size_t samples_per_chip = 2);

  /// Matched-filters `num_chips` chips out of a synchronized waveform
  /// (sample 0 = start of chip 0). Returns one soft value per chip,
  /// normalized so a clean unit-amplitude waveform yields approximately ±1.
  /// Requires waveform.size() >= (num_chips + 1) * samples_per_chip.
  rvec soft_chips(std::span<const cplx> waveform, std::size_t num_chips) const;

  /// Noncoherent FM-discriminator demodulation (the GNU Radio 802.15.4
  /// receiver the paper's USRP testbed uses, ref. [22]): per chip interval,
  /// the accumulated phase rotation between the previous chip's pulse peak
  /// and this chip's, normalized so a clean MSK waveform yields +-1.
  /// Value i reflects the transition c_{i-1} -> c_i:
  ///   f_i = s_i * (2 c_{i-1} - 1)(2 c_i - 1),  s_i = +1 (i odd) / -1 (i even).
  /// f_0 has no predecessor chip and is not meaningful.
  /// Insensitive to complex gain and phase offset, and nearly insensitive to
  /// CFO — which is exactly why the paper's defense tap sees a clean QPSK
  /// cloud for authentic traffic in the real environment.
  rvec frequency_chips(std::span<const cplx> waveform, std::size_t num_chips) const;

  /// Incremental forms: extend `soft`/`chips` in place from their current
  /// size up to `num_chips`, computing only the chips not yet present; on
  /// an empty vector they demodulate into its reused storage (the
  /// receiver's header pass). Both demodulations are strictly per-chip
  /// (chip i reads only its own sample window), so extending a prefix is
  /// bit-identical to recomputing the full stream, and so is demodulating
  /// a span that starts on a chip boundary — the receiver's second pass
  /// demodulates only the PSDU's chips. The soft extension (or span) must
  /// start on an even chip so the I/Q branch parity of the offset call
  /// matches the absolute chip index.
  void extend_soft_chips(std::span<const cplx> waveform, std::size_t num_chips,
                         rvec& soft) const;
  void extend_frequency_chips(std::span<const cplx> waveform,
                              std::size_t num_chips, rvec& chips) const;

  /// Hard decision: soft value > 0 -> chip 1.
  static std::vector<std::uint8_t> hard_decision(std::span<const double> soft);

  std::size_t samples_per_chip() const { return samples_per_chip_; }

 private:
  std::size_t samples_per_chip_;
  rvec pulse_;
  double pulse_energy_;
};

}  // namespace ctc::zigbee
