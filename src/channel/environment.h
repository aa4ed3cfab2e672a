// Composable channel environment.
//
// One struct describes everything between transmitter and receiver. Two
// factory presets mirror the paper's two evaluation settings:
//   * Environment::awgn(snr_db)          — Sec. VII-B "ideal scenario"
//   * Environment::real_world(distance)  — Sec. VII-D lab: log-distance path
//     loss, block Rician fading (human activity), CFO and phase offset from
//     unsynchronized oscillators.
#pragma once

#include <optional>
#include <span>

#include "channel/fading.h"
#include "channel/multipath.h"
#include "channel/pathloss.h"
#include "dsp/rng.h"
#include "dsp/types.h"

namespace ctc::channel {

struct Environment {
  /// SNR used when `distance_m` is empty.
  double snr_db = 30.0;

  /// If set, SNR comes from `path_loss.snr_db(*distance_m)` instead.
  std::optional<double> distance_m;
  PathLossModel path_loss;

  /// Block-fading: one Rician tap per propagate() call. nullopt = no fading.
  std::optional<double> rician_k_factor;

  /// Frequency-selective multipath (one realization per propagate() call).
  /// When set it replaces the flat `rician_k_factor` fade. Needed to model
  /// the delay spread that defeats cyclic-prefix detection (Sec. VI-A1).
  std::optional<MultipathProfile> multipath;

  /// Carrier frequency offset (Hz at `sample_rate_hz`) and static phase.
  double cfo_hz = 0.0;
  double phase_offset_rad = 0.0;
  /// When true, the static phase of each frame is drawn uniformly from
  /// [0, 2pi) (unsynchronized oscillators) and `phase_offset_rad` is ignored.
  bool random_phase = false;

  double sample_rate_hz = 4.0e6;

  /// Fractional-sample timing offset in [0, 1).
  double timing_offset = 0.0;

  /// Effective SNR for this environment (path loss applied if configured).
  double effective_snr_db() const;

  /// Pushes one frame through fading -> CFO/phase -> timing -> AWGN.
  /// The input is assumed unit average power (the paper normalizes TX power);
  /// noise variance is 10^(-snr/10) regardless of instantaneous fade, which
  /// is what makes deep fades hurt.
  cvec propagate(std::span<const cplx> signal, dsp::Rng& rng) const;

  /// Same channel into a caller-owned workspace (resized to the signal
  /// length). Every stage runs in place on `out`, so hot loops that keep a
  /// thread-local buffer pay zero channel allocations per frame. Bit-
  /// identical to propagate(): same stage order, per-sample math and RNG
  /// draw sequence.
  void propagate_into(cvec& out, std::span<const cplx> signal,
                      dsp::Rng& rng) const;

  static Environment awgn(double snr_db);
  static Environment real_world(double distance_m,
                                double sample_rate_hz = 4.0e6);
};

}  // namespace ctc::channel
