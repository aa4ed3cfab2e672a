// ZigBee receiver: data-aided phase/gain equalization,
// O-QPSK matched-filter demodulation, hard-decision DSSS despreading with a
// correlation threshold, PPDU parsing and MAC CRC check (Fig. 1, right half).
//
// The receiver also exposes the *soft chip samples* of the PSDU — the input
// of the DSSS demodulator — which is exactly the tap the paper's defense
// uses to rebuild a QPSK constellation (Sec. VI-A2).
#pragma once

#include <optional>
#include <span>
#include <string>

#include "dsp/types.h"
#include "zigbee/frame.h"
#include "zigbee/oqpsk.h"

namespace ctc::zigbee {

/// Chip demodulation strategy.
enum class DemodKind {
  /// Noncoherent FM discriminator + differential despreading — the GNU
  /// Radio 802.15.4 chain of the paper's USRP testbed (ref. [22]).
  differential,
  /// Coherent matched filter + direct despreading — a hardware-grade
  /// receiver like the CC26x2R1 ("stronger demodulation functions",
  /// Sec. VII-D).
  coherent,
};

/// Differences between the two physical receivers of Sec. VII-D.
struct ReceiverProfile {
  std::string name = "usrp";
  /// Maximum tolerated Hamming distance in DSSS despreading.
  std::size_t correlation_threshold = 10;
  /// Extra link budget vs the USRP chain (better LNA/antenna of the
  /// commodity chip); consumed by the sim layer as an SNR bonus.
  double sensitivity_gain_db = 0.0;
  DemodKind demod = DemodKind::differential;

  static ReceiverProfile usrp();
  static ReceiverProfile cc26x2r1();
};

struct ReceiveResult {
  bool shr_ok = false;   ///< preamble + SFD recognized
  bool phr_ok = false;   ///< length field decoded and frame fits the capture
  bool psdu_complete = false;  ///< every PSDU symbol within threshold
  bytevec psdu;                ///< best-guess decoded PSDU bytes
  std::optional<MacFrame> mac;  ///< parsed MAC frame when the FCS checks out

  /// Per-PSDU-symbol Hamming distance of the best-matching chip sequence
  /// (the statistic of the paper's Fig. 7).
  std::vector<std::size_t> hamming_distances;

  /// Coherent (matched filter) soft chip values of the PSDU after
  /// equalization (Fig. 9b chip amplitudes).
  rvec soft_chips;
  /// Noncoherent (FM discriminator) frequency values of the PSDU chips —
  /// the paper's defense tap (Sec. VI-A2) and Fig. 9a.
  rvec freq_chips;
  /// Hard chip decisions of the PSDU (coherent path).
  std::vector<std::uint8_t> hard_chips;

  /// Complex channel estimate used for equalization.
  cplx channel_estimate{1.0, 0.0};

  /// Data-aided noise estimate from the SHR residual: per-sample complex
  /// noise variance and the implied SNR. Only meaningful when equalization
  /// ran and the frame is a genuine 802.15.4 SHR (otherwise the "noise"
  /// includes all the model mismatch). Feeds the defense's optional
  /// noise-variance correction.
  double noise_variance_estimate = 0.0;
  double snr_estimate_db = 0.0;

  /// Fractional-sample timing offset estimated (and corrected) by clock
  /// recovery; 0 when timing_recovery is disabled.
  double timing_offset_estimate = 0.0;

  /// Frame accepted end-to-end (what "successful rate" counts in Table II).
  bool frame_ok() const { return shr_ok && phr_ok && psdu_complete && mac.has_value(); }
};

struct ReceiverConfig {
  std::size_t samples_per_chip = 2;
  ReceiverProfile profile;
  /// Data-aided clock recovery (the "Clock Recovery" block of the paper's
  /// Fig. 1): estimate the fractional-sample timing offset against the SHR
  /// reference on a sub-sample grid and correct it before demodulation.
  /// Off by default to keep the calibrated experiment profiles unchanged;
  /// the ablation tests show the low-SNR gain under timing offsets.
  /// The search grid is fixed: tau from -0.5 to 0.5 samples in steps of
  /// 1/16, 17 shifted SHR references built once, at construction.
  bool timing_recovery = false;
};

class Receiver {
 public:
  explicit Receiver(ReceiverConfig config = {});

  /// Decodes one frame from a synchronized waveform (sample 0 = first sample
  /// of the PPDU). Never throws on bad data — failures are flagged in the
  /// result.
  ReceiveResult receive(std::span<const cplx> waveform) const;

  const ReceiverConfig& config() const { return config_; }

 private:
  /// One clock-recovery candidate: the SHR reference delayed by tau, with
  /// its correlation-window energy.
  struct TimingReference {
    double tau = 0.0;
    cvec reference;
    double window_energy = 0.0;
  };

  ReceiverConfig config_;
  OqpskDemodulator demodulator_;
  cvec shr_reference_;
  /// energy() of the SHR correlation window of shr_reference_, the
  /// equalizer's denominator.
  double reference_energy_ = 0.0;
  std::vector<TimingReference> timing_grid_;  ///< empty unless timing_recovery
};

}  // namespace ctc::zigbee
