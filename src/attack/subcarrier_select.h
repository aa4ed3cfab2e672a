// Two-step subcarrier selection (Sec. V-A2, Table I).
//
// The ZigBee receiver only sees ~7 of the attacker's 64 subcarriers
// (2 MHz / 0.3125 MHz), so the attacker keeps the 7 subcarriers that carry
// the most ZigBee energy. Because per-waveform selection is too expensive
// on real hardware, the paper selects *indexes* once from a batch of
// observed waveforms:
//   coarse estimation — highlight every |X(k)| above a threshold;
//   detailed estimation — keep the 7 indexes highlighted most often.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dsp/types.h"

namespace ctc::attack {

struct SelectionConfig {
  double coarse_threshold = 3.0;  ///< highlight level (Table I uses 3)
  std::size_t num_kept = 7;       ///< 2 MHz / 0.3125 MHz subcarriers
};

struct SelectionResult {
  /// Chosen FFT bins (0-based; the paper's 1-based indexes minus one),
  /// ascending.
  std::vector<std::size_t> bins;
  /// votes[k] = number of windows in which bin k was highlighted.
  std::vector<std::size_t> votes;
  /// magnitudes[w][k] = |X_w(k)| for window w (the raw Table I data).
  std::vector<rvec> magnitudes;
};

class SubcarrierSelector {
 public:
  explicit SubcarrierSelector(SelectionConfig config = {});

  /// 64-point FFT magnitude of every complete 64-sample window taken from
  /// consecutive 80-sample WiFi-symbol slots of a 20 MHz waveform
  /// (the first 16 samples of each slot are the CP the attacker skips).
  std::vector<rvec> window_magnitudes(std::span<const cplx> waveform20mhz) const;

  /// Runs coarse + detailed estimation over the given windows.
  SelectionResult select(std::span<const rvec> magnitudes) const;

  /// Convenience: both steps from a 20 MHz waveform.
  SelectionResult select_from_waveform(std::span<const cplx> waveform20mhz) const;

  /// Both steps from precomputed 64-point spectra: window w is the spectrum
  /// spectra[64 * windows[w], 64 * windows[w] + 64), so windows may share
  /// one. Same bins and votes as select() on those windows' magnitudes;
  /// `magnitudes` stays empty.
  SelectionResult select_from_spectra(std::span<const cplx> spectra,
                                      std::span<const std::size_t> windows) const;

  /// The fixed default the paper lands on: bins {0,1,2,3} and {61,62,63}
  /// (paper's 1-based 1-4 and 62-64).
  static std::vector<std::size_t> paper_default_bins();

  const SelectionConfig& config() const { return config_; }

 private:
  SelectionConfig config_;
};

}  // namespace ctc::attack
