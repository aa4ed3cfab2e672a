// 802.15.4 frame synchronization: the first offset whose normalized
// correlation with the unit-power SHR (preamble + SFD) is largest, if it
// reaches kThreshold. Window energies are prefix-sum differences of |x|^2
// anchored at the search's first offset, and windows at or under
// kEnergyGate are skipped. A chip-domain screen of the repeating preamble
// bounds every offset's metric, so the exact window-length correlation runs
// best-first at a few offsets per frame; the bound picks which offsets are
// evaluated, never what they score (tests/zigbee/shr_sync_test.cpp and
// tests/sentry/scan_oracle_test.cpp hold both entry points to exhaustive
// searches).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "dsp/types.h"

namespace ctc::zigbee {

/// Outcome of one SHR search.
struct ShrMatch {
  std::optional<std::size_t> offset;  ///< frame start, or none below threshold
  /// Exact full-window correlations run (the screen skips the rest).
  std::uint64_t exact = 0;
  /// The offset's normalized correlation (0 when there is no offset).
  double metric = 0.0;
};

/// One instance holds the reference, the screen geometry and reusable
/// scratch, so it serves one thread at a time.
class ShrSync {
 public:
  /// Normalized correlation a frame start must reach, in [0, 1].
  static constexpr double kThreshold = 0.25;
  /// Windows at or under this energy (idle air) skip the correlation.
  static constexpr double kEnergyGate = 1e-12;

  explicit ShrSync(std::size_t samples_per_chip = 2);

  /// Streaming search over candidate offsets [0, limit): the first maximum
  /// at or above kThreshold, then a hill-climb that keeps moving to a larger
  /// metric within `guard` offsets past the argmax, never past `search_end`.
  /// `norms[i]` is |samples[i]|^2; both are read over
  /// [0, search_end + window()). Requires 0 < limit <= search_end + 1.
  ShrMatch search(const cplx* samples, const double* norms, std::size_t limit,
                  std::size_t search_end, std::size_t guard);

  /// One-shot search of a whole capture over offsets [0, max_offset]
  /// (clipped to the last full window), with no hill-climb: the first
  /// maximum at or above kThreshold in index order. A window holding a
  /// sample whose |x|^2 is not finite (NaN, Inf, or an overflow) cannot
  /// sync, so each stretch between such samples is searched on its own,
  /// its prefix energies anchored at the stretch's first sample, and a
  /// later stretch wins only on a greater metric. An all-finite capture is
  /// one stretch. A capture shorter than the window has no offset.
  ShrMatch find(std::span<const cplx> capture, std::size_t max_offset);

  /// SHR correlation window length in samples.
  std::size_t window() const { return reference_.size(); }

 private:
  cvec reference_;               ///< unit-power SHR
  double reference_energy_ = 0.0;
  std::size_t spc_ = 0;
  std::size_t seg_len_ = 0;       ///< one symbol period in samples
  std::size_t preamble_len_ = 0;  ///< eight preamble symbols in samples
  double seg0_energy_ = 0.0;      ///< energy of the (distinct) first segment
  double tail_energy_ = 0.0;      ///< energy of the SFD + pulse-tail remainder
  rvec pulse_;                    ///< half-sine chip pulse, 2 * spc taps
  std::uint32_t preamble_chips_ = 0;  ///< symbol 0's chips, bit j = chip j

  // Scratch, reused across calls so a steady stream allocates nothing.
  rvec norms_;          ///< find(): the capture's per-sample |x|^2
  rvec energy_prefix_;  ///< prefix sums of the norms
  cvec corr_strip_;     ///< chip_strip output
  rvec strip_work_;     ///< chip_strip's filtered streams
  rvec bounds_;         ///< screen bound per offset
};

}  // namespace ctc::zigbee
