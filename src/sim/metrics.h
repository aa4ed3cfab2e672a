// Aggregate link statistics: packet/symbol error rates and the chip-level
// Hamming-distance histogram of Fig. 7.
#pragma once

#include <cstddef>
#include <map>
#include <span>

#include "sim/engine.h"
#include "sim/link.h"

namespace ctc::sim {

/// Per-frame trial statistics. Also a TrialEngine aggregator: add() folds
/// one FrameObservation, and observations commute only through the engine's
/// fixed trial-index reduction order, which keeps aggregates bit-identical
/// across thread counts.
struct FrameStats {
  std::size_t frames_sent = 0;
  std::size_t frames_ok = 0;       ///< decoded end-to-end with matching payload
  std::size_t symbols_sent = 0;
  std::size_t symbol_errors = 0;
  /// histogram[d] = number of PSDU symbols whose best chip-sequence match
  /// had Hamming distance d.
  std::map<std::size_t, std::size_t> hamming_histogram;

  void add(const FrameObservation& observation);

  double packet_error_rate() const;
  double symbol_error_rate() const;
  double success_rate() const;  ///< 1 - PER (Table II's "successful rate")
};

/// Historical name, kept for callers that predate the trial engine.
using LinkStats = FrameStats;

/// Sends `count` copies drawn from `frames` (cycled) through the link, one
/// engine trial per frame, parallel across the engine's thread pool.
FrameStats run_frames(const Link& link,
                      std::span<const zigbee::MacFrame> frames,
                      std::size_t count, TrialEngine& engine);

}  // namespace ctc::sim
