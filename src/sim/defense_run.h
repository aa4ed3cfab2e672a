// Runs the constellation defense over simulated links and collects
// per-frame features — the workhorse behind Table IV, Fig. 12 and Table V.
#pragma once

#include <span>

#include "defense/detector.h"
#include "sim/engine.h"
#include "sim/link.h"

namespace ctc::sim {

/// One frame's defense features: what a single engine trial yields.
struct DefenseObservation {
  bool usable = false;      ///< the receiver produced enough chip samples
  double distance_sq = 0.0; ///< DE^2 of the cumulant feature vector
  double c40 = 0.0;         ///< Chat40 (per detector mode)
  double c42 = 0.0;         ///< Chat42
};

/// Feature samples over a batch of frames. Also a TrialEngine aggregator:
/// add() folds one DefenseObservation in the engine's fixed trial order.
struct DefenseSamples {
  rvec distances;  ///< DE^2 per usable frame
  rvec c40;        ///< Chat40 (per detector mode) per usable frame
  rvec c42;        ///< Chat42 per usable frame
  std::size_t frames_used = 0;
  std::size_t frames_skipped = 0;  ///< frames whose PHR never decoded

  void add(const DefenseObservation& observation);

  double mean_distance() const;
  double max_distance() const;
  double min_distance() const;
};

/// Which receiver tap feeds the detector.
enum class DefenseTap {
  /// FM-discriminator frequency chips — the paper's GNU Radio receiver tap
  /// (Sec. VI-A2); insensitive to gain/phase/CFO.
  discriminator,
  /// Coherent matched-filter soft chips; rotates under residual phase
  /// offset, which is the Fig. 6b effect the |C40| mode compensates.
  coherent,
};

/// Extracts the defense features of one received frame (the body of a
/// single trial). Frames without chip samples come back with
/// `usable == false`, mirroring the paper's setup where the defense runs
/// only on frames the receiver locked on.
DefenseObservation observe_defense_frame(const Link& link,
                                         const zigbee::MacFrame& frame,
                                         const defense::Detector& detector,
                                         dsp::Rng& rng,
                                         DefenseTap tap = DefenseTap::discriminator);

/// Sends `count` frames (cycled from `frames`) through `link`, one engine
/// trial per frame in parallel, runs the detector on each frame's chip
/// samples and collects the features.
DefenseSamples collect_defense_samples(const Link& link,
                                       std::span<const zigbee::MacFrame> frames,
                                       std::size_t count,
                                       const defense::Detector& detector,
                                       TrialEngine& engine,
                                       DefenseTap tap = DefenseTap::discriminator);

}  // namespace ctc::sim
