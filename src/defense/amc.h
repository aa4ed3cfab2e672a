// Automatic modulation classification via cumulant features (Swami &
// Sadler, the method family the paper builds its defense on — Sec. II-B).
//
// The paper only needs the binary QPSK-or-not decision; this module
// implements the full nearest-Voronoi classifier over Table III so the
// defense generalizes: feature vector [ |C20|, C40, C42 ] (normalized by
// C21^2 with optional noise correction) matched against every constellation
// class. With `use_c40_magnitude` the C40 coordinate is |C40|, making the
// classifier immune to carrier phase offsets (Sec. VI-C) at the cost of
// conflating classes that differ only in C40's sign.
#pragma once

#include <span>
#include <vector>

#include "defense/cumulants.h"
#include "dsp/types.h"

namespace ctc::defense {

struct AmcConfig {
  double noise_variance = 0.0;
  bool use_c40_magnitude = false;
};

struct AmcScore {
  ModulationClass modulation = ModulationClass::qpsk;
  double distance_sq = 0.0;
};

struct AmcResult {
  ModulationClass best = ModulationClass::qpsk;
  double distance_sq = 0.0;
  /// All classes sorted by ascending feature distance.
  std::vector<AmcScore> ranking;
};

/// Classifies a block of baseband constellation samples (>= 4).
AmcResult classify_modulation(std::span<const cplx> samples,
                              AmcConfig config = {});

}  // namespace ctc::defense
