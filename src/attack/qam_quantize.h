// 64-QAM quantization of the chosen frequency points (Sec. V-A3).
//
// By Parseval (Eq. 2), minimizing time-domain emulation error is equivalent
// to minimizing the total squared deviation of the frequency points after
// quantization, so each chosen point maps to the Euclidean-nearest point of
// the alpha-scaled 64-QAM grid (Eq. 3). The constellation scale alpha is a
// free variable the attacker optimizes first (Eq. 4) with a numerical global
// search; the paper's example lands on alpha = sqrt(26).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dsp/types.h"

namespace ctc::attack {

struct QuantizedPoint {
  cplx value;   ///< alpha * (XI + j XQ)
  int i_level;  ///< XI in {-7,-5,-3,-1,1,3,5,7}
  int q_level;  ///< XQ likewise
};

/// Quantizes every point to the alpha-scaled 64-QAM grid.
std::vector<QuantizedPoint> quantize_to_qam64(std::span<const cplx> points,
                                              double alpha);

/// Total squared Euclidean error of quantize_to_qam64 at this alpha
/// (the objective of Eq. 4).
double quantization_cost(std::span<const cplx> points, double alpha);

/// The scale search's grid: kScaleSearchCoarseSteps candidates from
/// kScaleSearchMinAlpha up to the largest |component| of the points (alpha
/// beyond that only grows the cost), then kScaleSearchRefineRounds
/// golden-section rounds.
inline constexpr double kScaleSearchMinAlpha = 0.05;
inline constexpr std::size_t kScaleSearchCoarseSteps = 400;
inline constexpr std::size_t kScaleSearchRefineRounds = 30;

/// Numerical global search for the optimal alpha >= 0: a dense coarse grid
/// followed by golden-section refinement around the best cell. The cost is
/// piecewise-smooth in alpha (the nearest-point assignment changes at cell
/// boundaries), which is why a plain gradient method is not enough.
/// Requires non-empty points.
double optimize_scale(std::span<const cplx> points);

}  // namespace ctc::attack
