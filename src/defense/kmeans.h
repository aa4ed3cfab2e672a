// k-means clustering on complex constellation points (Sec. VI-C, Eq. 12).
//
// The paper uses k-means (k = 4) to locate the reconstructed constellation
// clusters and visualize the phase offset of the real environment (Fig. 6).
// Initialization is k-means++ for deterministic, well-spread seeds.
#pragma once

#include <span>
#include <vector>

#include "dsp/rng.h"
#include "dsp/types.h"

namespace ctc::defense {

struct KmeansResult {
  cvec centroids;                      ///< k cluster centers
  std::vector<std::size_t> assignment; ///< cluster index per input point
  double within_cluster_ss = 0.0;      ///< objective of Eq. 12
  std::size_t iterations = 0;
};

/// Lloyd iterations stop after kKmeansMaxIterations, or once the objective
/// improves by less than kKmeansTolerance.
inline constexpr std::size_t kKmeansMaxIterations = 100;
inline constexpr double kKmeansTolerance = 1e-9;

struct KmeansConfig {
  std::size_t k = 4;
};

/// Lloyd's algorithm with k-means++ seeding. Requires points.size() >= k.
KmeansResult kmeans(std::span<const cplx> points, dsp::Rng& rng,
                    KmeansConfig config = {});

}  // namespace ctc::defense
