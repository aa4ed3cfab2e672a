#include "defense/kmeans.h"

#include <cmath>
#include <limits>

#include "dsp/require.h"

namespace ctc::defense {

namespace {

cvec kmeanspp_seed(std::span<const cplx> points, std::size_t k, dsp::Rng& rng) {
  cvec centroids;
  centroids.reserve(k);
  centroids.push_back(points[rng.uniform_index(points.size())]);
  rvec distances(points.size());
  while (centroids.size() < k) {
    double total = 0.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      double best = std::numeric_limits<double>::infinity();
      for (const cplx& center : centroids) {
        best = std::min(best, std::norm(points[i] - center));
      }
      distances[i] = best;
      total += best;
    }
    if (total <= 0.0) {
      // All remaining points coincide with existing centroids.
      centroids.push_back(points[rng.uniform_index(points.size())]);
      continue;
    }
    double target = rng.uniform() * total;
    std::size_t chosen = points.size() - 1;
    for (std::size_t i = 0; i < points.size(); ++i) {
      target -= distances[i];
      if (target <= 0.0) {
        chosen = i;
        break;
      }
    }
    centroids.push_back(points[chosen]);
  }
  return centroids;
}

}  // namespace

KmeansResult kmeans(std::span<const cplx> points, dsp::Rng& rng,
                    KmeansConfig config) {
  CTC_REQUIRE(config.k >= 1);
  CTC_REQUIRE_MSG(points.size() >= config.k, "fewer points than clusters");
  KmeansResult result;
  result.centroids = kmeanspp_seed(points, config.k, rng);
  result.assignment.assign(points.size(), 0);

  double previous_objective = std::numeric_limits<double>::infinity();
  for (std::size_t iteration = 0; iteration < kKmeansMaxIterations; ++iteration) {
    // Assignment step.
    double objective = 0.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      double best = std::numeric_limits<double>::infinity();
      std::size_t best_cluster = 0;
      for (std::size_t c = 0; c < config.k; ++c) {
        const double distance = std::norm(points[i] - result.centroids[c]);
        if (distance < best) {
          best = distance;
          best_cluster = c;
        }
      }
      result.assignment[i] = best_cluster;
      objective += best;
    }
    result.within_cluster_ss = objective;
    result.iterations = iteration + 1;

    // Update step.
    cvec sums(config.k, cplx{0.0, 0.0});
    std::vector<std::size_t> counts(config.k, 0);
    for (std::size_t i = 0; i < points.size(); ++i) {
      sums[result.assignment[i]] += points[i];
      ++counts[result.assignment[i]];
    }
    for (std::size_t c = 0; c < config.k; ++c) {
      if (counts[c] > 0) {
        result.centroids[c] = sums[c] / static_cast<double>(counts[c]);
      }
    }
    if (previous_objective - objective < kKmeansTolerance) break;
    previous_objective = objective;
  }
  return result;
}

}  // namespace ctc::defense
