#include "attack/qam_quantize.h"

#include <algorithm>
#include <cmath>

#include "dsp/kernels/kernels.h"
#include "dsp/require.h"

namespace ctc::attack {

std::vector<QuantizedPoint> quantize_to_qam64(std::span<const cplx> points,
                                              double alpha) {
  CTC_REQUIRE(alpha > 0.0);
  std::vector<QuantizedPoint> out;
  out.reserve(points.size());
  for (const cplx& point : points) {
    const double i_level = dsp::kernels::qam_level(point.real(), alpha);
    const double q_level = dsp::kernels::qam_level(point.imag(), alpha);
    QuantizedPoint q;
    q.i_level = static_cast<int>(i_level);
    q.q_level = static_cast<int>(q_level);
    q.value = alpha * cplx{i_level, q_level};
    out.push_back(q);
  }
  return out;
}

double quantization_cost(std::span<const cplx> points, double alpha) {
  CTC_REQUIRE(alpha > 0.0);
  double cost = 0.0;
  dsp::kernels::active().qam_cost(points.data(), points.size(), &alpha, 1,
                                  &cost);
  return cost;
}

double optimize_scale(std::span<const cplx> points) {
  CTC_REQUIRE(!points.empty());
  constexpr double min_alpha = kScaleSearchMinAlpha;
  constexpr std::size_t steps = kScaleSearchCoarseSteps;
  double peak = 0.0;
  for (const cplx& point : points) {
    peak = std::max({peak, std::abs(point.real()), std::abs(point.imag())});
  }
  const double max_alpha = std::max(peak, min_alpha + 1e-6);

  // Coarse grid: every candidate in one kernel call, then the first
  // minimum in index order. The kernel finds each component's level steps
  // along the grid, which needs it ascending; correctly rounded arithmetic
  // keeps min + span * i / (steps - 1) monotone in i unless max_alpha is
  // below min_alpha.
  std::vector<double> alphas(steps);
  std::vector<double> costs(steps);
  alphas[0] = min_alpha;
  for (std::size_t i = 1; i < steps; ++i) {
    alphas[i] = min_alpha + (max_alpha - min_alpha) * static_cast<double>(i) /
                                static_cast<double>(steps - 1);
    CTC_REQUIRE_MSG(alphas[i] >= alphas[i - 1],
                    "scale-search candidates must ascend");
  }
  dsp::kernels::active().qam_cost(points.data(), points.size(), alphas.data(),
                                  alphas.size(), costs.data());
  double best_alpha = alphas[0];
  double best_cost = costs[0];
  for (std::size_t i = 1; i < steps; ++i) {
    if (costs[i] < best_cost) {
      best_cost = costs[i];
      best_alpha = alphas[i];
    }
  }

  // Golden-section refinement around the best cell.
  const double cell =
      (max_alpha - min_alpha) / static_cast<double>(steps - 1);
  double lo = std::max(min_alpha, best_alpha - cell);
  double hi = std::min(max_alpha, best_alpha + cell);
  constexpr double kInvPhi = 0.6180339887498949;
  double x1 = hi - kInvPhi * (hi - lo);
  double x2 = lo + kInvPhi * (hi - lo);
  double f1 = quantization_cost(points, x1);
  double f2 = quantization_cost(points, x2);
  for (std::size_t round = 0; round < kScaleSearchRefineRounds; ++round) {
    if (f1 < f2) {
      hi = x2;
      x2 = x1;
      f2 = f1;
      x1 = hi - kInvPhi * (hi - lo);
      f1 = quantization_cost(points, x1);
    } else {
      lo = x1;
      x1 = x2;
      f1 = f2;
      x2 = lo + kInvPhi * (hi - lo);
      f2 = quantization_cost(points, x2);
    }
  }
  const double refined = (f1 < f2) ? x1 : x2;
  const double refined_cost = std::min(f1, f2);
  return refined_cost < best_cost ? refined : best_alpha;
}

}  // namespace ctc::attack
