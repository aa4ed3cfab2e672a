#include "attack/qam_quantize.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "attack/emulator.h"
#include "dsp/fft.h"
#include "dsp/require.h"
#include "dsp/resample.h"
#include "dsp/rng.h"
#include "zigbee/app.h"
#include "zigbee/transmitter.h"

namespace ctc::attack {
namespace {

TEST(QuantizeTest, ExactGridPointsAreFixedPoints) {
  const double alpha = 2.5;
  cvec points;
  for (int i = -7; i <= 7; i += 2) {
    for (int q = -7; q <= 7; q += 2) {
      points.emplace_back(alpha * i, alpha * q);
    }
  }
  const auto quantized = quantize_to_qam64(points, alpha);
  for (std::size_t n = 0; n < points.size(); ++n) {
    EXPECT_NEAR(std::abs(points[n] - quantized[n].value), 0.0, 1e-12);
  }
  EXPECT_NEAR(quantization_cost(points, alpha), 0.0, 1e-12);
}

TEST(QuantizeTest, LevelsAreClampedToPlusMinusSeven) {
  // 1e300 / alpha is far past the int range: the level is clamped as a
  // double before it becomes an int.
  const auto q = quantize_to_qam64(cvec{{100.0, -50.0}, {1e300, -1e300}}, 1.0);
  EXPECT_EQ(q[0].i_level, 7);
  EXPECT_EQ(q[0].q_level, -7);
  EXPECT_EQ(q[1].i_level, 7);
  EXPECT_EQ(q[1].q_level, -7);
}

TEST(QuantizeTest, NearestLevelRounding) {
  const auto q = quantize_to_qam64(cvec{{1.9, -2.1}, {0.0, 4.1}}, 1.0);
  EXPECT_EQ(q[0].i_level, 1);   // 1.9 closer to 1 than 3
  EXPECT_EQ(q[0].q_level, -3);  // -2.1 closer to -3... (-2.1: |-2.1+1|=1.1, |-2.1+3|=0.9)
  EXPECT_EQ(q[1].i_level, 1);  // 0 ties toward +1
  EXPECT_EQ(q[1].q_level, 5);   // 4.1 closer to 5
}

TEST(QuantizeTest, RejectsNonPositiveAlpha) {
  EXPECT_THROW(quantize_to_qam64(cvec{{1.0, 1.0}}, 0.0), ContractError);
  EXPECT_THROW(quantization_cost(cvec{{1.0, 1.0}}, -1.0), ContractError);
}

TEST(OptimizeScaleTest, RecoversTheGeneratingScale) {
  // Points drawn exactly from an alpha* grid: the optimum is alpha* (cost 0).
  dsp::Rng rng(130);
  const double true_alpha = 3.7;
  cvec points;
  for (int n = 0; n < 64; ++n) {
    const int i = 2 * static_cast<int>(rng.uniform_index(8)) - 7;
    const int q = 2 * static_cast<int>(rng.uniform_index(8)) - 7;
    points.emplace_back(true_alpha * i, true_alpha * q);
  }
  const double alpha = optimize_scale(points);
  EXPECT_NEAR(quantization_cost(points, alpha), 0.0, 1e-6);
}

TEST(OptimizeScaleTest, BeatsNaiveScalesOnNoisyData) {
  dsp::Rng rng(131);
  cvec points;
  for (int n = 0; n < 200; ++n) {
    points.push_back(rng.complex_gaussian(400.0));  // spread ~ +-40
  }
  const double alpha = optimize_scale(points);
  const double optimal_cost = quantization_cost(points, alpha);
  for (double naive : {0.5, 1.0, 2.0, 10.0, 20.0}) {
    EXPECT_LE(optimal_cost, quantization_cost(points, naive) + 1e-9)
        << "naive alpha " << naive;
  }
}

TEST(OptimizeScaleTest, MatchesDenseBruteForce) {
  dsp::Rng rng(132);
  cvec points;
  for (int n = 0; n < 50; ++n) points.push_back(rng.complex_gaussian(100.0));
  const double alpha = optimize_scale(points);
  // Brute force over a very dense grid.
  double best_cost = 1e300;
  for (double a = 0.05; a < 15.0; a += 0.001) {
    best_cost = std::min(best_cost, quantization_cost(points, a));
  }
  EXPECT_NEAR(quantization_cost(points, alpha), best_cost, 0.01 * best_cost + 1e-9);
}

TEST(OptimizeScaleTest, PaperExampleLandsNearSqrt26) {
  // The paper's simulation uses alpha = sqrt(26) ~ 5.10 for frequency points
  // with magnitudes like Table I's. Synthesize points of that scale and
  // check the optimizer lands in a sane neighborhood (2..9).
  dsp::Rng rng(133);
  cvec points;
  for (int n = 0; n < 100; ++n) {
    points.push_back(rng.complex_gaussian(650.0));  // rms ~ 25 per axis... ~Table I scale
  }
  const double alpha = optimize_scale(points);
  EXPECT_GT(alpha, 1.5);
  EXPECT_LT(alpha, 10.0);
}

/// The per-candidate cost the scale search used before the qam_cost kernel:
/// allocate the quantized points, then sum |p - Q(p)|^2 in point order.
double allocating_cost(std::span<const cplx> points, double alpha) {
  const auto quantized = quantize_to_qam64(points, alpha);
  double cost = 0.0;
  for (std::size_t n = 0; n < points.size(); ++n) {
    cost += std::norm(points[n] - quantized[n].value);
  }
  return cost;
}

/// optimize_scale's search with one allocating_cost call per candidate:
/// the coarse grid in index order, then golden-section refinement.
double per_candidate_search(std::span<const cplx> points) {
  constexpr double min_alpha = kScaleSearchMinAlpha;
  constexpr std::size_t steps = kScaleSearchCoarseSteps;
  double peak = 0.0;
  for (const cplx& point : points) {
    peak = std::max({peak, std::abs(point.real()), std::abs(point.imag())});
  }
  const double max_alpha = std::max(peak, min_alpha + 1e-6);
  double best_alpha = min_alpha;
  double best_cost = allocating_cost(points, best_alpha);
  for (std::size_t i = 1; i < steps; ++i) {
    const double alpha = min_alpha + (max_alpha - min_alpha) *
                                         static_cast<double>(i) /
                                         static_cast<double>(steps - 1);
    const double cost = allocating_cost(points, alpha);
    if (cost < best_cost) {
      best_cost = cost;
      best_alpha = alpha;
    }
  }
  const double cell =
      (max_alpha - min_alpha) / static_cast<double>(steps - 1);
  double lo = std::max(min_alpha, best_alpha - cell);
  double hi = std::min(max_alpha, best_alpha + cell);
  constexpr double kInvPhi = 0.6180339887498949;
  double x1 = hi - kInvPhi * (hi - lo);
  double x2 = lo + kInvPhi * (hi - lo);
  double f1 = allocating_cost(points, x1);
  double f2 = allocating_cost(points, x2);
  for (std::size_t round = 0; round < kScaleSearchRefineRounds; ++round) {
    if (f1 < f2) {
      hi = x2;
      x2 = x1;
      f2 = f1;
      x1 = hi - kInvPhi * (hi - lo);
      f1 = allocating_cost(points, x1);
    } else {
      lo = x1;
      x1 = x2;
      f1 = f2;
      x2 = lo + kInvPhi * (hi - lo);
      f2 = allocating_cost(points, x2);
    }
  }
  const double refined = (f1 < f2) ? x1 : x2;
  return std::min(f1, f2) < best_cost ? refined : best_alpha;
}

/// The emulator's pooled points for one observed frame: the kept bins of
/// every 80-sample slot's FFT (CP skipped) of the upsampled, padded frame.
cvec pooled_points(const cvec& observed, std::span<const std::size_t> bins) {
  cvec upsampled = dsp::upsample(observed, 5);
  upsampled.resize((upsampled.size() + 79) / 80 * 80, cplx{0.0, 0.0});
  const dsp::FftPlan plan(64);
  cvec pooled;
  for (std::size_t start = 0; start < upsampled.size(); start += 80) {
    const cvec spectrum =
        plan.forward(std::span<const cplx>(upsampled).subspan(start + 16, 64));
    for (std::size_t bin : bins) pooled.push_back(spectrum[bin]);
  }
  return pooled;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST(OptimizeScaleTest, BitEqualToThePerCandidateSearchOnRealFrames) {
  const zigbee::Transmitter transmitter;
  const WaveformEmulator emulator;
  for (unsigned index : {0u, 1u, 17u, 42u, 99u}) {
    SCOPED_TRACE("frame " + std::to_string(index));
    const cvec observed =
        transmitter.transmit_frame(zigbee::make_text_frame(index, index & 0xFF));
    const EmulationResult emulation = emulator.emulate(observed);
    const cvec pooled = pooled_points(observed, emulation.kept_bins);
    const double alpha = optimize_scale(pooled);
    EXPECT_TRUE(same_bits(alpha, per_candidate_search(pooled)));
    EXPECT_TRUE(same_bits(alpha, emulation.diagnostics.front().alpha));
    for (double candidate : {0.05, 0.5, alpha, 3.0, 5.0990195135927845, 12.0}) {
      EXPECT_TRUE(same_bits(quantization_cost(pooled, candidate),
                            allocating_cost(pooled, candidate)))
          << "alpha " << candidate;
    }
  }
}

TEST(OptimizeScaleTest, RejectsEmptyInput) {
  EXPECT_THROW(optimize_scale(cvec{}), ContractError);
}

}  // namespace
}  // namespace ctc::attack
