#include "dsp/constellation.h"

#include <cmath>

#include "dsp/require.h"
#include "dsp/stats.h"

namespace ctc::dsp {

cvec make_psk(std::size_t order) {
  CTC_REQUIRE(order >= 2);
  cvec points(order);
  for (std::size_t k = 0; k < order; ++k) {
    const double angle = kTwoPi * static_cast<double>(k) / static_cast<double>(order);
    points[k] = {std::cos(angle), std::sin(angle)};
  }
  return points;
}

cvec make_pam(std::size_t order) {
  CTC_REQUIRE(order >= 2 && order % 2 == 0);
  cvec points(order);
  for (std::size_t k = 0; k < order; ++k) {
    points[k] = {static_cast<double>(2 * k + 1) - static_cast<double>(order), 0.0};
  }
  const double p = average_power(points);
  for (auto& x : points) x /= std::sqrt(p);
  return points;
}

cvec make_qam(std::size_t order) {
  const auto side = static_cast<std::size_t>(std::lround(std::sqrt(static_cast<double>(order))));
  CTC_REQUIRE_MSG(side * side == order && side >= 2,
                  "QAM order must be a perfect square >= 4");
  cvec points;
  points.reserve(order);
  for (std::size_t row = 0; row < side; ++row) {
    for (std::size_t col = 0; col < side; ++col) {
      const double in_phase = static_cast<double>(2 * col + 1) - static_cast<double>(side);
      const double quadrature = static_cast<double>(2 * row + 1) - static_cast<double>(side);
      points.emplace_back(in_phase, quadrature);
    }
  }
  const double p = average_power(points);
  for (auto& x : points) x /= std::sqrt(p);
  return points;
}

}  // namespace ctc::dsp
