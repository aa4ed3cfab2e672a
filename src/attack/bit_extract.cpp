#include "attack/bit_extract.h"

#include <cmath>

#include "dsp/require.h"
#include "wifi/interleaver.h"
#include "wifi/ofdm.h"
#include "wifi/qam.h"

namespace ctc::attack {

ExtractedBits extract_wifi_bits(std::span<const cvec> zigbee_centered_grids,
                                double alpha, const CarrierPlan& plan) {
  CTC_REQUIRE(alpha > 0.0);
  ExtractedBits result;
  result.tx_gain = alpha * std::sqrt(42.0);
  const auto& data_indexes = wifi::data_subcarrier_indexes();
  const std::size_t cbps = wifi::kNumDataSubcarriers * 6;

  for (const cvec& grid : zigbee_centered_grids) {
    const cvec wifi_grid = allocate_to_wifi_grid(grid, plan);
    // Demap each data subcarrier against the alpha-scaled grid: dividing by
    // tx_gain puts the points on the standard K_MOD = 1/sqrt(42) lattice.
    cvec points(wifi::kNumDataSubcarriers);
    for (std::size_t n = 0; n < wifi::kNumDataSubcarriers; ++n) {
      points[n] = wifi_grid[wifi::subcarrier_to_bin(data_indexes[n])] / result.tx_gain;
    }
    bitvec interleaved = wifi::qam_demap(points, wifi::Modulation::qam64);
    CTC_REQUIRE(interleaved.size() == cbps);
    result.coded_bits_per_symbol.push_back(
        wifi::deinterleave(interleaved, cbps, 6));
    result.interleaved_bits_per_symbol.push_back(std::move(interleaved));
  }
  return result;
}

}  // namespace ctc::attack
