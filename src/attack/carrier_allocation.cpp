#include "attack/carrier_allocation.h"

#include <cmath>

#include "dsp/require.h"
#include "dsp/resample.h"
#include "wifi/ofdm.h"

namespace ctc::attack {

int CarrierPlan::subcarrier_shift() const {
  const double spacing = wifi_sample_rate_hz / static_cast<double>(wifi::kNumSubcarriers);
  const double shift = offset_hz() / spacing;
  const int rounded = static_cast<int>(std::lround(shift));
  CTC_REQUIRE_MSG(std::abs(shift - rounded) < 1e-6,
                  "center offset must be an integer number of subcarriers");
  return rounded;
}

cvec allocate_to_wifi_grid(std::span<const cplx> zigbee_centered_grid,
                           const CarrierPlan& plan) {
  CTC_REQUIRE(zigbee_centered_grid.size() == wifi::kNumSubcarriers);
  const int shift = plan.subcarrier_shift();
  const int n = static_cast<int>(wifi::kNumSubcarriers);
  cvec wifi_grid(wifi::kNumSubcarriers, cplx{0.0, 0.0});
  for (int bin = 0; bin < n; ++bin) {
    const cplx value = zigbee_centered_grid[static_cast<std::size_t>(bin)];
    if (std::abs(value) == 0.0) continue;
    const int target = ((bin + shift) % n + n) % n;
    // Logical subcarrier index of the target bin (-32..31).
    const int logical = target < n / 2 ? target : target - n;
    const bool is_pilot = logical == -21 || logical == -7 || logical == 7 || logical == 21;
    CTC_REQUIRE_MSG(!is_pilot && logical != 0,
                    "carrier plan collides with a pilot or DC subcarrier");
    CTC_REQUIRE_MSG(logical >= -26 && logical <= 26,
                    "carrier plan lands outside the occupied WiFi band");
    wifi_grid[static_cast<std::size_t>(target)] = value;
  }
  return wifi_grid;
}

cvec wifi_band_to_zigbee_baseband(std::span<const cplx> waveform20mhz,
                                  const CarrierPlan& plan) {
  // The ZigBee band sits at offset_hz in the WiFi baseband; mix it to DC.
  const cvec mixed =
      dsp::frequency_shift(waveform20mhz, -plan.offset_hz(), plan.wifi_sample_rate_hz);
  const auto factor = static_cast<std::size_t>(
      std::lround(plan.wifi_sample_rate_hz / 4.0e6));
  return dsp::decimate(mixed, factor);
}

}  // namespace ctc::attack
