// Carrier allocation (Sec. V-A4).
//
// The emulator works in a baseband centered on the ZigBee channel. A real
// WiFi radio is centered elsewhere: with ZigBee channel 17 at 2435 MHz and
// the WiFi attacker at 2440 MHz, the ZigBee band sits 5 MHz below the WiFi
// center — exactly 16 subcarriers (5 MHz / 0.3125 MHz). Shifting the
// quantized grid down by 16 bins places the ZigBee information on WiFi data
// subcarriers [-20, -8] (paper's example); the pilots at -21/-7 and the null
// guard bins are untouched, so the frame remains a protocol-legal WiFi
// transmission. The matching ZigBee front end mixes the 20 MHz capture back
// up by +5 MHz and decimates to 4 MHz.
#pragma once

#include <span>

#include "dsp/types.h"

namespace ctc::attack {

struct CarrierPlan {
  double zigbee_center_hz = 2435.0e6;  ///< ZigBee channel 17
  double wifi_center_hz = 2440.0e6;
  double wifi_sample_rate_hz = 20.0e6;

  /// Subcarrier shift between the two centers (negative = ZigBee below the
  /// WiFi center). Must be an integer number of 0.3125 MHz subcarriers.
  int subcarrier_shift() const;

  /// Frequency offset of the ZigBee band inside the WiFi baseband (Hz).
  double offset_hz() const { return zigbee_center_hz - wifi_center_hz; }
};

/// Moves a 64-bin grid built around the ZigBee center onto the WiFi grid
/// (bin k -> bin k + shift, cyclic). Throws if a nonzero source bin would
/// land on a pilot (-21, -7, 7, 21) or DC, i.e. if the plan is not
/// realizable as a legal WiFi symbol.
cvec allocate_to_wifi_grid(std::span<const cplx> zigbee_centered_grid,
                           const CarrierPlan& plan);

/// ZigBee receiver front end for a 20 MHz WiFi-band capture: mix the ZigBee
/// channel to DC, lowpass to 2 MHz and decimate to 4 MHz.
cvec wifi_band_to_zigbee_baseband(std::span<const cplx> waveform20mhz,
                                  const CarrierPlan& plan);

}  // namespace ctc::attack
