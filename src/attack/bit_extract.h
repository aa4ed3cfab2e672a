// Bit-level attack mode (Sec. V-A4, "the WiFi data bits ... easily obtained").
//
// Given the quantized per-symbol grids, this module derives the *interleaved
// coded bits* a WiFi modulator must emit per OFDM symbol, by demapping every
// data subcarrier against the alpha-scaled 64-QAM grid (don't-care
// subcarriers — those outside the ZigBee receiver's 2 MHz window — demap to
// whatever valid point is nearest, which keeps the frame protocol-legal
// without affecting the victim). Running the extracted bits back through
// interleaving + QAM mapping reproduces the quantized ZigBee subcarriers
// exactly.
//
// Caveat documented in DESIGN.md: the 802.11 convolutional encoder cannot
// produce arbitrary coded-bit sequences, so a real attacker injects after
// the encoder (firmware access — the WEBee assumption). The paper's own
// simulation "ignores the preprocessing"; this module is the honest version
// of its invertibility claim.
#pragma once

#include <span>
#include <vector>

#include "attack/carrier_allocation.h"
#include "dsp/types.h"

namespace ctc::attack {

struct ExtractedBits {
  /// One interleaved coded-bit block (48 * 6 bits) per OFDM symbol, exactly
  /// as they enter the QAM mapper of Fig. 2.
  std::vector<bitvec> interleaved_bits_per_symbol;
  /// The same bits after deinterleaving (encoder-output order).
  std::vector<bitvec> coded_bits_per_symbol;
  /// TX gain that makes the standard 64-QAM mapper (K_MOD = 1/sqrt(42))
  /// reproduce the alpha-scaled quantized amplitudes: alpha * sqrt(42).
  double tx_gain = 1.0;
};

/// Extracts WiFi bits from ZigBee-centered quantized grids.
ExtractedBits extract_wifi_bits(std::span<const cvec> zigbee_centered_grids,
                                double alpha, const CarrierPlan& plan);

}  // namespace ctc::attack
