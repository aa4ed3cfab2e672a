// 802.11g OFDM transmitter (Fig. 2 of the paper): scrambler -> convolutional
// coder -> interleaver -> QAM -> pilot/null insertion -> 64-IFFT -> cyclic
// prefix, preceded by the legacy STF/LTF preamble and normalized to unit
// average power.
//
// The SIGNAL field is omitted: both ends of our simulated link (and the
// attack) know the rate and length out of band, which is also what the
// paper's GNU Radio prototype assumes. The attacker only transmits, so the
// library has no WiFi receiver; tests/wifi/ holds the known-rate receive
// chain as this transmitter's round-trip oracle.
#pragma once

#include <cstdint>
#include <span>

#include "dsp/types.h"
#include "wifi/convcode.h"
#include "wifi/qam.h"

namespace ctc::wifi {

/// 802.11g rate set (data rate at 20 MHz).
enum class Mcs { mbps6, mbps9, mbps12, mbps18, mbps24, mbps36, mbps48, mbps54 };

Modulation mcs_modulation(Mcs mcs);
CodeRate mcs_code_rate(Mcs mcs);

/// Data bits per OFDM symbol (N_DBPS).
std::size_t data_bits_per_symbol(Mcs mcs);

/// Coded bits per OFDM symbol (N_CBPS = 48 * N_BPSC).
std::size_t coded_bits_per_symbol(Mcs mcs);

/// Initial state of the data scrambler's LFSR.
inline constexpr std::uint8_t kScramblerSeed = 0x5D;

struct WifiTxConfig {
  Mcs mcs = Mcs::mbps54;  ///< 64-QAM rate 3/4, the mode the attack rides on
};

class WifiTransmitter {
 public:
  explicit WifiTransmitter(WifiTxConfig config = {});

  /// Full PHY chain for a PSDU (MAC bytes). Returns 20 MHz baseband.
  cvec transmit(std::span<const std::uint8_t> psdu) const;

  /// Number of data OFDM symbols needed for a PSDU of `psdu_bytes`.
  std::size_t num_data_symbols(std::size_t psdu_bytes) const;

  const WifiTxConfig& config() const { return config_; }

 private:
  WifiTxConfig config_;
};

}  // namespace ctc::wifi
