#include "wifi/transmitter.h"

#include "dsp/require.h"
#include "dsp/stats.h"
#include "sim/telemetry.h"
#include "wifi/interleaver.h"
#include "wifi/ofdm.h"
#include "wifi/scrambler.h"

namespace ctc::wifi {

namespace {
constexpr std::size_t kServiceBits = 16;
constexpr std::size_t kTailBits = 6;
}  // namespace

Modulation mcs_modulation(Mcs mcs) {
  switch (mcs) {
    case Mcs::mbps6:
    case Mcs::mbps9: return Modulation::bpsk;
    case Mcs::mbps12:
    case Mcs::mbps18: return Modulation::qpsk;
    case Mcs::mbps24:
    case Mcs::mbps36: return Modulation::qam16;
    case Mcs::mbps48:
    case Mcs::mbps54: return Modulation::qam64;
  }
  CTC_REQUIRE_MSG(false, "unknown MCS");
}

CodeRate mcs_code_rate(Mcs mcs) {
  switch (mcs) {
    case Mcs::mbps6:
    case Mcs::mbps12:
    case Mcs::mbps24: return CodeRate::half;
    case Mcs::mbps48: return CodeRate::two_thirds;
    case Mcs::mbps9:
    case Mcs::mbps18:
    case Mcs::mbps36:
    case Mcs::mbps54: return CodeRate::three_quarters;
  }
  CTC_REQUIRE_MSG(false, "unknown MCS");
}

std::size_t coded_bits_per_symbol(Mcs mcs) {
  return kNumDataSubcarriers * bits_per_subcarrier(mcs_modulation(mcs));
}

std::size_t data_bits_per_symbol(Mcs mcs) {
  const double ratio = coded_bits_per_data_bit(mcs_code_rate(mcs));
  return static_cast<std::size_t>(
      static_cast<double>(coded_bits_per_symbol(mcs)) / ratio + 0.5);
}

WifiTransmitter::WifiTransmitter(WifiTxConfig config) : config_(config) {}

std::size_t WifiTransmitter::num_data_symbols(std::size_t psdu_bytes) const {
  const std::size_t payload_bits = kServiceBits + 8 * psdu_bytes + kTailBits;
  const std::size_t dbps = data_bits_per_symbol(config_.mcs);
  return (payload_bits + dbps - 1) / dbps;
}

cvec WifiTransmitter::transmit(std::span<const std::uint8_t> psdu) const {
  CTC_TELEM_TIMER("wifi_tx", "transmit");
  CTC_TELEM_COUNT("wifi_tx", "frames", 1);
  CTC_TELEM_COUNT("wifi_tx", "psdu_bytes", psdu.size());
  const std::size_t dbps = data_bits_per_symbol(config_.mcs);
  const std::size_t cbps = coded_bits_per_symbol(config_.mcs);
  const Modulation modulation = mcs_modulation(config_.mcs);
  const std::size_t bpsc = bits_per_subcarrier(modulation);

  // SERVICE + data bits (LSB first within each byte) + tail + pad.
  bitvec bits(kServiceBits, 0);
  for (std::uint8_t byte : psdu) {
    for (int b = 0; b < 8; ++b) {
      bits.push_back(static_cast<std::uint8_t>((byte >> b) & 1));
    }
  }
  const std::size_t tail_position = bits.size();
  bits.insert(bits.end(), kTailBits, 0);
  const std::size_t num_symbols = num_data_symbols(psdu.size());
  bits.resize(num_symbols * dbps, 0);

  // Scramble everything, then zero the tail so the trellis terminates.
  Scrambler scrambler(kScramblerSeed);
  bitvec scrambled = scrambler.process(bits);
  for (std::size_t i = 0; i < kTailBits; ++i) scrambled[tail_position + i] = 0;

  // Encode, interleave per symbol, map, assemble.
  const bitvec coded = convolutional_encode(scrambled, mcs_code_rate(config_.mcs));
  CTC_REQUIRE(coded.size() == num_symbols * cbps);

  // Preamble, then one 80-sample symbol per grid.
  cvec waveform = make_stf();
  const cvec ltf = make_ltf();
  waveform.insert(waveform.end(), ltf.begin(), ltf.end());
  for (std::size_t s = 0; s < num_symbols; ++s) {
    const auto symbol_bits = std::span<const std::uint8_t>(coded).subspan(s * cbps, cbps);
    const bitvec interleaved = interleave(symbol_bits, cbps, bpsc);
    const cvec points = qam_map(interleaved, modulation);
    const cvec symbol = grid_to_time(assemble_symbol_grid(points, s));
    waveform.insert(waveform.end(), symbol.begin(), symbol.end());
  }
  return dsp::normalize_power(waveform);
}

}  // namespace ctc::wifi
