#include "attack/bit_extract.h"

#include <gtest/gtest.h>

#include <string>

#include "attack/emulator.h"
#include "dsp/require.h"
#include "wifi/ofdm.h"
#include "wifi/qam.h"
#include "zigbee/app.h"
#include "zigbee/receiver.h"
#include "zigbee/transmitter.h"

namespace ctc::attack {
namespace {

// Forward check: rebuilds the WiFi-centered grids from interleaved bits
// through the standard QAM mapper (pilots inserted per symbol index).
std::vector<cvec> grids_from_interleaved_bits(
    std::span<const bitvec> interleaved_bits_per_symbol, double tx_gain) {
  std::vector<cvec> grids;
  grids.reserve(interleaved_bits_per_symbol.size());
  for (std::size_t s = 0; s < interleaved_bits_per_symbol.size(); ++s) {
    const cvec points =
        wifi::qam_map(interleaved_bits_per_symbol[s], wifi::Modulation::qam64);
    cvec scaled(points.size());
    for (std::size_t n = 0; n < points.size(); ++n) scaled[n] = points[n] * tx_gain;
    grids.push_back(wifi::assemble_symbol_grid(scaled, s));
  }
  return grids;
}

EmulationResult emulate_frame() {
  zigbee::Transmitter tx;
  EmulatorConfig config;
  config.alpha = std::sqrt(26.0);
  return WaveformEmulator(config).emulate(
      tx.transmit_frame(zigbee::make_text_frame(3, 3)));
}

TEST(BitExtractTest, OneBlockPerSymbolWithFullCbps) {
  const EmulationResult emulation = emulate_frame();
  const CarrierPlan plan;
  const ExtractedBits bits =
      extract_wifi_bits(emulation.symbol_grids, std::sqrt(26.0), plan);
  EXPECT_EQ(bits.interleaved_bits_per_symbol.size(), emulation.symbol_grids.size());
  EXPECT_EQ(bits.coded_bits_per_symbol.size(), emulation.symbol_grids.size());
  for (const auto& block : bits.interleaved_bits_per_symbol) {
    EXPECT_EQ(block.size(), 288u);  // 48 subcarriers x 6 bits
  }
  EXPECT_NEAR(bits.tx_gain, std::sqrt(26.0) * std::sqrt(42.0), 1e-12);
}

TEST(BitExtractTest, ForwardPathReproducesZigBeeSubcarriersExactly) {
  // Running the extracted bits through the standard mapper must reproduce the
  // quantized values on every ZigBee-carrying subcarrier — the paper's
  // "preprocessing is invertible" claim made concrete.
  const EmulationResult emulation = emulate_frame();
  const CarrierPlan plan;
  const double alpha = std::sqrt(26.0);
  const ExtractedBits bits = extract_wifi_bits(emulation.symbol_grids, alpha, plan);
  const auto rebuilt =
      grids_from_interleaved_bits(bits.interleaved_bits_per_symbol, bits.tx_gain);
  ASSERT_EQ(rebuilt.size(), emulation.symbol_grids.size());
  const int shift = plan.subcarrier_shift();
  for (std::size_t s = 0; s < rebuilt.size(); ++s) {
    for (std::size_t bin : emulation.kept_bins) {
      const int target = (static_cast<int>(bin) + shift + 64) % 64;
      EXPECT_NEAR(std::abs(rebuilt[s][static_cast<std::size_t>(target)] -
                           emulation.symbol_grids[s][bin]),
                  0.0, 1e-9)
          << "symbol " << s << " bin " << bin;
    }
  }
}

TEST(BitExtractTest, RebuiltGridsCarryPilots) {
  const EmulationResult emulation = emulate_frame();
  const CarrierPlan plan;
  const ExtractedBits bits =
      extract_wifi_bits(emulation.symbol_grids, std::sqrt(26.0), plan);
  const auto rebuilt =
      grids_from_interleaved_bits(bits.interleaved_bits_per_symbol, bits.tx_gain);
  for (std::size_t s = 0; s < rebuilt.size(); ++s) {
    const double polarity = wifi::pilot_polarity(s);
    EXPECT_EQ(rebuilt[s][wifi::subcarrier_to_bin(-21)], (cplx{polarity, 0.0}));
    EXPECT_EQ(rebuilt[s][wifi::subcarrier_to_bin(21)], (cplx{-polarity, 0.0}));
  }
}

TEST(BitExtractTest, DontCareSubcarriersGetValidPoints) {
  // Subcarriers outside the ZigBee window demap from zero to *some* legal
  // 64-QAM point, keeping the frame protocol-legal.
  const EmulationResult emulation = emulate_frame();
  const CarrierPlan plan;
  const ExtractedBits bits =
      extract_wifi_bits(emulation.symbol_grids, std::sqrt(26.0), plan);
  const auto rebuilt =
      grids_from_interleaved_bits(bits.interleaved_bits_per_symbol, bits.tx_gain);
  const auto& data_indexes = wifi::data_subcarrier_indexes();
  for (int index : data_indexes) {
    const cplx value = rebuilt[0][wifi::subcarrier_to_bin(index)];
    // Every data subcarrier holds an odd-level point of the alpha lattice.
    const double i = value.real() / std::sqrt(26.0);
    const double q = value.imag() / std::sqrt(26.0);
    EXPECT_NEAR(i, std::round(i), 1e-9);
    EXPECT_EQ(std::abs(std::lround(i)) % 2, 1) << "subcarrier " << index;
    EXPECT_NEAR(q, std::round(q), 1e-9);
    EXPECT_EQ(std::abs(std::lround(q)) % 2, 1) << "subcarrier " << index;
  }
}

TEST(BitExtractTest, RejectsNonPositiveAlpha) {
  const EmulationResult emulation = emulate_frame();
  EXPECT_THROW(extract_wifi_bits(emulation.symbol_grids, 0.0, CarrierPlan{}),
               ContractError);
}


TEST(BitExtractTest, BitLevelFrameStillControlsTheZigBeeReceiver) {
  // Close the loop on Sec. V-A4: rebuild the WiFi frame from the *extracted
  // bits* (not the raw grids), transmit it on the real carrier plan, run the
  // victim front end, and decode. This is the frame a commodity WiFi PHY
  // with post-encoder injection would emit.
  zigbee::Transmitter tx;
  const zigbee::MacFrame frame = zigbee::make_text_frame(77, 7);
  const cvec observed = tx.transmit_frame(frame);
  EmulatorConfig config;
  config.alpha = std::sqrt(26.0);
  const EmulationResult emulation = WaveformEmulator(config).emulate(observed);

  const CarrierPlan plan;
  const ExtractedBits bits =
      extract_wifi_bits(emulation.symbol_grids, std::sqrt(26.0), plan);
  const auto wifi_grids =
      grids_from_interleaved_bits(bits.interleaved_bits_per_symbol, bits.tx_gain);

  cvec wifi_baseband;
  for (const cvec& grid : wifi_grids) {
    const cvec symbol = wifi::grid_to_time(grid);
    wifi_baseband.insert(wifi_baseband.end(), symbol.begin(), symbol.end());
  }
  cvec at_victim = wifi_band_to_zigbee_baseband(wifi_baseband, plan);
  at_victim.resize(observed.size());
  const auto rx = zigbee::Receiver().receive(at_victim);
  ASSERT_TRUE(rx.frame_ok());
  EXPECT_EQ(std::string(rx.mac->payload.begin(), rx.mac->payload.end()), "00077");
}

}  // namespace
}  // namespace ctc::attack
