#include "attack/emulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "dsp/require.h"
#include "dsp/resample.h"
#include "dsp/stats.h"
#include "sim/telemetry.h"
#include "zigbee/app.h"
#include "zigbee/receiver.h"
#include "zigbee/transmitter.h"

namespace ctc::attack {
namespace {

cvec observed_waveform() {
  zigbee::Transmitter tx;
  return tx.transmit_frame(zigbee::make_text_frame(0, 0));
}

TEST(EmulatorTest, OutputsCoverTheObservedFrame) {
  WaveformEmulator emulator;
  const cvec observed = observed_waveform();
  const EmulationResult result = emulator.emulate(observed);
  EXPECT_EQ(result.emulated_4mhz.size(), observed.size());
  EXPECT_EQ(result.wifi_waveform_20mhz.size() % 80, 0u);
  EXPECT_GE(result.wifi_waveform_20mhz.size(), observed.size() * 5);
  EXPECT_EQ(result.symbol_grids.size(), result.wifi_waveform_20mhz.size() / 80);
  EXPECT_EQ(result.diagnostics.size(), result.symbol_grids.size());
}

TEST(EmulatorTest, SelectsThePaperBinsAutomatically) {
  WaveformEmulator emulator;
  const EmulationResult result = emulator.emulate(observed_waveform());
  EXPECT_EQ(result.kept_bins, SubcarrierSelector::paper_default_bins());
}

TEST(EmulatorTest, EmittedWifiSymbolsHaveCyclicPrefixes) {
  // Every 80-sample block: first 16 samples == last 16 (the structure the
  // paper's Sec. VI-A1 "possible strategy" looks for).
  WaveformEmulator emulator;
  const EmulationResult result = emulator.emulate(observed_waveform());
  const cvec& wifi = result.wifi_waveform_20mhz;
  for (std::size_t start = 0; start + 80 <= wifi.size(); start += 80) {
    for (std::size_t i = 0; i < 16; ++i) {
      EXPECT_NEAR(std::abs(wifi[start + i] - wifi[start + 64 + i]), 0.0, 1e-12);
    }
  }
}

TEST(EmulatorTest, GridsOnlyOccupyKeptBins) {
  WaveformEmulator emulator;
  const EmulationResult result = emulator.emulate(observed_waveform());
  for (const cvec& grid : result.symbol_grids) {
    for (std::size_t k = 0; k < 64; ++k) {
      const bool kept = std::find(result.kept_bins.begin(), result.kept_bins.end(),
                                  k) != result.kept_bins.end();
      if (!kept) {
        EXPECT_EQ(grid[k], (cplx{0.0, 0.0})) << "bin " << k;
      }
    }
  }
}

TEST(EmulatorTest, GridValuesSitOnTheAlphaQamLattice) {
  EmulatorConfig config;
  config.alpha = 5.0;
  WaveformEmulator emulator(config);
  const EmulationResult result = emulator.emulate(observed_waveform());
  for (const cvec& grid : result.symbol_grids) {
    for (std::size_t bin : result.kept_bins) {
      const double i = grid[bin].real() / 5.0;
      const double q = grid[bin].imag() / 5.0;
      EXPECT_NEAR(i, std::round(i), 1e-9);
      EXPECT_NEAR(q, std::round(q), 1e-9);
      EXPECT_EQ(std::abs(std::lround(i)) % 2, 1);
      EXPECT_EQ(std::abs(std::lround(q)) % 2, 1);
    }
  }
}

TEST(EmulatorTest, EmulatedWaveformResemblesTheOriginal) {
  // Most energy is preserved: NMSE well below 1 (the paper's Fig. 5 shows
  // near-perfect tracking outside the cyclic-prefix windows).
  WaveformEmulator emulator;
  const cvec observed = observed_waveform();
  const EmulationResult result = emulator.emulate(observed);
  EXPECT_LT(dsp::nmse(observed, result.emulated_4mhz), 0.7);
  // And it is far from a trivial all-zero signal.
  EXPECT_GT(dsp::average_power(result.emulated_4mhz), 0.1);
}

TEST(EmulatorTest, EmulatedFrameDecodesAtTheZigBeeReceiver) {
  // The headline claim of Sec. V-B: the emulated waveform passes the ZigBee
  // receiver's detection and decoding, on both receiver profiles.
  WaveformEmulator emulator;
  const zigbee::MacFrame frame = zigbee::make_text_frame(42, 9);
  zigbee::Transmitter tx;
  const EmulationResult result = emulator.emulate(tx.transmit_frame(frame));
  for (auto profile :
       {zigbee::ReceiverProfile::usrp(), zigbee::ReceiverProfile::cc26x2r1()}) {
    zigbee::ReceiverConfig config;
    config.profile = profile;
    const auto rx = zigbee::Receiver(config).receive(result.emulated_4mhz);
    ASSERT_TRUE(rx.frame_ok()) << profile.name;
    EXPECT_EQ(std::string(rx.mac->payload.begin(), rx.mac->payload.end()), "00042") << profile.name;
  }
}

TEST(EmulatorTest, ChipErrorsLandInThePaperRange) {
  // Fig. 7: noiseless emulated frames produce Hamming distances around 4-8;
  // authentic frames produce 0.
  WaveformEmulator emulator;
  zigbee::Transmitter tx;
  const cvec observed = tx.transmit_frame(zigbee::make_text_frame(1, 1));
  const auto rx = zigbee::Receiver().receive(emulator.emulate(observed).emulated_4mhz);
  ASSERT_TRUE(rx.phr_ok);
  ASSERT_FALSE(rx.hamming_distances.empty());
  for (std::size_t d : rx.hamming_distances) {
    EXPECT_GE(d, 1u);
    EXPECT_LE(d, 9u);
  }
}

TEST(EmulatorTest, FixedAlphaIsHonored) {
  EmulatorConfig config;
  config.alpha = std::sqrt(26.0);  // the paper's simulation value
  WaveformEmulator emulator(config);
  const EmulationResult result = emulator.emulate(observed_waveform());
  for (const auto& diagnostics : result.diagnostics) {
    EXPECT_DOUBLE_EQ(diagnostics.alpha, std::sqrt(26.0));
  }
}

TEST(EmulatorTest, ManualBinChoiceIsHonored) {
  EmulatorConfig config;
  config.kept_bins = {0, 1, 63};
  WaveformEmulator emulator(config);
  const EmulationResult result = emulator.emulate(observed_waveform());
  EXPECT_EQ(result.kept_bins, (std::vector<std::size_t>{0, 1, 63}));
}

TEST(EmulatorTest, FewerBinsMeansMoreDiscardedEnergy) {
  // Ablation hook: keeping 3 bins must discard more energy than keeping 7.
  EmulatorConfig narrow;
  narrow.selection.num_kept = 3;
  EmulatorConfig wide;
  wide.selection.num_kept = 7;
  const cvec observed = observed_waveform();
  auto discarded = [&](const EmulatorConfig& config) {
    const EmulationResult result = WaveformEmulator(config).emulate(observed);
    double total = 0.0;
    for (const auto& d : result.diagnostics) total += d.discarded_energy;
    return total;
  };
  EXPECT_GT(discarded(narrow), discarded(wide));
}

TEST(EmulatorTest, MemoizedOutputIsBitwiseIdenticalToUncached) {
  // The reference runs emulate_symbol on every slot of the upsampled,
  // zero-padded frame, with the frame's alpha and kept bins and no slot
  // reuse, then decimates the concatenated symbols.
  const WaveformEmulator emulator;
  const cvec observed = observed_waveform();
  const EmulationResult result = emulator.emulate(observed);
  cvec upsampled = dsp::upsample(observed, emulator.config().interpolation);
  ASSERT_EQ(result.wifi_waveform_20mhz.size(), (upsampled.size() + 79) / 80 * 80);
  upsampled.resize(result.wifi_waveform_20mhz.size(), cplx{0.0, 0.0});
  const double alpha = result.diagnostics.front().alpha;

  cvec wifi;
  std::vector<cvec> grids;
  std::vector<SymbolDiagnostics> diagnostics;
  for (std::size_t start = 0; start < upsampled.size(); start += 80) {
    SymbolDiagnostics symbol_diagnostics;
    cvec grid;
    const cvec symbol = emulator.emulate_symbol(
        std::span<const cplx>(upsampled).subspan(start, 80), result.kept_bins,
        alpha, &symbol_diagnostics, &grid);
    wifi.insert(wifi.end(), symbol.begin(), symbol.end());
    grids.push_back(std::move(grid));
    diagnostics.push_back(symbol_diagnostics);
  }
  cvec emulated = dsp::decimate(wifi, emulator.config().interpolation);
  emulated.resize(observed.size(), cplx{0.0, 0.0});

  const auto same_bytes = [](const cvec& a, const cvec& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0;
  };
  EXPECT_TRUE(same_bytes(result.wifi_waveform_20mhz, wifi));
  EXPECT_TRUE(same_bytes(result.emulated_4mhz, emulated));
  ASSERT_EQ(result.symbol_grids.size(), grids.size());
  ASSERT_EQ(result.diagnostics.size(), diagnostics.size());
  for (std::size_t n = 0; n < grids.size(); ++n) {
    EXPECT_TRUE(same_bytes(result.symbol_grids[n], grids[n])) << "slot " << n;
    EXPECT_EQ(result.diagnostics[n].alpha, diagnostics[n].alpha);
    EXPECT_EQ(result.diagnostics[n].quantization_error,
              diagnostics[n].quantization_error);
    EXPECT_EQ(result.diagnostics[n].discarded_energy,
              diagnostics[n].discarded_energy);
  }
}

TEST(EmulatorTest, MemoizationHitsTheLutAndCountsIt) {
  // A ZigBee frame cycles through 16 chip sequences, so a frame with many
  // symbols must reuse slots: hits + misses == symbols, with plenty of hits.
  sim::telemetry::reset();
  sim::telemetry::set_enabled(true);
  WaveformEmulator emulator;
  const EmulationResult result = emulator.emulate(observed_waveform());
  sim::telemetry::set_enabled(false);
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (const auto& metric : sim::telemetry::collect()) {
    if (metric.stage != "attack") continue;
    if (metric.name == "lut_hits") hits = metric.cell.count;
    if (metric.name == "lut_misses") misses = metric.cell.count;
  }
  sim::telemetry::reset();
  EXPECT_EQ(hits + misses, result.diagnostics.size());
  EXPECT_LT(misses, result.diagnostics.size());
  EXPECT_GT(hits, 0u);
}

TEST(EmulatorTest, SymbolLevelApiValidatesInput) {
  WaveformEmulator emulator;
  const std::vector<std::size_t> bins = {0, 1};
  EXPECT_THROW(emulator.emulate_symbol(cvec(79), bins, 1.0), ContractError);
  EXPECT_THROW(emulator.emulate_symbol(cvec(80), std::vector<std::size_t>{64}, 1.0),
               ContractError);
  EXPECT_THROW(emulator.emulate(cvec{}), ContractError);
}

TEST(EmulatorTest, RejectsBadConfig) {
  EmulatorConfig config;
  config.interpolation = 0;
  EXPECT_THROW(WaveformEmulator{config}, ContractError);
  EmulatorConfig negative_alpha;
  negative_alpha.alpha = -1.0;
  EXPECT_THROW(WaveformEmulator{negative_alpha}, ContractError);
}

}  // namespace
}  // namespace ctc::attack
