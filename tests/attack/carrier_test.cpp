#include "attack/carrier_allocation.h"

#include <gtest/gtest.h>

#include <string>

#include "attack/emulator.h"
#include "dsp/require.h"
#include "dsp/stats.h"
#include "wifi/ofdm.h"
#include "zigbee/app.h"
#include "zigbee/receiver.h"
#include "zigbee/transmitter.h"

namespace ctc::attack {
namespace {

// Inverse of allocate_to_wifi_grid (WiFi grid -> ZigBee-centered grid).
cvec extract_from_wifi_grid(std::span<const cplx> wifi_grid,
                            const CarrierPlan& plan) {
  CTC_REQUIRE(wifi_grid.size() == wifi::kNumSubcarriers);
  const int shift = plan.subcarrier_shift();
  const int n = static_cast<int>(wifi::kNumSubcarriers);
  cvec grid(wifi::kNumSubcarriers, cplx{0.0, 0.0});
  for (int bin = 0; bin < n; ++bin) {
    const int source = ((bin + shift) % n + n) % n;
    grid[static_cast<std::size_t>(bin)] = wifi_grid[static_cast<std::size_t>(source)];
  }
  return grid;
}

TEST(CarrierPlanTest, PaperPlanShiftsBySixteenSubcarriers) {
  // ZigBee ch 17 @ 2435 MHz inside WiFi @ 2440 MHz: -5 MHz = -16 bins.
  const CarrierPlan plan;
  EXPECT_EQ(plan.subcarrier_shift(), -16);
  EXPECT_DOUBLE_EQ(plan.offset_hz(), -5.0e6);
}

TEST(CarrierPlanTest, RejectsFractionalShifts) {
  CarrierPlan plan;
  plan.zigbee_center_hz = 2435.1e6;  // 0.32 subcarriers off-grid
  EXPECT_THROW(plan.subcarrier_shift(), ContractError);
}

TEST(CarrierAllocationTest, ZigBeeBinsLandInsidePaperRange) {
  // Occupied ZigBee-centered bins {0..3, 61..63} -> logical subcarriers
  // [-19, -13], inside the paper's [-20, -8] data block.
  const CarrierPlan plan;
  cvec grid(64, cplx{0.0, 0.0});
  for (std::size_t bin : {0u, 1u, 2u, 3u, 61u, 62u, 63u}) grid[bin] = {1.0, 0.0};
  const cvec wifi_grid = allocate_to_wifi_grid(grid, plan);
  std::size_t occupied = 0;
  for (int k = -32; k <= 31; ++k) {
    if (std::abs(wifi_grid[wifi::subcarrier_to_bin(k)]) > 0.0) {
      ++occupied;
      EXPECT_GE(k, -20);
      EXPECT_LE(k, -8);
    }
  }
  EXPECT_EQ(occupied, 7u);
}

TEST(CarrierAllocationTest, ExtractInvertsAllocate) {
  const CarrierPlan plan;
  cvec grid(64, cplx{0.0, 0.0});
  for (std::size_t bin : {0u, 1u, 2u, 3u, 61u, 62u, 63u}) {
    grid[bin] = {static_cast<double>(bin), 1.0};
  }
  const cvec recovered = extract_from_wifi_grid(allocate_to_wifi_grid(grid, plan), plan);
  for (std::size_t k = 0; k < 64; ++k) {
    EXPECT_NEAR(std::abs(recovered[k] - grid[k]), 0.0, 1e-12) << "bin " << k;
  }
}

TEST(CarrierAllocationTest, PilotCollisionThrows) {
  // A plan whose shift drops a ZigBee bin on a pilot must be rejected:
  // shift -14 maps bin 63 (logical -1) onto -15... bin 0 onto -14; try a
  // shift that hits -21: bin 61 (logical -3) with shift -18.
  CarrierPlan plan;
  plan.zigbee_center_hz = 2440.0e6 - 18 * 0.3125e6;
  cvec grid(64, cplx{0.0, 0.0});
  grid[61] = {1.0, 0.0};  // logical -3, lands on -21 (pilot)
  EXPECT_THROW(allocate_to_wifi_grid(grid, plan), ContractError);
}

TEST(CarrierAllocationTest, DcCollisionThrows) {
  CarrierPlan plan;
  plan.zigbee_center_hz = plan.wifi_center_hz;  // shift 0: bin 0 -> DC
  cvec grid(64, cplx{0.0, 0.0});
  grid[0] = {1.0, 0.0};
  EXPECT_THROW(allocate_to_wifi_grid(grid, plan), ContractError);
}

TEST(CarrierAllocationTest, OutOfBandCollisionThrows) {
  CarrierPlan plan;
  plan.zigbee_center_hz = 2440.0e6 - 28 * 0.3125e6;  // shift -28: bin 61 -> -31
  cvec grid(64, cplx{0.0, 0.0});
  grid[61] = {1.0, 0.0};
  EXPECT_THROW(allocate_to_wifi_grid(grid, plan), ContractError);
}

TEST(CarrierAllocationTest, FullRfPathDeliversDecodableFrame) {
  // End-to-end with the real center frequencies: emulate -> allocate onto
  // the WiFi grid -> modulate 20 MHz WiFi baseband -> ZigBee front end
  // (mix +5 MHz, filter, decimate) -> decode.
  zigbee::Transmitter tx;
  const zigbee::MacFrame frame = zigbee::make_text_frame(5, 1);
  const cvec observed = tx.transmit_frame(frame);

  WaveformEmulator emulator;
  const EmulationResult emulation = emulator.emulate(observed);

  const CarrierPlan plan;
  cvec wifi_baseband;
  for (const cvec& grid : emulation.symbol_grids) {
    const cvec wifi_grid = allocate_to_wifi_grid(grid, plan);
    const cvec symbol = wifi::grid_to_time(wifi_grid);
    wifi_baseband.insert(wifi_baseband.end(), symbol.begin(), symbol.end());
  }

  cvec zigbee_baseband = wifi_band_to_zigbee_baseband(wifi_baseband, plan);
  zigbee_baseband.resize(observed.size());
  const auto rx = zigbee::Receiver().receive(zigbee_baseband);
  ASSERT_TRUE(rx.frame_ok());
  EXPECT_EQ(std::string(rx.mac->payload.begin(), rx.mac->payload.end()), "00005");
}

TEST(CarrierAllocationTest, FrontEndRejectsSizeMismatch) {
  const CarrierPlan plan;
  EXPECT_THROW(allocate_to_wifi_grid(cvec(63), plan), ContractError);
}

}  // namespace
}  // namespace ctc::attack
