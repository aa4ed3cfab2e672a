#include "wifi/ofdm.h"

#include <cmath>

#include "dsp/fft.h"
#include "dsp/require.h"

namespace ctc::wifi {

namespace {

std::array<int, kNumDataSubcarriers> build_data_indexes() {
  std::array<int, kNumDataSubcarriers> indexes{};
  std::size_t n = 0;
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) continue;                                   // DC null
    if (k == -21 || k == -7 || k == 7 || k == 21) continue;  // pilots
    indexes[n++] = k;
  }
  return indexes;
}

// Pilot polarity sequence p_0..p_126 (Clause 17.3.5.10).
constexpr std::array<std::int8_t, 127> kPilotPolarity = {
    1,  1,  1,  1,  -1, -1, -1, 1,  -1, -1, -1, -1, 1,  1,  -1, 1,
    -1, -1, 1,  1,  -1, 1,  1,  -1, 1,  1,  1,  1,  1,  1,  -1, 1,
    1,  1,  -1, 1,  1,  -1, -1, 1,  1,  1,  -1, 1,  -1, -1, -1, 1,
    -1, 1,  -1, -1, 1,  -1, -1, 1,  1,  1,  1,  1,  -1, -1, 1,  1,
    -1, -1, 1,  -1, 1,  -1, 1,  1,  -1, -1, -1, 1,  1,  -1, -1, -1,
    -1, 1,  -1, -1, 1,  -1, 1,  1,  1,  1,  -1, 1,  -1, 1,  -1, 1,
    -1, -1, -1, -1, -1, 1,  -1, 1,  1,  -1, 1,  -1, 1,  1,  1,  -1,
    -1, 1,  -1, -1, -1, 1,  1,  1,  -1, -1, -1, -1, -1, -1, -1};

}  // namespace

const std::array<int, kNumDataSubcarriers>& data_subcarrier_indexes() {
  static const auto indexes = build_data_indexes();
  return indexes;
}

const std::array<int, 4>& pilot_subcarrier_indexes() {
  static const std::array<int, 4> indexes = {-21, -7, 7, 21};
  return indexes;
}

double pilot_polarity(std::size_t symbol_index) {
  return static_cast<double>(kPilotPolarity[symbol_index % kPilotPolarity.size()]);
}

std::size_t subcarrier_to_bin(int index) {
  CTC_REQUIRE(index >= -32 && index <= 31);
  return static_cast<std::size_t>((index + static_cast<int>(kNumSubcarriers)) %
                                  static_cast<int>(kNumSubcarriers));
}

cvec assemble_symbol_grid(std::span<const cplx> data_points,
                          std::size_t symbol_index) {
  CTC_REQUIRE(data_points.size() == kNumDataSubcarriers);
  cvec grid(kNumSubcarriers, cplx{0.0, 0.0});
  const auto& data_indexes = data_subcarrier_indexes();
  for (std::size_t n = 0; n < kNumDataSubcarriers; ++n) {
    grid[subcarrier_to_bin(data_indexes[n])] = data_points[n];
  }
  const double polarity = pilot_polarity(symbol_index);
  const auto& pilots = pilot_subcarrier_indexes();
  grid[subcarrier_to_bin(pilots[0])] = polarity;
  grid[subcarrier_to_bin(pilots[1])] = polarity;
  grid[subcarrier_to_bin(pilots[2])] = polarity;
  grid[subcarrier_to_bin(pilots[3])] = -polarity;
  return grid;
}

cvec grid_to_time(std::span<const cplx> grid) {
  CTC_REQUIRE(grid.size() == kNumSubcarriers);
  static const dsp::FftPlan plan(kNumSubcarriers);
  // Thread-local IFFT scratch: symbol assembly runs once per OFDM symbol in
  // the emulation hot path, and the intermediate buffer dominated its
  // allocations.
  thread_local cvec useful;
  plan.inverse_into(useful, grid);
  cvec symbol;
  symbol.reserve(kSymbolLength);
  symbol.insert(symbol.end(), useful.end() - kCyclicPrefixLength, useful.end());
  symbol.insert(symbol.end(), useful.begin(), useful.end());
  return symbol;
}

cvec make_stf() {
  // Nonzero short-training subcarriers.
  const double amp = std::sqrt(13.0 / 6.0);
  const cplx plus{amp, amp};
  const cplx minus{-amp, -amp};
  cvec grid(kNumSubcarriers, cplx{0.0, 0.0});
  const std::array<std::pair<int, cplx>, 12> entries = {{
      {-24, plus}, {-20, minus}, {-16, plus}, {-12, minus}, {-8, minus},
      {-4, plus}, {4, minus}, {8, minus}, {12, plus}, {16, plus},
      {20, plus}, {24, plus},
  }};
  for (const auto& [index, value] : entries) grid[subcarrier_to_bin(index)] = value;
  static const dsp::FftPlan plan(kNumSubcarriers);
  const cvec period = plan.inverse(grid);  // 16-periodic in time
  cvec stf;
  stf.reserve(160);
  for (std::size_t i = 0; i < 160; ++i) stf.push_back(period[i % kNumSubcarriers]);
  return stf;
}

cvec make_ltf() {
  cvec grid(kNumSubcarriers, cplx{0.0, 0.0});
  for (int k = -26; k <= 26; ++k) {
    grid[subcarrier_to_bin(k)] = kLtfSequence[static_cast<std::size_t>(k + 26)];
  }
  static const dsp::FftPlan plan(kNumSubcarriers);
  const cvec symbol = plan.inverse(grid);
  cvec ltf;
  ltf.reserve(160);
  ltf.insert(ltf.end(), symbol.end() - 32, symbol.end());  // double-length CP
  ltf.insert(ltf.end(), symbol.begin(), symbol.end());
  ltf.insert(ltf.end(), symbol.begin(), symbol.end());
  return ltf;
}

}  // namespace ctc::wifi
