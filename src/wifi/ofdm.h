// 802.11a/g OFDM symbol assembly (Clause 17.3.5.9-10).
//
// 64 subcarriers over 20 MHz (0.3125 MHz spacing): 48 data subcarriers at
// logical indexes [-26,-22], [-20,-8], [-6,-1], [1,6], [8,20], [22,26];
// pilots at -21, -7, 7, 21 (values 1,1,1,-1 times the per-symbol polarity
// sequence); DC and the outer band are null. 64-point IFFT produces the
// 3.2 us useful part; the last 0.8 us (16 samples) is prepended as the
// cyclic prefix for an 80-sample / 4 us symbol — the structure the paper's
// attacker must respect and the defense hunts for (Sec. V-A1).
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "dsp/types.h"

namespace ctc::wifi {

inline constexpr std::size_t kNumSubcarriers = 64;
inline constexpr std::size_t kNumDataSubcarriers = 48;
inline constexpr std::size_t kCyclicPrefixLength = 16;
inline constexpr std::size_t kSymbolLength = kNumSubcarriers + kCyclicPrefixLength;

/// Logical subcarrier indexes (-26..26) of the 48 data subcarriers,
/// ascending.
const std::array<int, kNumDataSubcarriers>& data_subcarrier_indexes();

/// Pilot subcarrier indexes {-21, -7, 7, 21}.
const std::array<int, 4>& pilot_subcarrier_indexes();

/// Pilot polarity p_n (127-periodic sequence of Clause 17.3.5.10).
double pilot_polarity(std::size_t symbol_index);

/// Converts a logical subcarrier index (-32..31) to its IFFT bin (0..63).
std::size_t subcarrier_to_bin(int index);

/// Builds the 64-bin frequency grid for one data symbol: 48 data points into
/// the data bins, pilots with polarity for `symbol_index`, zeros elsewhere.
cvec assemble_symbol_grid(std::span<const cplx> data_points,
                          std::size_t symbol_index);

/// IFFT + cyclic prefix: frequency grid (64 bins, bin k = subcarrier k mod
/// 64) -> 80 time-domain samples.
cvec grid_to_time(std::span<const cplx> grid);

/// Legacy preamble: 10 short training repetitions (8 us, 160 samples).
cvec make_stf();

/// Legacy long training field: CP(2x) + two LTF symbols (8 us, 160 samples).
cvec make_ltf();

/// The frequency-domain long training sequence on subcarriers -26..26
/// (DC in the middle).
inline constexpr std::array<double, 53> kLtfSequence = {
    1, 1, -1, -1, 1, 1, -1, 1, -1, 1, 1, 1, 1, 1, 1, -1, -1, 1, 1, -1, 1, -1,
    1, 1, 1, 1, 0, 1, -1, -1, 1, 1, -1, 1, -1, 1, -1, -1, -1, -1, -1, 1, 1,
    -1, -1, 1, -1, 1, -1, 1, 1, 1, 1};

}  // namespace ctc::wifi
