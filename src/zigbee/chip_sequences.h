// IEEE 802.15.4 (2450 MHz O-QPSK PHY) symbol-to-chip spreading sequences.
//
// Each 4-bit symbol maps to a 32-chip pseudo-noise sequence. Symbols 1..7
// are the symbol-0 sequence cyclically rotated right by 4 chips per step;
// symbols 8..15 are symbols 0..7 with the odd-indexed chips inverted
// (conjugation of the underlying MSK waveform). This module generates the
// table once and provides Hamming-distance helpers used by the despread
// logic and by the paper's Fig. 7 chip-error analysis.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace ctc::zigbee {

inline constexpr std::size_t kChipsPerSymbol = 32;
inline constexpr std::size_t kNumSymbols = 16;

using ChipSequence = std::array<std::uint8_t, kChipsPerSymbol>;

/// The full 16 x 32 spreading table (row = symbol value).
const std::array<ChipSequence, kNumSymbols>& chip_table();

/// Chips for one data symbol (0..15).
const ChipSequence& chips_for_symbol(std::uint8_t symbol);

/// Hamming distance between a received 32-chip sequence and a table row.
std::size_t hamming_distance(std::span<const std::uint8_t> received,
                             const ChipSequence& reference);

/// A 32-chip sequence packed into one word: bit i holds chip i. The packed
/// forms let the despreader compare a received block against a table row
/// with one XOR + popcount instead of a 32-iteration byte loop.
using PackedChips = std::uint32_t;

/// The spreading table in packed form (row = symbol value).
const std::array<PackedChips, kNumSymbols>& packed_chip_table();

/// Packs a 32-chip sequence (nonzero byte -> 1 bit). Size must be 32.
PackedChips pack_chips(std::span<const std::uint8_t> chips);

/// Hamming distance of two packed sequences: popcount of the XOR. Agrees
/// exactly with hamming_distance() on the byte forms.
std::size_t hamming_distance_packed(PackedChips a, PackedChips b);

}  // namespace ctc::zigbee
