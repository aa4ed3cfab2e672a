#include "zigbee/chip_sequences.h"

#include <algorithm>
#include <bit>

#include "dsp/require.h"

namespace ctc::zigbee {

namespace {

// Symbol-0 sequence, chips c0..c31 (IEEE 802.15.4-2015 Table 10-14).
constexpr ChipSequence kSymbol0 = {
    1, 1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 0, 0, 0, 1, 1,
    0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 1, 0};

ChipSequence rotate_right(const ChipSequence& sequence, std::size_t amount) {
  ChipSequence out{};
  for (std::size_t i = 0; i < kChipsPerSymbol; ++i) {
    out[(i + amount) % kChipsPerSymbol] = sequence[i];
  }
  return out;
}

ChipSequence invert_odd_chips(const ChipSequence& sequence) {
  ChipSequence out = sequence;
  for (std::size_t i = 1; i < kChipsPerSymbol; i += 2) out[i] ^= 1;
  return out;
}

std::array<ChipSequence, kNumSymbols> build_table() {
  std::array<ChipSequence, kNumSymbols> table{};
  for (std::size_t s = 0; s < 8; ++s) table[s] = rotate_right(kSymbol0, 4 * s);
  for (std::size_t s = 8; s < 16; ++s) table[s] = invert_odd_chips(table[s - 8]);
  return table;
}

}  // namespace

const std::array<ChipSequence, kNumSymbols>& chip_table() {
  static const std::array<ChipSequence, kNumSymbols> table = build_table();
  return table;
}

const ChipSequence& chips_for_symbol(std::uint8_t symbol) {
  CTC_REQUIRE(symbol < kNumSymbols);
  return chip_table()[symbol];
}

const std::array<PackedChips, kNumSymbols>& packed_chip_table() {
  static const std::array<PackedChips, kNumSymbols> table = [] {
    std::array<PackedChips, kNumSymbols> packed{};
    const auto& rows = chip_table();
    for (std::size_t s = 0; s < kNumSymbols; ++s) {
      packed[s] = pack_chips(rows[s]);
    }
    return packed;
  }();
  return table;
}

PackedChips pack_chips(std::span<const std::uint8_t> chips) {
  CTC_REQUIRE(chips.size() == kChipsPerSymbol);
  PackedChips packed = 0;
  for (std::size_t i = 0; i < kChipsPerSymbol; ++i) {
    // Branchless so the pack loop pipelines; chip values are 0/1 but any
    // nonzero byte counts as a 1 chip, matching hamming_distance().
    packed |= static_cast<PackedChips>(chips[i] != 0) << i;
  }
  return packed;
}

std::size_t hamming_distance_packed(PackedChips a, PackedChips b) {
  return static_cast<std::size_t>(std::popcount(a ^ b));
}

std::size_t hamming_distance(std::span<const std::uint8_t> received,
                             const ChipSequence& reference) {
  CTC_REQUIRE(received.size() == kChipsPerSymbol);
  std::size_t distance = 0;
  for (std::size_t i = 0; i < kChipsPerSymbol; ++i) {
    if ((received[i] != 0) != (reference[i] != 0)) ++distance;
  }
  return distance;
}

}  // namespace ctc::zigbee
