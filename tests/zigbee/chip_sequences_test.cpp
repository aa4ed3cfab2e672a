#include "zigbee/chip_sequences.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "dsp/require.h"

namespace ctc::zigbee {
namespace {

// Minimum pairwise Hamming distance over all distinct table rows, the
// bound on DSSS error resilience.
std::size_t min_pairwise_distance() {
  const auto& table = chip_table();
  std::size_t best = kChipsPerSymbol;
  for (std::size_t a = 0; a < kNumSymbols; ++a) {
    for (std::size_t b = a + 1; b < kNumSymbols; ++b) {
      best = std::min(best, hamming_distance(table[a], table[b]));
    }
  }
  return best;
}

TEST(ChipSequencesTest, Symbol0MatchesStandard) {
  // IEEE 802.15.4-2015 Table 10-14, data symbol 0.
  const ChipSequence expected = {1, 1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 0, 0, 0, 1, 1,
                                 0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 1, 0};
  EXPECT_EQ(chips_for_symbol(0), expected);
}

TEST(ChipSequencesTest, Symbol1IsSymbol0RotatedRightByFour) {
  const ChipSequence& s0 = chips_for_symbol(0);
  const ChipSequence& s1 = chips_for_symbol(1);
  for (std::size_t i = 0; i < kChipsPerSymbol; ++i) {
    EXPECT_EQ(s1[(i + 4) % kChipsPerSymbol], s0[i]);
  }
}

TEST(ChipSequencesTest, RotationPropertyHoldsForAllLowSymbols) {
  const ChipSequence& s0 = chips_for_symbol(0);
  for (std::uint8_t s = 0; s < 8; ++s) {
    const ChipSequence& seq = chips_for_symbol(s);
    for (std::size_t i = 0; i < kChipsPerSymbol; ++i) {
      EXPECT_EQ(seq[(i + 4 * s) % kChipsPerSymbol], s0[i]) << "symbol " << int(s);
    }
  }
}

TEST(ChipSequencesTest, HighSymbolsInvertOddChips) {
  for (std::uint8_t s = 8; s < 16; ++s) {
    const ChipSequence& low = chips_for_symbol(s - 8);
    const ChipSequence& high = chips_for_symbol(s);
    for (std::size_t i = 0; i < kChipsPerSymbol; ++i) {
      if (i % 2 == 1) {
        EXPECT_NE(high[i], low[i]);
      } else {
        EXPECT_EQ(high[i], low[i]);
      }
    }
  }
}

TEST(ChipSequencesTest, Symbol8MatchesStandard) {
  const ChipSequence expected = {1, 0, 0, 0, 1, 1, 0, 0, 1, 0, 0, 1, 0, 1, 1, 0,
                                 0, 0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1, 1, 0, 1, 1};
  EXPECT_EQ(chips_for_symbol(8), expected);
}

TEST(ChipSequencesTest, AllSequencesDistinct) {
  std::set<ChipSequence> seen(chip_table().begin(), chip_table().end());
  EXPECT_EQ(seen.size(), kNumSymbols);
}

TEST(ChipSequencesTest, BalancedChipCounts) {
  // Every sequence has 16 ones and 16 zeros (PN balance).
  for (const auto& sequence : chip_table()) {
    std::size_t ones = 0;
    for (std::uint8_t c : sequence) ones += c;
    EXPECT_EQ(ones, kChipsPerSymbol / 2);
  }
}

TEST(ChipSequencesTest, MinPairwiseDistanceGivesErrorResilience) {
  // The DSSS correlation margin the attack exploits: sequences are far
  // apart, so a threshold of ~10 chip errors still decodes uniquely.
  const std::size_t d = min_pairwise_distance();
  EXPECT_GE(d, 12u);
  EXPECT_LE(d, 20u);
}

TEST(ChipSequencesTest, HammingDistanceBasics) {
  const ChipSequence& s0 = chips_for_symbol(0);
  EXPECT_EQ(hamming_distance(s0, s0), 0u);
  std::vector<std::uint8_t> flipped(s0.begin(), s0.end());
  flipped[0] ^= 1;
  flipped[31] ^= 1;
  EXPECT_EQ(hamming_distance(flipped, s0), 2u);
  EXPECT_THROW(hamming_distance(std::vector<std::uint8_t>(31), s0), ContractError);
}

TEST(ChipSequencesTest, RejectsOutOfRangeSymbol) {
  EXPECT_THROW(chips_for_symbol(16), ContractError);
}

}  // namespace
}  // namespace ctc::zigbee
