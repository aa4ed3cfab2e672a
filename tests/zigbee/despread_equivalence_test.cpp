// Equivalence suite for the bit-packed popcount despreading fast paths.
//
// Each fast path and its per-chip reference are integer pipelines with the
// same tie-break order (lowest symbol index wins), so the contract is
// exact: symbol, distance and accepted must match the reference
// bit-for-bit for every input.
#include "zigbee/dsss.h"

#include <gtest/gtest.h>

#include "dsp/require.h"
#include "dsp/rng.h"
#include "zigbee/chip_sequences.h"

namespace ctc::zigbee {
namespace {

std::vector<std::uint8_t> chips_with_errors(std::uint8_t symbol,
                                            std::span<const std::size_t> flips) {
  const ChipSequence& sequence = chips_for_symbol(symbol);
  std::vector<std::uint8_t> chips(sequence.begin(), sequence.end());
  for (std::size_t flip : flips) chips[flip] ^= 1;
  return chips;
}

// Per-chip differential matcher of one 32-chip block, the oracle for
// despread_differential's packed chain. `previous_chip` < 2 is the last
// chip of the preceding symbol; 2 excludes chip 0 from the distance.
DespreadResult despread_differential_block_reference(
    std::span<const double> freq_chips, std::uint8_t previous_chip,
    std::size_t threshold) {
  CTC_REQUIRE(freq_chips.size() == kChipsPerSymbol);
  DespreadResult result;
  std::size_t best = kChipsPerSymbol + 1;
  const auto& table = chip_table();
  for (std::size_t s = 0; s < kNumSymbols; ++s) {
    const ChipSequence& q = table[s];
    std::size_t distance = 0;
    for (std::size_t j = 0; j < kChipsPerSymbol; ++j) {
      const int sign_j = (j % 2 == 1) ? 1 : -1;
      int predicted;
      if (j == 0) {
        if (previous_chip > 1) continue;  // no predecessor: skip chip 0
        predicted = sign_j * (2 * previous_chip - 1) * (2 * q[0] - 1);
      } else {
        predicted = sign_j * (2 * q[j - 1] - 1) * (2 * q[j] - 1);
      }
      const int observed = freq_chips[j] > 0.0 ? 1 : -1;
      if (observed != predicted) ++distance;
    }
    if (distance < best) {
      best = distance;
      result.symbol = static_cast<std::uint8_t>(s);
    }
  }
  result.distance = best;
  result.accepted = best <= threshold;
  return result;
}

TEST(DespreadEquivalenceTest, PackedTableMatchesByteTable) {
  const auto& packed = packed_chip_table();
  const auto& bytes = chip_table();
  for (std::size_t s = 0; s < kNumSymbols; ++s) {
    EXPECT_EQ(packed[s], pack_chips(bytes[s])) << "symbol " << s;
  }
}

TEST(DespreadEquivalenceTest, PackedHammingMatchesByteHamming) {
  dsp::Rng rng(31);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> chips(kChipsPerSymbol);
    for (auto& c : chips) c = rng.uniform(0.0, 1.0) < 0.5 ? 0 : 1;
    const PackedChips packed = pack_chips(chips);
    for (std::size_t s = 0; s < kNumSymbols; ++s) {
      EXPECT_EQ(hamming_distance_packed(packed, packed_chip_table()[s]),
                hamming_distance(chips, chip_table()[s]));
    }
  }
}

TEST(DespreadEquivalenceTest, BlockMatchesReferenceAcrossErrorPatterns) {
  // Every symbol x chip-error patterns from clean to past-threshold: the
  // packed result must be byte-identical to the reference, including the
  // accepted flag at the threshold boundary.
  const std::vector<std::vector<std::size_t>> patterns = {
      {},                                        // clean
      {0},                                       // single head error
      {31},                                      // single tail error
      {0, 31},                                   // both ends
      {1, 3, 5, 7, 9},                           // 5 scattered
      {0, 4, 8, 12, 16, 20, 24, 28},             // 8 periodic
      {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10},        // 11 — past threshold 10
      {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},  // 16: ambiguous
  };
  for (std::uint8_t symbol = 0; symbol < kNumSymbols; ++symbol) {
    for (const auto& pattern : patterns) {
      const auto chips = chips_with_errors(symbol, pattern);
      for (std::size_t threshold : {0u, 5u, 10u, 32u}) {
        const DespreadResult fast = despread_block(chips, threshold);
        const DespreadResult reference =
            despread_block_reference(chips, threshold);
        EXPECT_EQ(fast.symbol, reference.symbol)
            << "symbol " << int(symbol) << " errors " << pattern.size();
        EXPECT_EQ(fast.distance, reference.distance);
        EXPECT_EQ(fast.accepted, reference.accepted);
      }
    }
  }
}

TEST(DespreadEquivalenceTest, BlockMatchesReferenceOnRandomChips) {
  // Uniform random chips exercise the tie-break order hard: many symbols
  // land at equal distance and both paths must pick the same one.
  dsp::Rng rng(32);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<std::uint8_t> chips(kChipsPerSymbol);
    for (auto& c : chips) c = rng.uniform(0.0, 1.0) < 0.5 ? 0 : 1;
    const DespreadResult fast = despread_block(chips, 10);
    const DespreadResult reference = despread_block_reference(chips, 10);
    EXPECT_EQ(fast.symbol, reference.symbol) << "trial " << trial;
    EXPECT_EQ(fast.distance, reference.distance);
    EXPECT_EQ(fast.accepted, reference.accepted);
  }
}

TEST(DespreadEquivalenceTest, DifferentialBlockMatchesReference) {
  // All symbols x previous-chip contexts (0, 1, and "no predecessor"),
  // random frequency values with sign errors sprinkled in.
  dsp::Rng rng(33);
  for (int trial = 0; trial < 300; ++trial) {
    rvec freq(kChipsPerSymbol);
    for (auto& f : freq) {
      f = rng.uniform(-1.0, 1.0);
      if (rng.uniform(0.0, 1.0) < 0.05) f = 0.0;  // exact-zero edge case
    }
    for (std::uint8_t previous : {std::uint8_t{0}, std::uint8_t{1},
                                  std::uint8_t{2}}) {
      const DespreadResult fast = despread_differential(freq, 9, previous)[0];
      const DespreadResult reference =
          despread_differential_block_reference(freq, previous, 9);
      EXPECT_EQ(fast.symbol, reference.symbol)
          << "trial " << trial << " previous " << int(previous);
      EXPECT_EQ(fast.distance, reference.distance);
      EXPECT_EQ(fast.accepted, reference.accepted);
    }
  }
}

TEST(DespreadEquivalenceTest, StreamDecodesCleanSpreadFrames) {
  // End-to-end sanity on the public APIs: a spread symbol stream decodes
  // back exactly, and the differential stream API stays self-consistent.
  std::vector<std::uint8_t> symbols;
  for (std::uint8_t s = 0; s < kNumSymbols; ++s) symbols.push_back(s);
  const auto chips = spread(symbols);
  const auto results = despread(chips, 0);
  ASSERT_EQ(results.size(), symbols.size());
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    EXPECT_TRUE(results[i].accepted);
    EXPECT_EQ(results[i].symbol, symbols[i]);
    EXPECT_EQ(results[i].distance, 0u);
  }
}

}  // namespace
}  // namespace ctc::zigbee
