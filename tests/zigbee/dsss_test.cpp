#include "zigbee/dsss.h"

#include <gtest/gtest.h>

#include "dsp/require.h"
#include "dsp/rng.h"

namespace ctc::zigbee {
namespace {

TEST(DsssTest, SpreadLengthAndContent) {
  const std::vector<std::uint8_t> symbols = {0, 5, 15};
  const auto chips = spread(symbols);
  ASSERT_EQ(chips.size(), 3 * kChipsPerSymbol);
  for (std::size_t s = 0; s < symbols.size(); ++s) {
    const ChipSequence& expected = chips_for_symbol(symbols[s]);
    for (std::size_t i = 0; i < kChipsPerSymbol; ++i) {
      EXPECT_EQ(chips[s * kChipsPerSymbol + i], expected[i]);
    }
  }
}

class DsssSymbolTest : public ::testing::TestWithParam<int> {};

TEST_P(DsssSymbolTest, CleanRoundTrip) {
  const auto symbol = static_cast<std::uint8_t>(GetParam());
  const auto chips = spread(std::vector<std::uint8_t>{symbol});
  const DespreadResult result = despread_block(chips, 10);
  EXPECT_TRUE(result.accepted);
  EXPECT_EQ(result.symbol, symbol);
  EXPECT_EQ(result.distance, 0u);
}

TEST_P(DsssSymbolTest, ToleratesErrorsUpToMargin) {
  // Flip 6 chips: still decodes to the right symbol (min pairwise distance
  // is large enough that 6 errors keep the true row closest).
  const auto symbol = static_cast<std::uint8_t>(GetParam());
  auto chips = spread(std::vector<std::uint8_t>{symbol});
  dsp::Rng rng(40 + GetParam());
  for (int e = 0; e < 6; ++e) chips[rng.uniform_index(kChipsPerSymbol)] ^= 1;
  const DespreadResult result = despread_block(chips, 10);
  EXPECT_EQ(result.symbol, symbol);
  EXPECT_LE(result.distance, 6u);
}

INSTANTIATE_TEST_SUITE_P(AllSymbols, DsssSymbolTest, ::testing::Range(0, 16));

TEST(DsssTest, RejectsBeyondThreshold) {
  auto chips = spread(std::vector<std::uint8_t>{3});
  // Flip the first 12 chips -> distance > 10 from every row.
  for (std::size_t i = 0; i < 12; ++i) chips[i] ^= 1;
  const DespreadResult strict = despread_block(chips, 10);
  // Whatever the nearest row is, its distance must exceed a tight threshold.
  const DespreadResult loose = despread_block(chips, kChipsPerSymbol);
  EXPECT_TRUE(loose.accepted);
  EXPECT_EQ(strict.accepted, strict.distance <= 10);
  EXPECT_GT(loose.distance, 6u);
}

TEST(DsssTest, StreamDespreadsPerBlock) {
  const std::vector<std::uint8_t> symbols = {7, 10, 0, 15, 1};
  const auto chips = spread(symbols);
  const auto results = despread(chips, 10);
  ASSERT_EQ(results.size(), symbols.size());
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    EXPECT_TRUE(results[i].accepted);
    EXPECT_EQ(results[i].symbol, symbols[i]);
  }
}

TEST(DsssTest, StreamRejectsPartialBlocks) {
  std::vector<std::uint8_t> chips(33, 0);
  EXPECT_THROW(despread(chips, 10), ContractError);
  EXPECT_THROW(despread_block(std::vector<std::uint8_t>(16), 10), ContractError);
}

// --- differential (discriminator-domain) despreading ---

rvec differential_of(std::span<const std::uint8_t> chips, std::uint8_t previous) {
  // f_i = s_i * (2 c_{i-1} - 1)(2 c_i - 1), s_i = +1 odd / -1 even.
  rvec f(chips.size());
  for (std::size_t i = 0; i < chips.size(); ++i) {
    const int prev = (i == 0) ? (2 * previous - 1) : (2 * chips[i - 1] - 1);
    const int sign = (i % 2 == 1) ? 1 : -1;
    f[i] = sign * prev * (2 * chips[i] - 1);
  }
  return f;
}

class DifferentialSymbolTest : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialSymbolTest, CleanRoundTripWithKnownBoundary) {
  const auto symbol = static_cast<std::uint8_t>(GetParam());
  const auto chips = spread(std::vector<std::uint8_t>{symbol});
  for (std::uint8_t previous : {0, 1}) {
    const rvec f = differential_of(chips, previous);
    const DespreadResult result = despread_differential(f, 10, previous)[0];
    EXPECT_TRUE(result.accepted);
    EXPECT_EQ(result.symbol, symbol) << "previous=" << int(previous);
    EXPECT_EQ(result.distance, 0u);
  }
}

TEST_P(DifferentialSymbolTest, UnknownBoundarySkipsFirstChip) {
  const auto symbol = static_cast<std::uint8_t>(GetParam());
  const auto chips = spread(std::vector<std::uint8_t>{symbol});
  const rvec f = differential_of(chips, 0);
  const DespreadResult result = despread_differential(f, 10)[0];
  EXPECT_TRUE(result.accepted);
  EXPECT_EQ(result.symbol, symbol);
}

INSTANTIATE_TEST_SUITE_P(AllSymbols, DifferentialSymbolTest, ::testing::Range(0, 16));

TEST(DifferentialTest, StreamCarriesBoundaryAcrossSymbols) {
  const std::vector<std::uint8_t> symbols = {0, 9, 4, 15, 2, 7};
  const auto chips = spread(symbols);
  const rvec f = differential_of(chips, 0);  // boundary value irrelevant: skipped
  const auto results = despread_differential(f, 10);
  ASSERT_EQ(results.size(), symbols.size());
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    EXPECT_EQ(results[i].symbol, symbols[i]) << "i=" << i;
    EXPECT_TRUE(results[i].accepted);
    EXPECT_EQ(results[i].distance, 0u);
  }
}

TEST(DifferentialTest, SingleChipErrorCostsTwoInDifferentialDomain) {
  const std::vector<std::uint8_t> symbols = {5, 5};
  auto chips = spread(symbols);
  chips[40] ^= 1;  // interior chip of the second symbol
  const rvec f = differential_of(chips, 0);
  const auto results = despread_differential(f, 10);
  EXPECT_EQ(results[1].symbol, 5);
  EXPECT_EQ(results[1].distance, 2u);  // flips two adjacent transitions
}

TEST(DifferentialTest, RejectsPartialBlocks) {
  EXPECT_THROW(despread_differential(rvec(31, 1.0), 10), ContractError);
  EXPECT_THROW(despread_differential(rvec(33, 1.0), 10), ContractError);
}

}  // namespace
}  // namespace ctc::zigbee
