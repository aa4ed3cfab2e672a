#include "wifi/ofdm.h"

#include <gtest/gtest.h>

#include "dsp/require.h"
#include "dsp/rng.h"
#include "dsp/stats.h"

#include "rx_oracle.h"

namespace ctc::wifi {
namespace {

TEST(OfdmLayoutTest, DataSubcarrierIndexesMatchStandard) {
  const auto& indexes = data_subcarrier_indexes();
  ASSERT_EQ(indexes.size(), 48u);
  EXPECT_EQ(indexes.front(), -26);
  EXPECT_EQ(indexes.back(), 26);
  for (int pilot : {-21, -7, 7, 21}) {
    for (int index : indexes) EXPECT_NE(index, pilot);
  }
  for (int index : indexes) EXPECT_NE(index, 0);
  // Ascending, within [-26, 26].
  for (std::size_t i = 1; i < indexes.size(); ++i) {
    EXPECT_LT(indexes[i - 1], indexes[i]);
  }
}

TEST(OfdmLayoutTest, SubcarrierToBinWrapsNegatives) {
  EXPECT_EQ(subcarrier_to_bin(0), 0u);
  EXPECT_EQ(subcarrier_to_bin(1), 1u);
  EXPECT_EQ(subcarrier_to_bin(26), 26u);
  EXPECT_EQ(subcarrier_to_bin(-1), 63u);
  EXPECT_EQ(subcarrier_to_bin(-26), 38u);
  EXPECT_EQ(subcarrier_to_bin(-32), 32u);
  EXPECT_THROW(subcarrier_to_bin(32), ContractError);
  EXPECT_THROW(subcarrier_to_bin(-33), ContractError);
}

TEST(OfdmLayoutTest, PilotPolarityPeriod127) {
  for (std::size_t n = 0; n < 127; ++n) {
    EXPECT_EQ(pilot_polarity(n), pilot_polarity(n + 127));
    EXPECT_TRUE(pilot_polarity(n) == 1.0 || pilot_polarity(n) == -1.0);
  }
  // First values of the standard sequence.
  EXPECT_EQ(pilot_polarity(0), 1.0);
  EXPECT_EQ(pilot_polarity(4), -1.0);
}

TEST(OfdmGridTest, AssembleplacesDataPilotsAndNulls) {
  cvec data(kNumDataSubcarriers);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = {static_cast<double>(i + 1), 0.0};
  }
  const cvec grid = assemble_symbol_grid(data, 0);
  ASSERT_EQ(grid.size(), kNumSubcarriers);
  // DC and the guard band are null.
  EXPECT_EQ(grid[0], (cplx{0.0, 0.0}));
  for (int k = 27; k <= 37; ++k) EXPECT_EQ(grid[k], (cplx{0.0, 0.0})) << k;
  // Pilots at +-7, +-21 with polarity +1 at symbol 0: (1,1,1,-1).
  EXPECT_EQ(grid[subcarrier_to_bin(-21)], (cplx{1.0, 0.0}));
  EXPECT_EQ(grid[subcarrier_to_bin(-7)], (cplx{1.0, 0.0}));
  EXPECT_EQ(grid[subcarrier_to_bin(7)], (cplx{1.0, 0.0}));
  EXPECT_EQ(grid[subcarrier_to_bin(21)], (cplx{-1.0, 0.0}));
  // Data point 0 lands on subcarrier -26.
  EXPECT_EQ(grid[subcarrier_to_bin(-26)], (cplx{1.0, 0.0}));
  EXPECT_EQ(grid[subcarrier_to_bin(26)], (cplx{48.0, 0.0}));
  EXPECT_THROW(assemble_symbol_grid(cvec(47), 0), ContractError);
}

TEST(OfdmTimeTest, CyclicPrefixIsACopyOfTheTail) {
  dsp::Rng rng(110);
  cvec grid(kNumSubcarriers);
  for (auto& x : grid) x = rng.complex_gaussian(1.0);
  const cvec symbol = grid_to_time(grid);
  ASSERT_EQ(symbol.size(), kSymbolLength);
  for (std::size_t i = 0; i < kCyclicPrefixLength; ++i) {
    EXPECT_NEAR(std::abs(symbol[i] - symbol[kNumSubcarriers + i]), 0.0, 1e-12);
  }
}

TEST(OfdmTimeTest, GridTimeRoundTrip) {
  dsp::Rng rng(111);
  cvec grid(kNumSubcarriers);
  for (auto& x : grid) x = rng.complex_gaussian(1.0);
  const cvec recovered = oracle::time_to_grid(grid_to_time(grid));
  for (std::size_t k = 0; k < kNumSubcarriers; ++k) {
    EXPECT_NEAR(std::abs(recovered[k] - grid[k]), 0.0, 1e-9);
  }
  EXPECT_THROW(oracle::time_to_grid(cvec(79)), ContractError);
  EXPECT_THROW(grid_to_time(cvec(63)), ContractError);
}

TEST(PreambleTest, StfIs16SamplePeriodic) {
  const cvec stf = make_stf();
  ASSERT_EQ(stf.size(), 160u);
  for (std::size_t i = 0; i + 16 < stf.size(); ++i) {
    EXPECT_NEAR(std::abs(stf[i] - stf[i + 16]), 0.0, 1e-12);
  }
}

TEST(PreambleTest, LtfRepeatsItsSymbol) {
  const cvec ltf = make_ltf();
  ASSERT_EQ(ltf.size(), 160u);
  // Two identical 64-sample symbols after the 32-sample long CP.
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_NEAR(std::abs(ltf[32 + i] - ltf[96 + i]), 0.0, 1e-12);
  }
  // The long CP is a copy of the symbol tail.
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_NEAR(std::abs(ltf[i] - ltf[64 + i]), 0.0, 1e-12);
  }
}

TEST(PreambleTest, LtfSequenceIsBipolarWithDcNull) {
  const auto& sequence = kLtfSequence;
  EXPECT_EQ(sequence[26], 0.0);  // DC
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    if (i != 26) {
      EXPECT_EQ(std::abs(sequence[i]), 1.0) << i;
    }
  }
}

TEST(PreambleTest, LtfSpectrumMatchesSequence) {
  const cvec ltf = make_ltf();
  const cvec grid = oracle::time_to_grid(std::span<const cplx>(ltf).subspan(16, 80));
  // subspan(16, 80) = [CP' | symbol1]: time_to_grid strips 16, FFTs symbol1's
  // first 64 samples starting at offset 32 of the field = exactly symbol 1.
  for (int k = -26; k <= 26; ++k) {
    const double expected = kLtfSequence[static_cast<std::size_t>(k + 26)];
    EXPECT_NEAR(std::abs(grid[subcarrier_to_bin(k)] - cplx{expected, 0.0}), 0.0,
                1e-9)
        << "k=" << k;
  }
}

}  // namespace
}  // namespace ctc::wifi
