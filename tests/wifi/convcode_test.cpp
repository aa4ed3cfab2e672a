#include "wifi/convcode.h"

#include <gtest/gtest.h>

#include "dsp/require.h"
#include "dsp/rng.h"

#include "rx_oracle.h"

namespace ctc::wifi {
namespace {

bitvec random_bits(std::size_t n, std::uint64_t seed) {
  dsp::Rng rng(seed);
  bitvec bits(n);
  for (auto& b : bits) b = rng.bit();
  return bits;
}

TEST(ConvCodeTest, RateHalfDoublesLength) {
  const bitvec data = random_bits(100, 80);
  EXPECT_EQ(convolutional_encode(data, CodeRate::half).size(), 200u);
}

TEST(ConvCodeTest, PuncturedLengths) {
  const bitvec data = random_bits(96, 81);
  EXPECT_EQ(convolutional_encode(data, CodeRate::two_thirds).size(), 144u);
  EXPECT_EQ(convolutional_encode(data, CodeRate::three_quarters).size(), 128u);
}

TEST(ConvCodeTest, CodedBitsPerDataBit) {
  EXPECT_DOUBLE_EQ(coded_bits_per_data_bit(CodeRate::half), 2.0);
  EXPECT_DOUBLE_EQ(coded_bits_per_data_bit(CodeRate::two_thirds), 1.5);
  EXPECT_NEAR(coded_bits_per_data_bit(CodeRate::three_quarters), 4.0 / 3.0, 1e-12);
}

TEST(ConvCodeTest, KnownImpulseResponse) {
  // A single 1 followed by zeros emits the generator taps:
  // g0 = 133o = 1011011, g1 = 171o = 1111001, interleaved A B A B ...
  bitvec data(7, 0);
  data[0] = 1;
  const bitvec coded = convolutional_encode(data, CodeRate::half);
  const bitvec expected_a = {1, 0, 1, 1, 0, 1, 1};
  const bitvec expected_b = {1, 1, 1, 1, 0, 0, 1};
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(coded[2 * i], expected_a[i]) << "A" << i;
    EXPECT_EQ(coded[2 * i + 1], expected_b[i]) << "B" << i;
  }
}

class ConvRateTest : public ::testing::TestWithParam<CodeRate> {};

TEST_P(ConvRateTest, CleanRoundTrip) {
  for (std::size_t n : {12u, 48u, 96u, 258u}) {
    const bitvec data = random_bits(n, 82 + n);
    const bitvec coded = convolutional_encode(data, GetParam());
    EXPECT_EQ(oracle::viterbi_decode(coded, GetParam()), data) << "n=" << n;
  }
}

TEST_P(ConvRateTest, CorrectsScatteredErrors) {
  const bitvec data = random_bits(200, 83);
  bitvec coded = convolutional_encode(data, GetParam());
  // Flip well-separated coded bits; the K=7 code recovers them all.
  for (std::size_t i = 20; i + 40 < coded.size(); i += 40) coded[i] ^= 1;
  EXPECT_EQ(oracle::viterbi_decode(coded, GetParam()), data);
}

TEST_P(ConvRateTest, BurstBeyondMemoryCausesErrorsOnlyLocally) {
  const bitvec data = random_bits(300, 84);
  bitvec coded = convolutional_encode(data, GetParam());
  for (std::size_t i = 100; i < 120; ++i) coded[i] ^= 1;  // dense burst
  const bitvec decoded = oracle::viterbi_decode(coded, GetParam());
  ASSERT_EQ(decoded.size(), data.size());
  // Head and tail away from the burst must be intact.
  for (std::size_t i = 0; i < 30; ++i) EXPECT_EQ(decoded[i], data[i]);
  for (std::size_t i = 250; i < 300; ++i) EXPECT_EQ(decoded[i], data[i]);
}

INSTANTIATE_TEST_SUITE_P(Rates, ConvRateTest,
                         ::testing::Values(CodeRate::half, CodeRate::two_thirds,
                                           CodeRate::three_quarters));

TEST(ViterbiTest, EmptyInputGivesEmptyOutput) {
  EXPECT_TRUE(oracle::viterbi_decode(bitvec{}, CodeRate::half).empty());
  EXPECT_TRUE(convolutional_encode(bitvec{}, CodeRate::half).empty());
}

TEST(ViterbiTest, MatchesEncoderForSingleBit) {
  for (std::uint8_t bit : {0, 1}) {
    const bitvec data = {bit};
    const bitvec coded = convolutional_encode(data, CodeRate::half);
    EXPECT_EQ(oracle::viterbi_decode(coded, CodeRate::half), data);
  }
}

}  // namespace
}  // namespace ctc::wifi
