#include <gtest/gtest.h>

#include <cmath>

#include "channel/awgn.h"
#include "dsp/rng.h"
#include "wifi/ofdm.h"
#include "wifi/transmitter.h"

#include "rx_oracle.h"

namespace ctc::wifi {
namespace {

bytevec random_psdu(std::size_t n, std::uint64_t seed) {
  dsp::Rng rng(seed);
  bytevec psdu(n);
  for (auto& b : psdu) b = static_cast<std::uint8_t>(rng.next_u64() & 0xFF);
  return psdu;
}

class WifiMcsTest : public ::testing::TestWithParam<Mcs> {};

TEST_P(WifiMcsTest, CleanRoundTrip) {
  WifiTxConfig tx_config;
  tx_config.mcs = GetParam();
  WifiTransmitter tx(tx_config);
  const bytevec psdu = random_psdu(57, 120);
  const cvec wave = tx.transmit(psdu);

  const oracle::ReceiveResult result =
      oracle::receive(wave, psdu.size(), GetParam());
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.psdu, psdu);
}

TEST_P(WifiMcsTest, RoundTripUnderGainAndPhase) {
  WifiTxConfig tx_config;
  tx_config.mcs = GetParam();
  WifiTransmitter tx(tx_config);
  const bytevec psdu = random_psdu(30, 121);
  cvec wave = tx.transmit(psdu);
  const cplx gain = std::polar(0.4, 1.0);
  for (cplx& sample : wave) sample *= gain;

  const oracle::ReceiveResult result =
      oracle::receive(wave, psdu.size(), GetParam());
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.psdu, psdu);  // LTF channel estimation absorbs gain/phase
}

TEST_P(WifiMcsTest, SymbolCountMatchesRateFormula) {
  WifiTxConfig tx_config;
  tx_config.mcs = GetParam();
  WifiTransmitter tx(tx_config);
  const std::size_t psdu_bytes = 100;
  const std::size_t bits = 16 + 8 * psdu_bytes + 6;
  const std::size_t dbps = data_bits_per_symbol(GetParam());
  EXPECT_EQ(tx.num_data_symbols(psdu_bytes), (bits + dbps - 1) / dbps);
  // Waveform length = preamble + symbols * 80.
  const cvec wave = tx.transmit(random_psdu(psdu_bytes, 122));
  EXPECT_EQ(wave.size(), 320 + tx.num_data_symbols(psdu_bytes) * kSymbolLength);
}

INSTANTIATE_TEST_SUITE_P(AllRates, WifiMcsTest,
                         ::testing::Values(Mcs::mbps6, Mcs::mbps9, Mcs::mbps12,
                                           Mcs::mbps18, Mcs::mbps24, Mcs::mbps36,
                                           Mcs::mbps48, Mcs::mbps54));

TEST(WifiRateTableTest, StandardBitCounts) {
  EXPECT_EQ(data_bits_per_symbol(Mcs::mbps6), 24u);
  EXPECT_EQ(data_bits_per_symbol(Mcs::mbps9), 36u);
  EXPECT_EQ(data_bits_per_symbol(Mcs::mbps12), 48u);
  EXPECT_EQ(data_bits_per_symbol(Mcs::mbps18), 72u);
  EXPECT_EQ(data_bits_per_symbol(Mcs::mbps24), 96u);
  EXPECT_EQ(data_bits_per_symbol(Mcs::mbps36), 144u);
  EXPECT_EQ(data_bits_per_symbol(Mcs::mbps48), 192u);
  EXPECT_EQ(data_bits_per_symbol(Mcs::mbps54), 216u);
  EXPECT_EQ(coded_bits_per_symbol(Mcs::mbps54), 288u);
}

TEST(WifiLinkTest, RobustRateSurvivesNoise) {
  WifiTxConfig tx_config;
  tx_config.mcs = Mcs::mbps6;  // BPSK 1/2
  WifiTransmitter tx(tx_config);
  const bytevec psdu = random_psdu(40, 123);
  const cvec wave = tx.transmit(psdu);
  dsp::Rng rng(124);
  int ok = 0;
  for (int trial = 0; trial < 5; ++trial) {
    const cvec noisy = channel::add_awgn(wave, 10.0, rng);
    const auto result = oracle::receive(noisy, psdu.size(), Mcs::mbps6);
    if (result.ok && result.psdu == psdu) ++ok;
  }
  EXPECT_EQ(ok, 5);
}

TEST(WifiLinkTest, TooShortCaptureFlagsFailure) {
  WifiTransmitter tx;
  const bytevec psdu = random_psdu(20, 125);
  cvec wave = tx.transmit(psdu);
  wave.resize(wave.size() - 80);
  const auto result = oracle::receive(wave, psdu.size());
  EXPECT_FALSE(result.ok);
}

TEST(WifiLinkTest, MismatchedScramblerSeedCorruptsPayload) {
  WifiTransmitter tx;  // scrambler seed kScramblerSeed = 0x5D
  const bytevec psdu = random_psdu(20, 126);
  const cvec wave = tx.transmit(psdu);
  const auto result = oracle::receive(wave, psdu.size(), Mcs::mbps54, 0x2B);
  ASSERT_TRUE(result.ok);      // framing is intact...
  EXPECT_NE(result.psdu, psdu);  // ...but the payload is garbled
}

}  // namespace
}  // namespace ctc::wifi
