#include <gtest/gtest.h>

#include "channel/awgn.h"
#include "channel/impairments.h"
#include "dsp/require.h"
#include "dsp/rng.h"
#include "wifi/ofdm.h"
#include "wifi/receiver.h"
#include "wifi/signal_field.h"
#include "wifi/sync.h"
#include "wifi/transmitter.h"

namespace ctc::wifi {
namespace {

bytevec random_psdu(std::size_t n, std::uint64_t seed) {
  dsp::Rng rng(seed);
  bytevec psdu(n);
  for (auto& b : psdu) b = static_cast<std::uint8_t>(rng.next_u64() & 0xFF);
  return psdu;
}

class SignalFieldMcsTest : public ::testing::TestWithParam<Mcs> {};

TEST_P(SignalFieldMcsTest, BitRoundTrip) {
  SignalField field;
  field.mcs = GetParam();
  field.length_bytes = 1234;
  const auto decoded = decode_signal_bits(encode_signal_bits(field));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->mcs, GetParam());
  EXPECT_EQ(decoded->length_bytes, 1234u);
}

TEST_P(SignalFieldMcsTest, SymbolRoundTrip) {
  SignalField field;
  field.mcs = GetParam();
  field.length_bytes = 77;
  const cvec symbol = modulate_signal_symbol(field);
  ASSERT_EQ(symbol.size(), kSymbolLength);
  const cvec grid = time_to_grid(symbol);
  const auto decoded = demodulate_signal_grid(grid);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->mcs, GetParam());
  EXPECT_EQ(decoded->length_bytes, 77u);
}

INSTANTIATE_TEST_SUITE_P(AllRates, SignalFieldMcsTest,
                         ::testing::Values(Mcs::mbps6, Mcs::mbps9, Mcs::mbps12,
                                           Mcs::mbps18, Mcs::mbps24, Mcs::mbps36,
                                           Mcs::mbps48, Mcs::mbps54));

TEST(SignalFieldTest, RateCodesMatchStandardTable) {
  EXPECT_EQ(rate_code(Mcs::mbps6), 0b1101);
  EXPECT_EQ(rate_code(Mcs::mbps54), 0b0011);
  EXPECT_EQ(mcs_from_rate_code(0b1101), Mcs::mbps6);
  EXPECT_FALSE(mcs_from_rate_code(0b0000).has_value());
}

TEST(SignalFieldTest, ParityAndReservedChecks) {
  SignalField field;
  field.length_bytes = 100;
  bitvec bits = encode_signal_bits(field);
  bits[17] ^= 1;  // break parity
  EXPECT_FALSE(decode_signal_bits(bits).has_value());
  bits[17] ^= 1;
  bits[4] = 1;  // reserved bit must be 0 (also breaks parity; set another)
  bits[17] ^= 1;
  EXPECT_FALSE(decode_signal_bits(bits).has_value());
}

TEST(SignalFieldTest, RejectsDegenerateLengths) {
  SignalField field;
  field.length_bytes = 0;
  EXPECT_THROW(encode_signal_bits(field), ContractError);
  field.length_bytes = 4096;
  EXPECT_THROW(encode_signal_bits(field), ContractError);
}

TEST(WifiSyncTest, FindsFrameStartInPaddedCapture) {
  WifiTxConfig tx_config;
  tx_config.include_signal_field = true;
  WifiTransmitter tx(tx_config);
  const bytevec psdu = random_psdu(40, 240);
  const cvec frame = tx.transmit(psdu);
  dsp::Rng rng(241);
  for (std::size_t pad : {0u, 100u, 333u}) {
    cvec capture(pad);
    for (auto& x : capture) x = rng.complex_gaussian(1e-4);
    capture.insert(capture.end(), frame.begin(), frame.end());
    const auto sync = synchronize_wifi(capture);
    ASSERT_TRUE(sync.has_value()) << "pad=" << pad;
    EXPECT_EQ(sync->frame_start, pad) << "pad=" << pad;
    EXPECT_NEAR(sync->cfo_hz, 0.0, 500.0);
  }
}

TEST(WifiSyncTest, EstimatesCfoAccurately) {
  WifiTxConfig tx_config;
  tx_config.include_signal_field = true;
  WifiTransmitter tx(tx_config);
  const cvec frame = tx.transmit(random_psdu(30, 242));
  for (double cfo : {-80e3, -5e3, 12e3, 150e3}) {
    cvec offset_frame = frame;
    channel::apply_cfo_inplace(offset_frame, cfo, 20.0e6);
    const auto sync = synchronize_wifi(offset_frame);
    ASSERT_TRUE(sync.has_value()) << "cfo=" << cfo;
    EXPECT_NEAR(sync->cfo_hz, cfo, 300.0) << "cfo=" << cfo;
  }
}

TEST(WifiSyncTest, RejectsNoiseOnlyCapture) {
  dsp::Rng rng(243);
  cvec noise(4000);
  for (auto& x : noise) x = rng.complex_gaussian(1.0);
  EXPECT_FALSE(synchronize_wifi(noise).has_value());
}

TEST(WifiSyncTest, RejectsTooShortCapture) {
  EXPECT_FALSE(synchronize_wifi(cvec(100)).has_value());
}

TEST(WifiAutoReceiveTest, FullChainDecodesRateAndPayload) {
  for (Mcs mcs : {Mcs::mbps6, Mcs::mbps24, Mcs::mbps54}) {
    WifiTxConfig tx_config;
    tx_config.mcs = mcs;
    tx_config.include_signal_field = true;
    WifiTransmitter tx(tx_config);
    const bytevec psdu = random_psdu(64, 244);
    const cvec frame = tx.transmit(psdu);

    dsp::Rng rng(245);
    cvec capture(217);
    for (auto& x : capture) x = rng.complex_gaussian(1e-4);
    capture.insert(capture.end(), frame.begin(), frame.end());

    const auto result = WifiReceiver().receive_auto(capture);
    ASSERT_TRUE(result.ok) << "mcs=" << static_cast<int>(mcs);
    EXPECT_EQ(result.signal.mcs, mcs);
    EXPECT_EQ(result.signal.length_bytes, psdu.size());
    EXPECT_EQ(result.psdu, psdu);
  }
}

TEST(WifiAutoReceiveTest, SurvivesCfoPhaseGainAndNoise) {
  WifiTxConfig tx_config;
  tx_config.mcs = Mcs::mbps12;
  tx_config.include_signal_field = true;
  WifiTransmitter tx(tx_config);
  const bytevec psdu = random_psdu(48, 246);
  cvec frame = tx.transmit(psdu);
  channel::apply_cfo_inplace(frame, 37e3, 20.0e6, 1.1);
  frame = channel::apply_gain(frame, 0.4);
  dsp::Rng rng(247);
  cvec capture(150, cplx{0.0, 0.0});
  capture.insert(capture.end(), frame.begin(), frame.end());
  capture = channel::add_awgn(capture, 25.0, rng);

  const auto result = WifiReceiver().receive_auto(capture);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.psdu, psdu);
  EXPECT_NEAR(result.sync.cfo_hz, 37e3, 1e3);
}

TEST(WifiAutoReceiveTest, TruncatedPayloadFlagsFailure) {
  WifiTxConfig tx_config;
  tx_config.include_signal_field = true;
  WifiTransmitter tx(tx_config);
  const bytevec psdu = random_psdu(100, 248);
  cvec frame = tx.transmit(psdu);
  frame.resize(frame.size() - 240);  // drop trailing data symbols
  const auto result = WifiReceiver().receive_auto(frame);
  EXPECT_FALSE(result.ok);
}

TEST(WifiSignalFrameTest, KnownRateReceiverStillWorksWithSignalField) {
  WifiTxConfig tx_config;
  tx_config.mcs = Mcs::mbps36;
  tx_config.include_signal_field = true;
  WifiTransmitter tx(tx_config);
  const bytevec psdu = random_psdu(25, 249);
  const cvec frame = tx.transmit(psdu);
  WifiRxConfig rx_config;
  rx_config.mcs = Mcs::mbps36;
  rx_config.expect_signal_field = true;
  const auto result = WifiReceiver(rx_config).receive(frame, psdu.size());
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.psdu, psdu);
}

}  // namespace
}  // namespace ctc::wifi
