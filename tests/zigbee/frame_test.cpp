#include "zigbee/frame.h"

#include <gtest/gtest.h>

#include "dsp/require.h"

namespace ctc::zigbee {
namespace {

TEST(CrcTest, EmptyInputIsZero) {
  EXPECT_EQ(crc16_fcs(bytevec{}), 0x0000);
}

TEST(CrcTest, KnownVector) {
  // ITU-T CRC16 (Kermit/802.15.4 style) of "123456789" is 0x2189.
  const bytevec data = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc16_fcs(data), 0x2189);
}

TEST(CrcTest, DetectsSingleBitFlip) {
  bytevec data = {0xDE, 0xAD, 0xBE, 0xEF};
  const std::uint16_t original = crc16_fcs(data);
  data[2] ^= 0x10;
  EXPECT_NE(crc16_fcs(data), original);
}

TEST(SymbolPackingTest, LowNibbleFirst) {
  const bytevec bytes = {0xA7, 0x01};
  const auto symbols = bytes_to_symbols(bytes);
  ASSERT_EQ(symbols.size(), 4u);
  EXPECT_EQ(symbols[0], 0x7);
  EXPECT_EQ(symbols[1], 0xA);
  EXPECT_EQ(symbols[2], 0x1);
  EXPECT_EQ(symbols[3], 0x0);
}

TEST(SymbolPackingTest, RoundTrip) {
  const bytevec bytes = {0x00, 0xFF, 0x5A, 0x13, 0xC8};
  EXPECT_EQ(symbols_to_bytes(bytes_to_symbols(bytes)), bytes);
}

TEST(SymbolPackingTest, RejectsOddCountsAndBadSymbols) {
  EXPECT_THROW(symbols_to_bytes(std::vector<std::uint8_t>{1}), ContractError);
  EXPECT_THROW(symbols_to_bytes(std::vector<std::uint8_t>{1, 16}), ContractError);
}

TEST(MacFrameTest, SerializeParseRoundTrip) {
  MacFrame frame;
  frame.sequence = 42;
  frame.pan_id = 0xBEEF;
  frame.dest_addr = 0x1234;
  frame.src_addr = 0x5678;
  frame.payload = {'h', 'e', 'l', 'l', 'o'};
  const bytevec psdu = frame.serialize();
  EXPECT_EQ(psdu.size(), 9 + 5 + 2u);

  const auto parsed = MacFrame::parse(psdu);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->frame_control, frame.frame_control);
  EXPECT_EQ(parsed->sequence, 42);
  EXPECT_EQ(parsed->pan_id, 0xBEEF);
  EXPECT_EQ(parsed->dest_addr, 0x1234);
  EXPECT_EQ(parsed->src_addr, 0x5678);
  EXPECT_EQ(parsed->payload, frame.payload);
}

TEST(MacFrameTest, EmptyPayloadRoundTrips) {
  MacFrame frame;
  const auto parsed = MacFrame::parse(frame.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->payload.empty());
}

TEST(MacFrameTest, CorruptedFcsRejected) {
  MacFrame frame;
  frame.payload = {1, 2, 3};
  bytevec psdu = frame.serialize();
  psdu[4] ^= 0x01;
  EXPECT_FALSE(MacFrame::parse(psdu).has_value());
}

TEST(MacFrameTest, TruncatedPsduRejected) {
  EXPECT_FALSE(MacFrame::parse(bytevec(5, 0)).has_value());
  EXPECT_FALSE(MacFrame::parse(bytevec{}).has_value());
}

TEST(PpduTest, StructureMatchesStandard) {
  Ppdu ppdu;
  ppdu.psdu = {0xAA, 0xBB};
  const bytevec wire = ppdu.serialize();
  ASSERT_EQ(wire.size(), kPreambleBytes + 2 + 2u);
  for (std::size_t i = 0; i < kPreambleBytes; ++i) EXPECT_EQ(wire[i], 0x00);
  EXPECT_EQ(wire[kPreambleBytes], kSfd);
  EXPECT_EQ(wire[kPreambleBytes + 1], 2);  // PHR length
  EXPECT_EQ(wire[kPreambleBytes + 2], 0xAA);
  EXPECT_EQ(wire[kPreambleBytes + 3], 0xBB);
}

TEST(PpduTest, RejectsOversizedPsdu) {
  Ppdu ppdu;
  ppdu.psdu.assign(kMaxPsduBytes + 1, 0);
  EXPECT_THROW(ppdu.serialize(), ContractError);
}

}  // namespace
}  // namespace ctc::zigbee
