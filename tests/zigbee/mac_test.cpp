#include "zigbee/mac.h"

#include <gtest/gtest.h>

#include "dsp/require.h"

namespace ctc::zigbee {
namespace {

MacAddress extended_address(std::uint64_t value) {
  MacAddress addr;
  addr.mode = AddressingMode::extended;
  addr.extended_addr = value;
  return addr;
}

TEST(FrameControlTest, BitsRoundTripForAllTypesAndModes) {
  for (FrameType type : {FrameType::beacon, FrameType::data, FrameType::ack,
                         FrameType::command}) {
    for (AddressingMode dest : {AddressingMode::none, AddressingMode::short_addr,
                                AddressingMode::extended}) {
      for (AddressingMode src : {AddressingMode::none, AddressingMode::short_addr,
                                 AddressingMode::extended}) {
        FrameControl control;
        control.type = type;
        control.dest_mode = dest;
        control.src_mode = src;
        control.ack_request = true;
        const auto parsed = FrameControl::from_bits(control.to_bits());
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(parsed->type, type);
        EXPECT_EQ(parsed->dest_mode, dest);
        EXPECT_EQ(parsed->src_mode, src);
        EXPECT_TRUE(parsed->ack_request);
      }
    }
  }
}

TEST(FrameControlTest, RejectsReservedValues) {
  EXPECT_FALSE(FrameControl::from_bits(0x0004).has_value());  // type 4
  EXPECT_FALSE(FrameControl::from_bits(0x0400).has_value());  // dest mode 1
  EXPECT_FALSE(FrameControl::from_bits(0x4000).has_value());  // src mode 1
}

TEST(GeneralMacFrameTest, ShortAddressRoundTrip) {
  GeneralMacFrame frame;
  frame.sequence = 200;
  frame.dest = MacAddress::short_address(0x1234);
  frame.src = MacAddress::short_address(0x5678);
  frame.payload = {9, 8, 7};
  const auto parsed = GeneralMacFrame::parse(frame.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->sequence, 200);
  EXPECT_EQ(parsed->dest.short_addr, 0x1234);
  EXPECT_EQ(parsed->src.short_addr, 0x5678);
  EXPECT_EQ(parsed->payload, (bytevec{9, 8, 7}));
  EXPECT_EQ(parsed->control.type, FrameType::data);
}

TEST(GeneralMacFrameTest, ExtendedAddressRoundTrip) {
  GeneralMacFrame frame;
  frame.control.dest_mode = AddressingMode::extended;
  frame.control.src_mode = AddressingMode::extended;
  frame.dest = extended_address(0x0011223344556677ULL);
  frame.src = extended_address(0x8899AABBCCDDEEFFULL);
  frame.payload = {1};
  const auto parsed = GeneralMacFrame::parse(frame.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->dest.extended_addr, 0x0011223344556677ULL);
  EXPECT_EQ(parsed->src.extended_addr, 0x8899AABBCCDDEEFFULL);
}

TEST(GeneralMacFrameTest, MixedModesAndNoCompression) {
  GeneralMacFrame frame;
  frame.control.dest_mode = AddressingMode::short_addr;
  frame.control.src_mode = AddressingMode::extended;
  frame.control.pan_id_compression = false;
  frame.dest = MacAddress::short_address(0xAAAA);
  frame.src = extended_address(42);
  const auto parsed = GeneralMacFrame::parse(frame.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->dest.short_addr, 0xAAAA);
  EXPECT_EQ(parsed->src.extended_addr, 42u);
}

TEST(GeneralMacFrameTest, MismatchedControlModesThrow) {
  GeneralMacFrame frame;
  frame.control.dest_mode = AddressingMode::extended;  // but dest is short
  EXPECT_THROW(frame.serialize(), ContractError);
}

TEST(GeneralMacFrameTest, CorruptionRejected) {
  GeneralMacFrame frame;
  frame.payload = {5, 5, 5};
  bytevec psdu = frame.serialize();
  psdu[3] ^= 0x40;
  EXPECT_FALSE(GeneralMacFrame::parse(psdu).has_value());
  EXPECT_FALSE(GeneralMacFrame::parse(bytevec{1, 2, 3}).has_value());
}

TEST(GeneralMacFrameTest, AckEchoesSequenceAndIsMinimal) {
  GeneralMacFrame frame;
  frame.sequence = 99;
  frame.control.ack_request = true;
  const GeneralMacFrame ack = frame.make_ack();
  EXPECT_EQ(ack.control.type, FrameType::ack);
  EXPECT_EQ(ack.sequence, 99);
  const bytevec wire = ack.serialize();
  EXPECT_EQ(wire.size(), 5u);  // FCF + seq + FCS: the 802.15.4 imm-ack
  const auto parsed = GeneralMacFrame::parse(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->control.type, FrameType::ack);
  EXPECT_EQ(parsed->sequence, 99);
}

TEST(MacEntityTest, DataAckExchange) {
  MacEntity gateway(MacAddress::short_address(0x0001));
  MacEntity bulb(MacAddress::short_address(0x0042));
  const GeneralMacFrame data =
      gateway.make_data_frame(bulb.address(), {'O', 'N'});
  const auto outcome = bulb.handle(data);
  EXPECT_TRUE(outcome.accepted);
  EXPECT_FALSE(outcome.duplicate);
  ASSERT_TRUE(outcome.ack.has_value());
  EXPECT_TRUE(gateway.matches_pending(*outcome.ack));
}

TEST(MacEntityTest, DuplicateSuppressionStillAcks) {
  MacEntity gateway(MacAddress::short_address(0x0001));
  MacEntity bulb(MacAddress::short_address(0x0042));
  const GeneralMacFrame data = gateway.make_data_frame(bulb.address(), {'X'});
  EXPECT_TRUE(bulb.handle(data).accepted);
  const auto replay = bulb.handle(data);  // attacker-style replay
  EXPECT_FALSE(replay.accepted);
  EXPECT_TRUE(replay.duplicate);
  EXPECT_TRUE(replay.ack.has_value());  // ACK still sent (Clause 6.7.2)
}

TEST(MacEntityTest, AddressAndPanFiltering) {
  MacEntity gateway(MacAddress::short_address(0x0001));
  MacEntity bulb(MacAddress::short_address(0x0042));
  MacEntity other(MacAddress::short_address(0x0099));
  const GeneralMacFrame data = gateway.make_data_frame(bulb.address(), {'Y'});
  EXPECT_FALSE(other.handle(data).accepted);
  // Broadcast reaches everyone.
  const GeneralMacFrame bcast =
      gateway.make_data_frame(MacAddress::short_address(0xFFFF), {'B'}, false);
  EXPECT_TRUE(other.handle(bcast).accepted);
  EXPECT_FALSE(other.handle(bcast).ack.has_value());
}

TEST(MacEntityTest, SequenceNumbersIncrement) {
  MacEntity gateway(MacAddress::short_address(0x0001));
  const auto a = gateway.make_data_frame(MacAddress::short_address(2), {});
  const auto b = gateway.make_data_frame(MacAddress::short_address(2), {});
  EXPECT_EQ(static_cast<std::uint8_t>(a.sequence + 1), b.sequence);
  EXPECT_FALSE(gateway.matches_pending(a.make_ack()));  // superseded by b
  EXPECT_TRUE(gateway.matches_pending(b.make_ack()));
}

}  // namespace
}  // namespace ctc::zigbee
