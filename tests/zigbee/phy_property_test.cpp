// Property-style sweeps over the ZigBee PHY: round trips for arbitrary
// payload sizes and contents on both demodulator paths, and the structural
// length formulas the rest of the system relies on.
#include <gtest/gtest.h>

#include "channel/awgn.h"
#include "dsp/rng.h"
#include "zigbee/chip_sequences.h"
#include "zigbee/receiver.h"
#include "zigbee/transmitter.h"

namespace ctc::zigbee {
namespace {

struct PhyCase {
  std::size_t payload_bytes;
  DemodKind demod;
};

std::string case_name(const ::testing::TestParamInfo<PhyCase>& info) {
  return (info.param.demod == DemodKind::coherent ? "coherent" : "differential") +
         std::to_string(info.param.payload_bytes);
}

class PhyRoundTripTest : public ::testing::TestWithParam<PhyCase> {
 protected:
  MacFrame random_frame(dsp::Rng& rng) const {
    MacFrame frame;
    frame.sequence = static_cast<std::uint8_t>(rng.next_u64());
    frame.payload.resize(GetParam().payload_bytes);
    for (auto& b : frame.payload) {
      b = static_cast<std::uint8_t>(rng.next_u64() & 0xFF);
    }
    return frame;
  }
  Receiver make_receiver() const {
    ReceiverConfig config;
    config.profile.demod = GetParam().demod;
    return Receiver(config);
  }
};

TEST_P(PhyRoundTripTest, CleanRoundTripForRandomPayloads) {
  dsp::Rng rng(400 + GetParam().payload_bytes);
  Transmitter tx;
  const Receiver rx = make_receiver();
  for (int trial = 0; trial < 3; ++trial) {
    const MacFrame frame = random_frame(rng);
    const auto result = rx.receive(tx.transmit_frame(frame));
    ASSERT_TRUE(result.frame_ok()) << "trial " << trial;
    EXPECT_EQ(result.mac->payload, frame.payload);
    EXPECT_EQ(result.mac->sequence, frame.sequence);
  }
}

TEST_P(PhyRoundTripTest, NoisyRoundTripAt14Db) {
  dsp::Rng rng(500 + GetParam().payload_bytes);
  Transmitter tx;
  const Receiver rx = make_receiver();
  const MacFrame frame = random_frame(rng);
  const cvec wave = tx.transmit_frame(frame);
  int successes = 0;
  for (int trial = 0; trial < 5; ++trial) {
    const auto result = rx.receive(channel::add_awgn(wave, 14.0, rng));
    if (result.frame_ok() && result.mac->payload == frame.payload) ++successes;
  }
  EXPECT_EQ(successes, 5);
}

TEST_P(PhyRoundTripTest, WaveformAndChipLengthFormulas) {
  dsp::Rng rng(600 + GetParam().payload_bytes);
  Transmitter tx;
  const MacFrame frame = random_frame(rng);
  const bytevec psdu = frame.serialize();
  // Preamble, SFD and PHR, then the PSDU, two symbols per byte.
  const std::size_t symbols = 2 * (kPreambleBytes + 2 + psdu.size());
  const auto chips = tx.chips_for_psdu(psdu);
  EXPECT_EQ(chips.size(), symbols * kChipsPerSymbol);
  const cvec wave = tx.transmit_frame(frame);
  EXPECT_EQ(wave.size(), (chips.size() + 1) * 2);

  const auto result = Receiver().receive(wave);
  ASSERT_TRUE(result.phr_ok);
  EXPECT_EQ(result.soft_chips.size(), 2 * psdu.size() * kChipsPerSymbol);
  EXPECT_EQ(result.freq_chips.size(), result.soft_chips.size());
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, PhyRoundTripTest,
    ::testing::Values(PhyCase{1, DemodKind::coherent},
                      PhyCase{1, DemodKind::differential},
                      PhyCase{5, DemodKind::coherent},
                      PhyCase{5, DemodKind::differential},
                      PhyCase{23, DemodKind::coherent},
                      PhyCase{23, DemodKind::differential},
                      PhyCase{60, DemodKind::coherent},
                      PhyCase{60, DemodKind::differential},
                      PhyCase{105, DemodKind::coherent},
                      PhyCase{105, DemodKind::differential}),
    case_name);

TEST(PhyPropertyTest, MaximumPayloadRoundTrips) {
  // 127-byte PSDU = 105-byte payload + 11 header/FCS bytes... use payload
  // that exactly hits kMaxPsduBytes.
  MacFrame frame;
  frame.payload.assign(kMaxPsduBytes - 11, 0xA5);
  Transmitter tx;
  const auto result = Receiver().receive(tx.transmit_frame(frame));
  ASSERT_TRUE(result.frame_ok());
  EXPECT_EQ(result.mac->payload.size(), kMaxPsduBytes - 11);
}

TEST(PhyPropertyTest, AllSymbolValuesSurviveTheWaveform) {
  // A payload exercising every 4-bit symbol value in both nibbles.
  MacFrame frame;
  for (int v = 0; v < 16; ++v) {
    frame.payload.push_back(static_cast<std::uint8_t>(v | ((15 - v) << 4)));
  }
  Transmitter tx;
  for (DemodKind demod : {DemodKind::coherent, DemodKind::differential}) {
    ReceiverConfig config;
    config.profile.demod = demod;
    const auto result = Receiver(config).receive(tx.transmit_frame(frame));
    ASSERT_TRUE(result.frame_ok());
    EXPECT_EQ(result.mac->payload, frame.payload);
  }
}

}  // namespace
}  // namespace ctc::zigbee
