#include "zigbee/frame.h"

#include "dsp/require.h"

namespace ctc::zigbee {

std::uint16_t crc16_fcs(std::span<const std::uint8_t> data) {
  std::uint16_t crc = 0x0000;
  for (std::uint8_t byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      if (crc & 1) {
        crc = static_cast<std::uint16_t>((crc >> 1) ^ 0x8408);
      } else {
        crc >>= 1;
      }
    }
  }
  return crc;
}

std::vector<std::uint8_t> bytes_to_symbols(std::span<const std::uint8_t> bytes) {
  std::vector<std::uint8_t> symbols;
  symbols.reserve(bytes.size() * 2);
  for (std::uint8_t byte : bytes) {
    symbols.push_back(byte & 0x0F);
    symbols.push_back(static_cast<std::uint8_t>(byte >> 4));
  }
  return symbols;
}

bytevec symbols_to_bytes(std::span<const std::uint8_t> symbols) {
  CTC_REQUIRE(symbols.size() % 2 == 0);
  bytevec bytes;
  bytes.reserve(symbols.size() / 2);
  for (std::size_t i = 0; i < symbols.size(); i += 2) {
    CTC_REQUIRE(symbols[i] < 16 && symbols[i + 1] < 16);
    bytes.push_back(
        static_cast<std::uint8_t>(symbols[i] | (symbols[i + 1] << 4)));
  }
  return bytes;
}

bytevec MacFrame::serialize() const {
  bytevec out;
  out.reserve(11 + payload.size());
  out.push_back(static_cast<std::uint8_t>(frame_control & 0xFF));
  out.push_back(static_cast<std::uint8_t>(frame_control >> 8));
  out.push_back(sequence);
  out.push_back(static_cast<std::uint8_t>(pan_id & 0xFF));
  out.push_back(static_cast<std::uint8_t>(pan_id >> 8));
  out.push_back(static_cast<std::uint8_t>(dest_addr & 0xFF));
  out.push_back(static_cast<std::uint8_t>(dest_addr >> 8));
  out.push_back(static_cast<std::uint8_t>(src_addr & 0xFF));
  out.push_back(static_cast<std::uint8_t>(src_addr >> 8));
  out.insert(out.end(), payload.begin(), payload.end());
  const std::uint16_t fcs = crc16_fcs(out);
  out.push_back(static_cast<std::uint8_t>(fcs & 0xFF));
  out.push_back(static_cast<std::uint8_t>(fcs >> 8));
  return out;
}

std::optional<MacFrame> MacFrame::parse(std::span<const std::uint8_t> psdu) {
  constexpr std::size_t kHeaderBytes = 9;
  constexpr std::size_t kFcsBytes = 2;
  if (psdu.size() < kHeaderBytes + kFcsBytes) return std::nullopt;
  const std::uint16_t stored_fcs = static_cast<std::uint16_t>(
      psdu[psdu.size() - 2] | (psdu[psdu.size() - 1] << 8));
  if (crc16_fcs(psdu.subspan(0, psdu.size() - kFcsBytes)) != stored_fcs) {
    return std::nullopt;
  }
  MacFrame frame;
  frame.frame_control = static_cast<std::uint16_t>(psdu[0] | (psdu[1] << 8));
  frame.sequence = psdu[2];
  frame.pan_id = static_cast<std::uint16_t>(psdu[3] | (psdu[4] << 8));
  frame.dest_addr = static_cast<std::uint16_t>(psdu[5] | (psdu[6] << 8));
  frame.src_addr = static_cast<std::uint16_t>(psdu[7] | (psdu[8] << 8));
  frame.payload.assign(psdu.begin() + kHeaderBytes, psdu.end() - kFcsBytes);
  return frame;
}

bytevec Ppdu::serialize() const {
  CTC_REQUIRE_MSG(psdu.size() <= kMaxPsduBytes, "PSDU exceeds 127 bytes");
  bytevec out;
  out.reserve(kPreambleBytes + 2 + psdu.size());
  out.insert(out.end(), kPreambleBytes, 0x00);
  out.push_back(kSfd);
  out.push_back(static_cast<std::uint8_t>(psdu.size()));
  out.insert(out.end(), psdu.begin(), psdu.end());
  return out;
}

}  // namespace ctc::zigbee
