// 802.15.4 framing: MAC data frames (with CRC-16 FCS) and the PHY PPDU
// (preamble + SFD + PHR + PSDU), plus byte/symbol packing helpers.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dsp/types.h"

namespace ctc::zigbee {

inline constexpr std::uint8_t kSfd = 0xA7;
inline constexpr std::size_t kPreambleBytes = 4;  // eight '0' symbols
inline constexpr std::size_t kMaxPsduBytes = 127;

/// ITU-T CRC-16 as used for the 802.15.4 FCS (poly 0x1021, reflected
/// implementation 0x8408, init 0x0000, LSB-first over the MHR + payload).
std::uint16_t crc16_fcs(std::span<const std::uint8_t> data);

/// Splits bytes into 4-bit symbols, low nibble first (802.15.4 bit order).
std::vector<std::uint8_t> bytes_to_symbols(std::span<const std::uint8_t> bytes);

/// Re-packs 4-bit symbols (even count) into bytes, low nibble first.
bytevec symbols_to_bytes(std::span<const std::uint8_t> symbols);

/// Minimal MAC data frame: frame control + sequence number + short
/// destination/source addressing + payload + FCS.
struct MacFrame {
  std::uint16_t frame_control = 0x8841;  // data frame, short addrs, intra-PAN
  std::uint8_t sequence = 0;
  std::uint16_t pan_id = 0x1A2B;
  std::uint16_t dest_addr = 0x0001;
  std::uint16_t src_addr = 0x0002;
  bytevec payload;

  /// Serializes MHR + payload + FCS into a PSDU.
  bytevec serialize() const;

  /// Parses a PSDU; returns nullopt if too short or the FCS check fails.
  static std::optional<MacFrame> parse(std::span<const std::uint8_t> psdu);
};

/// PHY protocol data unit: SHR (preamble + SFD) + PHR (length) + PSDU.
struct Ppdu {
  bytevec psdu;

  /// Serializes the full over-the-air byte sequence.
  /// Requires psdu.size() <= 127.
  bytevec serialize() const;

  /// Byte offset of the PHR within a serialized PPDU.
  static constexpr std::size_t phr_offset() { return kPreambleBytes + 1; }
};

}  // namespace ctc::zigbee
