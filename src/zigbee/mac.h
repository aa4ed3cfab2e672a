// General IEEE 802.15.4 MAC framing (Clause 7): frame control field with
// frame types and addressing modes, variable-length MHR, ACK frames, and a
// small MAC entity with sequence numbering, duplicate rejection and ACK
// matching.
//
// frame.h keeps the fixed-layout data frame the PHY experiments use; this
// module models enough of the real MAC that the examples can exchange
// beacon/data/ack/command traffic and the attack can replay a *specific*
// frame type (the paper's attacker replays data frames carrying control
// payloads).
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "dsp/types.h"

namespace ctc::zigbee {

enum class FrameType : std::uint8_t {
  beacon = 0,
  data = 1,
  ack = 2,
  command = 3,
};

enum class AddressingMode : std::uint8_t {
  none = 0,
  short_addr = 2,
  extended = 3,
};

/// The 16-bit frame control field (Clause 7.2.1.1).
struct FrameControl {
  FrameType type = FrameType::data;
  bool security_enabled = false;
  bool frame_pending = false;
  bool ack_request = false;
  bool pan_id_compression = true;
  AddressingMode dest_mode = AddressingMode::short_addr;
  AddressingMode src_mode = AddressingMode::short_addr;

  std::uint16_t to_bits() const;
  /// nullopt on reserved frame types / addressing modes.
  static std::optional<FrameControl> from_bits(std::uint16_t bits);
};

/// One address with its mode. `extended_addr` used for AddressingMode::extended.
struct MacAddress {
  AddressingMode mode = AddressingMode::short_addr;
  std::uint16_t short_addr = 0xFFFF;
  std::uint64_t extended_addr = 0;

  static MacAddress none();
  static MacAddress short_address(std::uint16_t addr);

  bool operator==(const MacAddress&) const = default;
};

/// A general MAC frame: FCF + seq + addressing + payload (+ FCS on the wire).
struct GeneralMacFrame {
  FrameControl control;
  std::uint8_t sequence = 0;
  std::uint16_t dest_pan = 0x1A2B;
  MacAddress dest = MacAddress::short_address(0xFFFF);
  MacAddress src = MacAddress::short_address(0x0000);
  bytevec payload;

  /// Serializes MHR + payload + FCS into a PSDU (<= 127 bytes).
  bytevec serialize() const;

  /// Parses a PSDU; nullopt on truncation, bad FCS, or reserved fields.
  static std::optional<GeneralMacFrame> parse(std::span<const std::uint8_t> psdu);

  /// The immediate acknowledgement (Clause 7.3.3) for this frame.
  GeneralMacFrame make_ack() const;
};

/// Minimal MAC entity: assigns sequence numbers, filters duplicates by
/// (source, sequence), matches ACKs to pending transmissions.
class MacEntity {
 public:
  explicit MacEntity(MacAddress self, std::uint16_t pan_id = 0x1A2B);

  /// Builds the next outgoing data frame to `dest`.
  GeneralMacFrame make_data_frame(const MacAddress& dest, bytevec payload,
                                  bool ack_request = true);

  /// Handles an incoming frame addressed to this entity. Returns the ACK to
  /// send back when the frame requests one (and is not a duplicate);
  /// nullopt otherwise. Duplicate data frames are still ACKed but flagged.
  struct RxOutcome {
    bool accepted = false;   ///< for us, valid, not a duplicate
    bool duplicate = false;
    std::optional<GeneralMacFrame> ack;
  };
  RxOutcome handle(const GeneralMacFrame& frame);

  /// True when `ack` acknowledges the last frame sent by this entity.
  bool matches_pending(const GeneralMacFrame& ack) const;

  const MacAddress& address() const { return self_; }

 private:
  MacAddress self_;
  std::uint16_t pan_id_;
  std::uint8_t next_sequence_ = 0;
  std::optional<std::uint8_t> pending_sequence_;
  // Last sequence seen per short source address (tiny cache).
  std::optional<std::pair<std::uint16_t, std::uint8_t>> last_seen_;
};

}  // namespace ctc::zigbee
