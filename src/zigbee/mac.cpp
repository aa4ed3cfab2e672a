#include "zigbee/mac.h"

#include "dsp/require.h"
#include "zigbee/frame.h"

namespace ctc::zigbee {

namespace {

void push_u16(bytevec& out, std::uint16_t value) {
  out.push_back(static_cast<std::uint8_t>(value & 0xFF));
  out.push_back(static_cast<std::uint8_t>(value >> 8));
}

void push_u64(bytevec& out, std::uint64_t value) {
  for (int b = 0; b < 8; ++b) {
    out.push_back(static_cast<std::uint8_t>((value >> (8 * b)) & 0xFF));
  }
}

}  // namespace

std::uint16_t FrameControl::to_bits() const {
  std::uint16_t bits = 0;
  bits |= static_cast<std::uint16_t>(type);
  if (security_enabled) bits |= 1u << 3;
  if (frame_pending) bits |= 1u << 4;
  if (ack_request) bits |= 1u << 5;
  if (pan_id_compression) bits |= 1u << 6;
  bits |= static_cast<std::uint16_t>(dest_mode) << 10;
  bits |= static_cast<std::uint16_t>(src_mode) << 14;
  return bits;
}

std::optional<FrameControl> FrameControl::from_bits(std::uint16_t bits) {
  const std::uint8_t type_bits = bits & 0x7;
  if (type_bits > 3) return std::nullopt;
  auto mode_of = [](std::uint16_t value) -> std::optional<AddressingMode> {
    switch (value & 0x3) {
      case 0: return AddressingMode::none;
      case 2: return AddressingMode::short_addr;
      case 3: return AddressingMode::extended;
      default: return std::nullopt;  // 1 is reserved
    }
  };
  const auto dest = mode_of(bits >> 10);
  const auto src = mode_of(bits >> 14);
  if (!dest || !src) return std::nullopt;
  FrameControl control;
  control.type = static_cast<FrameType>(type_bits);
  control.security_enabled = bits & (1u << 3);
  control.frame_pending = bits & (1u << 4);
  control.ack_request = bits & (1u << 5);
  control.pan_id_compression = bits & (1u << 6);
  control.dest_mode = *dest;
  control.src_mode = *src;
  return control;
}

MacAddress MacAddress::none() {
  MacAddress addr;
  addr.mode = AddressingMode::none;
  return addr;
}

MacAddress MacAddress::short_address(std::uint16_t value) {
  MacAddress addr;
  addr.mode = AddressingMode::short_addr;
  addr.short_addr = value;
  return addr;
}

bytevec GeneralMacFrame::serialize() const {
  CTC_REQUIRE_MSG(control.dest_mode == dest.mode && control.src_mode == src.mode,
                  "frame control addressing modes must match the addresses");
  bytevec out;
  push_u16(out, control.to_bits());
  out.push_back(sequence);
  if (dest.mode != AddressingMode::none) {
    push_u16(out, dest_pan);
    if (dest.mode == AddressingMode::short_addr) {
      push_u16(out, dest.short_addr);
    } else {
      push_u64(out, dest.extended_addr);
    }
  }
  if (src.mode != AddressingMode::none) {
    if (!control.pan_id_compression || dest.mode == AddressingMode::none) {
      push_u16(out, dest_pan);  // source PAN (same PAN in this model)
    }
    if (src.mode == AddressingMode::short_addr) {
      push_u16(out, src.short_addr);
    } else {
      push_u64(out, src.extended_addr);
    }
  }
  out.insert(out.end(), payload.begin(), payload.end());
  CTC_REQUIRE_MSG(out.size() + 2 <= kMaxPsduBytes, "frame exceeds 127 bytes");
  const std::uint16_t fcs = crc16_fcs(out);
  out.push_back(static_cast<std::uint8_t>(fcs & 0xFF));
  out.push_back(static_cast<std::uint8_t>(fcs >> 8));
  return out;
}

std::optional<GeneralMacFrame> GeneralMacFrame::parse(
    std::span<const std::uint8_t> psdu) {
  if (psdu.size() < 5) return std::nullopt;  // FCF + seq + FCS
  const std::uint16_t stored_fcs = static_cast<std::uint16_t>(
      psdu[psdu.size() - 2] | (psdu[psdu.size() - 1] << 8));
  if (crc16_fcs(psdu.subspan(0, psdu.size() - 2)) != stored_fcs) {
    return std::nullopt;
  }
  const std::uint16_t fcf = static_cast<std::uint16_t>(psdu[0] | (psdu[1] << 8));
  const auto control = FrameControl::from_bits(fcf);
  if (!control) return std::nullopt;

  GeneralMacFrame frame;
  frame.control = *control;
  frame.sequence = psdu[2];
  std::size_t cursor = 3;
  auto read_u16 = [&](std::uint16_t& value) {
    if (cursor + 2 > psdu.size() - 2) return false;
    value = static_cast<std::uint16_t>(psdu[cursor] | (psdu[cursor + 1] << 8));
    cursor += 2;
    return true;
  };
  auto read_u64 = [&](std::uint64_t& value) {
    if (cursor + 8 > psdu.size() - 2) return false;
    value = 0;
    for (int b = 0; b < 8; ++b) {
      value |= static_cast<std::uint64_t>(psdu[cursor + b]) << (8 * b);
    }
    cursor += 8;
    return true;
  };

  if (control->dest_mode != AddressingMode::none) {
    if (!read_u16(frame.dest_pan)) return std::nullopt;
    frame.dest.mode = control->dest_mode;
    if (control->dest_mode == AddressingMode::short_addr) {
      if (!read_u16(frame.dest.short_addr)) return std::nullopt;
    } else if (!read_u64(frame.dest.extended_addr)) {
      return std::nullopt;
    }
  } else {
    frame.dest = MacAddress::none();
  }
  if (control->src_mode != AddressingMode::none) {
    if (!control->pan_id_compression ||
        control->dest_mode == AddressingMode::none) {
      std::uint16_t src_pan = 0;
      if (!read_u16(src_pan)) return std::nullopt;
    }
    frame.src.mode = control->src_mode;
    if (control->src_mode == AddressingMode::short_addr) {
      if (!read_u16(frame.src.short_addr)) return std::nullopt;
    } else if (!read_u64(frame.src.extended_addr)) {
      return std::nullopt;
    }
  } else {
    frame.src = MacAddress::none();
  }
  frame.payload.assign(psdu.begin() + static_cast<long>(cursor), psdu.end() - 2);
  return frame;
}

GeneralMacFrame GeneralMacFrame::make_ack() const {
  GeneralMacFrame ack;
  ack.control.type = FrameType::ack;
  ack.control.ack_request = false;
  ack.control.pan_id_compression = false;
  ack.control.dest_mode = AddressingMode::none;
  ack.control.src_mode = AddressingMode::none;
  ack.dest = MacAddress::none();
  ack.src = MacAddress::none();
  ack.sequence = sequence;
  return ack;
}

MacEntity::MacEntity(MacAddress self, std::uint16_t pan_id)
    : self_(self), pan_id_(pan_id) {}

GeneralMacFrame MacEntity::make_data_frame(const MacAddress& dest,
                                           bytevec payload, bool ack_request) {
  GeneralMacFrame frame;
  frame.control.type = FrameType::data;
  frame.control.ack_request = ack_request;
  frame.control.dest_mode = dest.mode;
  frame.control.src_mode = self_.mode;
  frame.sequence = next_sequence_++;
  frame.dest_pan = pan_id_;
  frame.dest = dest;
  frame.src = self_;
  frame.payload = std::move(payload);
  pending_sequence_ = frame.sequence;
  return frame;
}

MacEntity::RxOutcome MacEntity::handle(const GeneralMacFrame& frame) {
  RxOutcome outcome;
  // Address filter: for us, or broadcast.
  const bool for_us =
      frame.dest.mode == AddressingMode::none ||
      (frame.dest.mode == self_.mode && frame.dest == self_) ||
      (frame.dest.mode == AddressingMode::short_addr &&
       frame.dest.short_addr == 0xFFFF);
  if (!for_us || frame.dest_pan != pan_id_) return outcome;

  if (frame.control.type == FrameType::data &&
      frame.src.mode == AddressingMode::short_addr) {
    if (last_seen_ && last_seen_->first == frame.src.short_addr &&
        last_seen_->second == frame.sequence) {
      outcome.duplicate = true;
    }
    last_seen_ = {frame.src.short_addr, frame.sequence};
  }
  outcome.accepted = !outcome.duplicate;
  if (frame.control.ack_request) outcome.ack = frame.make_ack();
  return outcome;
}

bool MacEntity::matches_pending(const GeneralMacFrame& ack) const {
  return pending_sequence_ && ack.control.type == FrameType::ack &&
         ack.sequence == *pending_sequence_;
}

}  // namespace ctc::zigbee
