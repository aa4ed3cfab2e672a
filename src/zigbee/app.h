// Minimal APP layer used by the paper's experiments: the evaluation sends
// the texts "00000" through "00099" as payloads (Sec. VII-C1).
#pragma once

#include <cstdint>
#include <vector>

#include "zigbee/frame.h"

namespace ctc::zigbee {

/// Builds the MAC frame carrying one zero-padded 5-digit text message.
MacFrame make_text_frame(unsigned index, std::uint8_t sequence_number);

/// The full "00000".."00099" workload of Sec. VII-C1.
std::vector<MacFrame> make_text_workload(unsigned count = 100);

}  // namespace ctc::zigbee
