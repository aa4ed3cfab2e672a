#include "zigbee/app.h"

#include <cstdio>

#include "dsp/require.h"

namespace ctc::zigbee {

MacFrame make_text_frame(unsigned index, std::uint8_t sequence_number) {
  CTC_REQUIRE(index <= 99999);
  char text[8];
  std::snprintf(text, sizeof text, "%05u", index);
  MacFrame frame;
  frame.sequence = sequence_number;
  frame.payload.assign(text, text + 5);
  return frame;
}

std::vector<MacFrame> make_text_workload(unsigned count) {
  std::vector<MacFrame> frames;
  frames.reserve(count);
  for (unsigned i = 0; i < count; ++i) {
    frames.push_back(make_text_frame(i, static_cast<std::uint8_t>(i & 0xFF)));
  }
  return frames;
}

}  // namespace ctc::zigbee
