#include "wifi/convcode.h"

#include <array>

#include "dsp/require.h"

namespace ctc::wifi {

namespace {

constexpr unsigned kG0 = 0b1011011;  // 133 octal, MSB = current bit
constexpr unsigned kG1 = 0b1111001;  // 171 octal

std::uint8_t parity(unsigned value) {
  return static_cast<std::uint8_t>(__builtin_popcount(value) & 1);
}

// Puncturing patterns over the mother-code output (A0 B0 A1 B1 ...).
std::span<const std::uint8_t> puncture_pattern(CodeRate rate) {
  static constexpr std::array<std::uint8_t, 2> half = {1, 1};
  static constexpr std::array<std::uint8_t, 4> two_thirds = {1, 1, 1, 0};
  static constexpr std::array<std::uint8_t, 6> three_quarters = {1, 1, 1, 0, 0, 1};
  switch (rate) {
    case CodeRate::half: return half;
    case CodeRate::two_thirds: return two_thirds;
    case CodeRate::three_quarters: return three_quarters;
  }
  CTC_REQUIRE_MSG(false, "unknown code rate");
}

}  // namespace

double coded_bits_per_data_bit(CodeRate rate) {
  switch (rate) {
    case CodeRate::half: return 2.0;
    case CodeRate::two_thirds: return 1.5;
    case CodeRate::three_quarters: return 4.0 / 3.0;
  }
  CTC_REQUIRE_MSG(false, "unknown code rate");
}

bitvec convolutional_encode(std::span<const std::uint8_t> data, CodeRate rate) {
  const auto pattern = puncture_pattern(rate);
  bitvec out;
  out.reserve(data.size() * 2);
  unsigned state = 0;
  std::size_t mother_index = 0;
  for (std::uint8_t bit : data) {
    const unsigned full = ((bit & 1u) << 6) | state;
    const std::uint8_t a = parity(full & kG0);
    const std::uint8_t b = parity(full & kG1);
    if (pattern[mother_index % pattern.size()]) out.push_back(a);
    ++mother_index;
    if (pattern[mother_index % pattern.size()]) out.push_back(b);
    ++mother_index;
    state = (full >> 1) & 0x3F;
  }
  return out;
}

}  // namespace ctc::wifi
