#include "wifi/qam.h"

#include <cmath>

#include "dsp/require.h"

namespace ctc::wifi {

namespace {

unsigned gray_decode(unsigned gray) {
  unsigned value = gray;
  for (unsigned shift = 1; shift < 8; shift <<= 1) value ^= value >> shift;
  return value;
}

unsigned gray_encode(unsigned value) { return value ^ (value >> 1); }

unsigned pack_bits(std::span<const std::uint8_t> bits) {
  unsigned packed = 0;
  for (std::uint8_t bit : bits) packed = (packed << 1) | (bit & 1);
  return packed;
}

}  // namespace

std::size_t bits_per_subcarrier(Modulation modulation) {
  switch (modulation) {
    case Modulation::bpsk: return 1;
    case Modulation::qpsk: return 2;
    case Modulation::qam16: return 4;
    case Modulation::qam64: return 6;
  }
  CTC_REQUIRE_MSG(false, "unknown modulation");
}

double modulation_scale(Modulation modulation) {
  switch (modulation) {
    case Modulation::bpsk: return 1.0;
    case Modulation::qpsk: return 1.0 / std::sqrt(2.0);
    case Modulation::qam16: return 1.0 / std::sqrt(10.0);
    case Modulation::qam64: return 1.0 / std::sqrt(42.0);
  }
  CTC_REQUIRE_MSG(false, "unknown modulation");
}

int gray_bits_to_level(unsigned bits, std::size_t num_bits) {
  CTC_REQUIRE(num_bits >= 1 && num_bits <= 3);
  const unsigned index = gray_decode(bits & ((1u << num_bits) - 1));
  return static_cast<int>(2 * index) - (static_cast<int>(1u << num_bits) - 1);
}

unsigned gray_level_to_bits(int level, std::size_t num_bits) {
  CTC_REQUIRE(num_bits >= 1 && num_bits <= 3);
  const int levels = 1 << num_bits;
  // Clamp to the nearest valid odd level.
  int index = (level + levels - 1) / 2;
  if (index < 0) index = 0;
  if (index >= levels) index = levels - 1;
  return gray_encode(static_cast<unsigned>(index));
}

cvec qam_map(std::span<const std::uint8_t> bits, Modulation modulation) {
  const std::size_t bpsc = bits_per_subcarrier(modulation);
  CTC_REQUIRE(bits.size() % bpsc == 0);
  const double scale = modulation_scale(modulation);
  cvec points;
  points.reserve(bits.size() / bpsc);
  for (std::size_t offset = 0; offset < bits.size(); offset += bpsc) {
    const auto group = bits.subspan(offset, bpsc);
    if (modulation == Modulation::bpsk) {
      points.emplace_back(scale * gray_bits_to_level(pack_bits(group), 1), 0.0);
      continue;
    }
    const std::size_t half = bpsc / 2;
    const int i_level = gray_bits_to_level(pack_bits(group.subspan(0, half)), half);
    const int q_level = gray_bits_to_level(pack_bits(group.subspan(half, half)), half);
    points.emplace_back(scale * i_level, scale * q_level);
  }
  return points;
}

bitvec qam_demap(std::span<const cplx> points, Modulation modulation) {
  const std::size_t bpsc = bits_per_subcarrier(modulation);
  const double scale = modulation_scale(modulation);
  bitvec bits;
  bits.reserve(points.size() * bpsc);
  auto push_group = [&bits](unsigned group, std::size_t num_bits) {
    for (std::size_t b = num_bits; b-- > 0;) {
      bits.push_back(static_cast<std::uint8_t>((group >> b) & 1));
    }
  };
  for (const cplx& point : points) {
    if (modulation == Modulation::bpsk) {
      push_group(gray_level_to_bits(point.real() >= 0.0 ? 1 : -1, 1), 1);
      continue;
    }
    const std::size_t half = bpsc / 2;
    const int i_level = static_cast<int>(std::lround(point.real() / scale));
    const int q_level = static_cast<int>(std::lround(point.imag() / scale));
    // Round to nearest odd level.
    auto to_odd = [](int level) { return (level >= 0 ? 1 : -1) * (2 * ((std::abs(level) + 1) / 2) - 1); };
    push_group(gray_level_to_bits(to_odd(i_level), half), half);
    push_group(gray_level_to_bits(to_odd(q_level), half), half);
  }
  return bits;
}

}  // namespace ctc::wifi
