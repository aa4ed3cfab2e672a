// 802.11 convolutional coding (Clause 17.3.5.6): the standard K = 7,
// rate-1/2 encoder with generators g0 = 133o, g1 = 171o and optional
// puncturing to rates 2/3 and 3/4. The transmit chain is all the attack
// needs; the Viterbi decoder is the tests' round-trip oracle.
#pragma once

#include <cstdint>
#include <span>

#include "dsp/types.h"

namespace ctc::wifi {

enum class CodeRate { half, two_thirds, three_quarters };

/// Coded bits produced per data bit numerator/denominator (e.g. 3/4 -> 4/3).
double coded_bits_per_data_bit(CodeRate rate);

/// Encodes `data` (bit values 0/1) with the rate-1/2 mother code, then
/// punctures to the requested rate. The encoder starts from the all-zero
/// state; callers append 6 tail zeros if they want trellis termination.
bitvec convolutional_encode(std::span<const std::uint8_t> data, CodeRate rate);

}  // namespace ctc::wifi
