// 802.11 Gray-coded constellation mapping (Clause 17.3.5.8).
//
// BPSK/QPSK/16-QAM/64-QAM with the standard normalization factors
// (1, 1/sqrt(2), 1/sqrt(10), 1/sqrt(42)). For 64-QAM each group of six bits
// (b0 b1 b2 | b3 b4 b5) selects I from the first three and Q from the last
// three via the Gray code 000->-7, 001->-5, 011->-3, 010->-1, 110->+1,
// 111->+3, 101->+5, 100->+7.
#pragma once

#include <cstddef>
#include <span>

#include "dsp/types.h"

namespace ctc::wifi {

enum class Modulation { bpsk, qpsk, qam16, qam64 };

/// Coded bits carried per subcarrier (N_BPSC).
std::size_t bits_per_subcarrier(Modulation modulation);

/// Standard amplitude normalization (K_MOD).
double modulation_scale(Modulation modulation);

/// Maps coded bits to constellation points. `bits.size()` must be a multiple
/// of bits_per_subcarrier().
cvec qam_map(std::span<const std::uint8_t> bits, Modulation modulation);

/// Hard-decision demapping back to coded bits (nearest point).
bitvec qam_demap(std::span<const cplx> points, Modulation modulation);

/// The raw (unscaled) Gray level for a bit group, exposed for the attack's
/// bit-extraction path: level index -> amplitude in {-7..+7}.
int gray_bits_to_level(unsigned bits, std::size_t num_bits);

/// Inverse: nearest odd level -> Gray bit group.
unsigned gray_level_to_bits(int level, std::size_t num_bits);

}  // namespace ctc::wifi
