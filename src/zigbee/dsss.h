// Direct Sequence Spread Spectrum spreading / despreading.
//
// Spreading multiplies each 4-bit symbol into its 32-chip PN sequence.
// Despreading is the hard-decision correlation of Fig. 1: the received
// 32-chip block is compared against every table row; if the best Hamming
// distance is within the receiver's correlation threshold the block decodes
// to that symbol, otherwise it is dropped (Sec. III-B1). The emulation
// attack survives precisely because of this tolerance.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "zigbee/chip_sequences.h"

namespace ctc::zigbee {

/// Spreads a sequence of 4-bit symbols (each < 16) into chips.
std::vector<std::uint8_t> spread(std::span<const std::uint8_t> symbols);

struct DespreadResult {
  std::uint8_t symbol = 0;       ///< best-matching symbol value
  std::size_t distance = 0;      ///< its Hamming distance
  bool accepted = false;         ///< distance <= threshold
};

/// Despreads one 32-chip block with the given correlation threshold
/// (maximum tolerated Hamming distance). Packs the block once and matches
/// all 16 table rows with XOR + popcount; bit-identical to
/// despread_block_reference() (same distances, same tie-break order).
DespreadResult despread_block(std::span<const std::uint8_t> chips,
                              std::size_t threshold);

/// Byte-level reference implementation of despread_block(): the
/// pre-optimization 16 x 32 Hamming loop, kept as the equivalence-test
/// oracle for the packed fast path.
DespreadResult despread_block_reference(std::span<const std::uint8_t> chips,
                                        std::size_t threshold);

/// Despreads a whole chip stream (size must be a multiple of 32). Blocks over
/// threshold are reported with accepted == false; callers decide whether to
/// drop the frame.
std::vector<DespreadResult> despread(std::span<const std::uint8_t> chips,
                                     std::size_t threshold);

/// Differential despreading for the noncoherent (FM discriminator) receive
/// path of the GNU Radio 802.15.4 testbed (paper ref. [22]). The
/// discriminator outputs one frequency value per chip,
///   f_i = s_i * (2 c_{i-1} - 1)(2 c_i - 1),  s_i = +1 (i odd) / -1 (i even),
/// so each candidate chip sequence is matched in this differential domain.
/// The first chip of each block depends on the last chip of the previous
/// symbol; it is carried across blocks. `previous_chip` < 2 is the last
/// chip of the symbol before the first block, so a stream despread from a
/// decoded prefix's last symbol on matches the whole stream's despread;
/// the default 2 means the first block has no predecessor, and its chip 0
/// is skipped.
std::vector<DespreadResult> despread_differential(
    std::span<const double> freq_chips, std::size_t threshold,
    std::uint8_t previous_chip = 2);

}  // namespace ctc::zigbee
