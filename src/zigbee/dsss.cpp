#include "zigbee/dsss.h"

#include <vector>

#include "dsp/kernels/kernels.h"
#include "dsp/require.h"

namespace ctc::zigbee {

namespace {

// Differential-domain signatures of every candidate sequence, precomputed
// once. For chips j >= 1 the predicted discriminator sign depends only on
// the candidate:
//   predicted_j = sign_j * (2 q[j-1] - 1)(2 q[j] - 1), sign_j = +1 (j odd).
// Chip 0 additionally depends on the last chip of the previous symbol, so
// each row carries two chip-0 variants (previous chip 0 / 1).
struct DifferentialSignature {
  PackedChips tail_bits = 0;                 // bits 1..31: predicted == +1
  std::array<PackedChips, 2> chip0_bit{};    // bit 0 variant per previous chip
};

const std::array<DifferentialSignature, kNumSymbols>& differential_table() {
  static const std::array<DifferentialSignature, kNumSymbols> table = [] {
    std::array<DifferentialSignature, kNumSymbols> out{};
    const auto& rows = chip_table();
    for (std::size_t s = 0; s < kNumSymbols; ++s) {
      const ChipSequence& q = rows[s];
      for (std::size_t j = 1; j < kChipsPerSymbol; ++j) {
        const int sign_j = (j % 2 == 1) ? 1 : -1;
        const int predicted = sign_j * (2 * q[j - 1] - 1) * (2 * q[j] - 1);
        if (predicted > 0) out[s].tail_bits |= PackedChips{1} << j;
      }
      for (std::uint8_t previous = 0; previous < 2; ++previous) {
        const int predicted = -(2 * previous - 1) * (2 * q[0] - 1);  // sign_0 = -1
        if (predicted > 0) out[s].chip0_bit[previous] = PackedChips{1};
      }
    }
    return out;
  }();
  return table;
}

}  // namespace

std::vector<std::uint8_t> spread(std::span<const std::uint8_t> symbols) {
  std::vector<std::uint8_t> chips;
  chips.reserve(symbols.size() * kChipsPerSymbol);
  for (std::uint8_t symbol : symbols) {
    const ChipSequence& sequence = chips_for_symbol(symbol);
    chips.insert(chips.end(), sequence.begin(), sequence.end());
  }
  return chips;
}

DespreadResult despread_block(std::span<const std::uint8_t> chips,
                              std::size_t threshold) {
  CTC_REQUIRE(chips.size() == kChipsPerSymbol);
  DespreadResult result;
  std::size_t best = kChipsPerSymbol + 1;
  const PackedChips received = pack_chips(chips);
  const auto& table = packed_chip_table();
  for (std::size_t s = 0; s < kNumSymbols; ++s) {
    const std::size_t distance = hamming_distance_packed(received, table[s]);
    if (distance < best) {
      best = distance;
      result.symbol = static_cast<std::uint8_t>(s);
    }
  }
  result.distance = best;
  result.accepted = best <= threshold;
  return result;
}

DespreadResult despread_block_reference(std::span<const std::uint8_t> chips,
                                        std::size_t threshold) {
  CTC_REQUIRE(chips.size() == kChipsPerSymbol);
  DespreadResult result;
  std::size_t best = kChipsPerSymbol + 1;
  const auto& table = chip_table();
  for (std::size_t s = 0; s < kNumSymbols; ++s) {
    const std::size_t distance = hamming_distance(chips, table[s]);
    if (distance < best) {
      best = distance;
      result.symbol = static_cast<std::uint8_t>(s);
    }
  }
  result.distance = best;
  result.accepted = best <= threshold;
  return result;
}

namespace {

// The 16 predicted-sign rows for each previous-chip context, assembled once
// from the differential signatures so the per-block loop is one packed
// match against a precomputed row set.
struct DifferentialRowSets {
  std::array<PackedChips, kNumSymbols> first;  // no predecessor (mask ~1)
  std::array<PackedChips, kNumSymbols> prev0;  // previous chip = 0
  std::array<PackedChips, kNumSymbols> prev1;  // previous chip = 1
};

const DifferentialRowSets& differential_row_sets() {
  static const DifferentialRowSets sets = [] {
    DifferentialRowSets out{};
    const auto& table = differential_table();
    for (std::size_t s = 0; s < kNumSymbols; ++s) {
      out.first[s] = table[s].tail_bits;
      out.prev0[s] = table[s].tail_bits | table[s].chip0_bit[0];
      out.prev1[s] = table[s].tail_bits | table[s].chip0_bit[1];
    }
    return out;
  }();
  return sets;
}

}  // namespace

std::vector<DespreadResult> despread_differential(
    std::span<const double> freq_chips, std::size_t threshold,
    std::uint8_t previous_chip) {
  CTC_REQUIRE_MSG(freq_chips.size() % kChipsPerSymbol == 0,
                  "chip stream must contain whole symbols");
  const std::size_t blocks = freq_chips.size() / kChipsPerSymbol;
  std::vector<DespreadResult> results;
  results.reserve(blocks);
  if (blocks == 0) return results;
  const auto& kt = dsp::kernels::active();
  // Sign packing is embarrassingly parallel — do the whole stream at once.
  thread_local std::vector<PackedChips> packed;
  packed.resize(blocks);
  kt.pack_sign_chips(freq_chips.data(), blocks, packed.data());
  // The symbol chain itself stays sequential: block k's row set depends on
  // the decoded last chip of block k-1.
  const DifferentialRowSets& sets = differential_row_sets();
  for (std::size_t k = 0; k < blocks; ++k) {
    const PackedChips* rows = previous_chip > 1 ? sets.first.data()
                              : previous_chip == 0 ? sets.prev0.data()
                                                   : sets.prev1.data();
    const PackedChips mask =
        previous_chip > 1 ? ~PackedChips{1} : ~PackedChips{0};
    std::uint8_t symbol = 0;
    std::uint8_t distance = 0;
    kt.match16(packed[k], rows, mask, &symbol, &distance);
    previous_chip = chips_for_symbol(symbol)[kChipsPerSymbol - 1];
    DespreadResult block;
    block.symbol = symbol;
    block.distance = distance;
    block.accepted = distance <= threshold;
    results.push_back(block);
  }
  return results;
}

std::vector<DespreadResult> despread(std::span<const std::uint8_t> chips,
                                     std::size_t threshold) {
  CTC_REQUIRE_MSG(chips.size() % kChipsPerSymbol == 0,
                  "chip stream must contain whole symbols");
  const std::size_t blocks = chips.size() / kChipsPerSymbol;
  std::vector<DespreadResult> results(blocks);
  if (blocks == 0) return results;
  // Batched path: pack every block, then run the vectorized 16-row match
  // over the whole word stream (8 words per AVX2 iteration).
  const auto& kt = dsp::kernels::active();
  thread_local std::vector<PackedChips> packed;
  thread_local std::vector<std::uint8_t> symbols;
  thread_local std::vector<std::uint8_t> distances;
  packed.resize(blocks);
  symbols.resize(blocks);
  distances.resize(blocks);
  kt.pack_hard_chips(chips.data(), blocks, packed.data());
  kt.despread_words(packed.data(), blocks, packed_chip_table().data(),
                    ~PackedChips{0}, symbols.data(), distances.data());
  for (std::size_t k = 0; k < blocks; ++k) {
    results[k].symbol = symbols[k];
    results[k].distance = distances[k];
    results[k].accepted = distances[k] <= threshold;
  }
  return results;
}

}  // namespace ctc::zigbee
