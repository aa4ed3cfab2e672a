#include "rx_oracle.h"

#include <array>
#include <cmath>
#include <limits>

#include "dsp/fft.h"
#include "dsp/require.h"
#include "wifi/interleaver.h"
#include "wifi/ofdm.h"
#include "wifi/qam.h"
#include "wifi/scrambler.h"

namespace ctc::wifi::oracle {

namespace {

constexpr std::size_t kServiceBits = 16;
constexpr std::size_t kPreambleSamples = 320;  // STF + LTF
constexpr unsigned kG0 = 0b1011011;  // 133 octal, MSB = current bit
constexpr unsigned kG1 = 0b1111001;  // 171 octal
constexpr unsigned kNumStates = 64;
constexpr std::uint8_t kErasure = 2;

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

// Channel estimate from the two LTF repeats (the LTF starts at sample 160).
cvec estimate_channel(std::span<const cplx> waveform) {
  static const dsp::FftPlan plan(kNumSubcarriers);
  cvec channel(kNumSubcarriers, cplx{1.0, 0.0});
  const std::size_t first = 160 + 32;  // skip the long CP
  const cvec grid1 = plan.forward(waveform.subspan(first, 64));
  const cvec grid2 = plan.forward(waveform.subspan(first + 64, 64));
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) continue;
    const std::size_t bin = subcarrier_to_bin(k);
    const double ref = kLtfSequence[static_cast<std::size_t>(k + 26)];
    channel[bin] = (grid1[bin] + grid2[bin]) / (2.0 * ref);
  }
  return channel;
}

// Equalizes one 80-sample symbol and removes the pilot common phase.
cvec equalized_grid(std::span<const cplx> symbol, std::span<const cplx> channel,
                    std::size_t polarity_index) {
  cvec grid = time_to_grid(symbol);
  for (std::size_t bin = 0; bin < kNumSubcarriers; ++bin) {
    if (std::abs(channel[bin]) > 1e-9) grid[bin] /= channel[bin];
  }
  const double polarity = pilot_polarity(polarity_index);
  const auto& pilots = pilot_subcarrier_indexes();
  cplx pilot_sum{0.0, 0.0};
  pilot_sum += grid[subcarrier_to_bin(pilots[0])] * polarity;
  pilot_sum += grid[subcarrier_to_bin(pilots[1])] * polarity;
  pilot_sum += grid[subcarrier_to_bin(pilots[2])] * polarity;
  pilot_sum += grid[subcarrier_to_bin(pilots[3])] * (-polarity);
  if (std::abs(pilot_sum) > 1e-9) {
    const cplx rotation = pilot_sum / std::abs(pilot_sum);
    for (cplx& bin : grid) bin /= rotation;
  }
  return grid;
}

}  // namespace

cvec time_to_grid(std::span<const cplx> symbol) {
  CTC_REQUIRE(symbol.size() == kSymbolLength);
  static const dsp::FftPlan plan(kNumSubcarriers);
  return plan.forward(symbol.subspan(kCyclicPrefixLength, kNumSubcarriers));
}

bitvec viterbi_decode(std::span<const std::uint8_t> coded, CodeRate rate) {
  const auto pattern = puncture_pattern(rate);
  // Re-expand to the mother stream, marking punctured positions as erasures.
  bitvec mother;
  mother.reserve(coded.size() * 2);
  std::size_t consumed = 0;
  std::size_t mother_index = 0;
  while (consumed < coded.size()) {
    if (pattern[mother_index % pattern.size()]) {
      mother.push_back(coded[consumed++]);
    } else {
      mother.push_back(kErasure);
    }
    ++mother_index;
  }
  // The encoder may have ended inside a punctured run; pad the erasures the
  // pattern says were dropped so the trellis covers whole (A, B) pairs.
  while (pattern[mother_index % pattern.size()] == 0) {
    mother.push_back(kErasure);
    ++mother_index;
  }
  // Trim to whole (A, B) pairs; a trailing lone A cannot advance the trellis.
  while (mother.size() % 2 != 0) {
    CTC_REQUIRE_MSG(mother.back() == kErasure,
                    "coded length inconsistent with puncturing pattern");
    mother.pop_back();
  }
  const std::size_t num_steps = mother.size() / 2;

  constexpr unsigned kInf = std::numeric_limits<unsigned>::max() / 2;
  std::array<unsigned, kNumStates> metric;
  metric.fill(kInf);
  metric[0] = 0;  // encoder starts in the all-zero state
  std::vector<std::array<std::uint8_t, kNumStates>> decisions(num_steps);

  for (std::size_t step = 0; step < num_steps; ++step) {
    const std::uint8_t ra = mother[2 * step];
    const std::uint8_t rb = mother[2 * step + 1];
    std::array<unsigned, kNumStates> next;
    next.fill(kInf);
    auto& decision = decisions[step];
    for (unsigned state = 0; state < kNumStates; ++state) {
      if (metric[state] >= kInf) continue;
      for (unsigned bit = 0; bit <= 1; ++bit) {
        const unsigned full = (bit << 6) | state;
        const std::uint8_t a = parity(full & kG0);
        const std::uint8_t b = parity(full & kG1);
        unsigned cost = metric[state];
        if (ra != kErasure && a != ra) ++cost;
        if (rb != kErasure && b != rb) ++cost;
        const unsigned next_state = (full >> 1) & 0x3F;
        if (cost < next[next_state]) {
          next[next_state] = cost;
          // Survivor: remember the predecessor's low bit (state & 1 is the
          // oldest bit shifted out; we need the *previous state*). Encode the
          // predecessor fully: it is (state) and input bit is `bit`; from
          // next_state = full >> 1, predecessor = (full & 0x3F).
          decision[next_state] = static_cast<std::uint8_t>(full & 1);
        }
      }
    }
    metric = next;
  }

  // Terminate at the best final state (callers that append tail bits will
  // naturally end at state 0).
  unsigned state = 0;
  unsigned best = kInf;
  for (unsigned s = 0; s < kNumStates; ++s) {
    if (metric[s] < best) {
      best = metric[s];
      state = s;
    }
  }

  // Traceback: at each step, the decoded input bit is the MSB of `full`,
  // i.e. bit 5 of the next state... reconstruct by walking predecessors.
  bitvec decoded(num_steps);
  for (std::size_t step = num_steps; step-- > 0;) {
    const std::uint8_t oldest = decisions[step][state];
    // next_state = (full >> 1), so full = (state << 1) | oldest, and the
    // decoded data bit is bit 6 of full.
    const unsigned full = (state << 1) | oldest;
    decoded[step] = static_cast<std::uint8_t>((full >> 6) & 1);
    state = full & 0x3F;
  }
  return decoded;
}

ReceiveResult receive(std::span<const cplx> waveform, std::size_t psdu_bytes,
                      Mcs mcs, std::uint8_t scrambler_seed) {
  ReceiveResult result;
  WifiTxConfig tx_like;
  tx_like.mcs = mcs;
  const std::size_t num_symbols =
      WifiTransmitter(tx_like).num_data_symbols(psdu_bytes);
  if (waveform.size() < kPreambleSamples + num_symbols * kSymbolLength) {
    return result;
  }
  const cvec channel = estimate_channel(waveform);

  const Modulation modulation = mcs_modulation(mcs);
  const std::size_t bpsc = bits_per_subcarrier(modulation);
  const std::size_t cbps = coded_bits_per_symbol(mcs);
  const auto& data_indexes = data_subcarrier_indexes();
  bitvec coded;
  coded.reserve(num_symbols * cbps);
  for (std::size_t s = 0; s < num_symbols; ++s) {
    const auto symbol =
        waveform.subspan(kPreambleSamples + s * kSymbolLength, kSymbolLength);
    const cvec grid = equalized_grid(symbol, channel, s);
    cvec points(kNumDataSubcarriers);
    for (std::size_t n = 0; n < kNumDataSubcarriers; ++n) {
      points[n] = grid[subcarrier_to_bin(data_indexes[n])];
    }
    const bitvec deinterleaved =
        deinterleave(qam_demap(points, modulation), cbps, bpsc);
    coded.insert(coded.end(), deinterleaved.begin(), deinterleaved.end());
  }

  const bitvec scrambled = viterbi_decode(coded, mcs_code_rate(mcs));
  Scrambler scrambler(scrambler_seed);
  const bitvec bits = scrambler.process(scrambled);
  if (bits.size() < kServiceBits + 8 * psdu_bytes) return result;
  result.psdu.assign(psdu_bytes, 0);
  for (std::size_t i = 0; i < 8 * psdu_bytes; ++i) {
    if (bits[kServiceBits + i]) {
      result.psdu[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
    }
  }
  result.ok = true;
  return result;
}

}  // namespace ctc::wifi::oracle
