#include "wifi/receiver.h"

#include <cmath>

#include "dsp/fft.h"
#include "dsp/kernels/kernels.h"
#include "dsp/require.h"
#include "wifi/interleaver.h"
#include "wifi/ofdm.h"
#include "wifi/scrambler.h"

namespace ctc::wifi {

namespace {
constexpr std::size_t kServiceBits = 16;
constexpr std::size_t kPreambleSamples = 320;  // STF + LTF
}  // namespace

WifiReceiver::WifiReceiver(WifiRxConfig config) : config_(config) {}

cvec WifiReceiver::estimate_channel(std::span<const cplx> waveform,
                                    std::size_t ltf_start) const {
  static const dsp::FftPlan plan(kNumSubcarriers);
  cvec channel(kNumSubcarriers, cplx{1.0, 0.0});
  const std::size_t first = ltf_start + 32;  // skip the long CP
  cvec symbol1(waveform.begin() + static_cast<long>(first),
               waveform.begin() + static_cast<long>(first + 64));
  cvec symbol2(waveform.begin() + static_cast<long>(first + 64),
               waveform.begin() + static_cast<long>(first + 128));
  const cvec grid1 = plan.forward(symbol1);
  const cvec grid2 = plan.forward(symbol2);
  const auto& reference = ltf_sequence();
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) continue;
    const std::size_t bin = subcarrier_to_bin(k);
    const double ref = reference[static_cast<std::size_t>(k + 26)];
    channel[bin] = (grid1[bin] + grid2[bin]) / (2.0 * ref);
  }
  return channel;
}

namespace {

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
    dsp::kernels::active().cdiv(grid.data(), grid.size(), rotation,
                                grid.data());
  }
  return grid;
}

}  // namespace

bytevec WifiReceiver::decode_data(std::span<const cplx> waveform,
                                  std::size_t data_start,
                                  std::span<const cplx> channel, Mcs mcs,
                                  std::size_t psdu_bytes,
                                  std::size_t polarity_offset) const {
  WifiTxConfig tx_like;
  tx_like.mcs = mcs;
  const std::size_t num_symbols =
      WifiTransmitter(tx_like).num_data_symbols(psdu_bytes);
  const Modulation modulation = mcs_modulation(mcs);
  const std::size_t bpsc = bits_per_subcarrier(modulation);
  const std::size_t cbps = coded_bits_per_symbol(mcs);
  const auto& data_indexes = data_subcarrier_indexes();

  bitvec coded;
  coded.reserve(num_symbols * cbps);
  for (std::size_t s = 0; s < num_symbols; ++s) {
    const auto symbol = waveform.subspan(data_start + s * kSymbolLength, kSymbolLength);
    const cvec grid = equalized_grid(symbol, channel, s + polarity_offset);
    cvec points(kNumDataSubcarriers);
    for (std::size_t n = 0; n < kNumDataSubcarriers; ++n) {
      points[n] = grid[subcarrier_to_bin(data_indexes[n])];
    }
    const bitvec symbol_bits = qam_demap(points, modulation);
    const bitvec deinterleaved = deinterleave(symbol_bits, cbps, bpsc);
    coded.insert(coded.end(), deinterleaved.begin(), deinterleaved.end());
  }

  const bitvec scrambled = viterbi_decode(coded, mcs_code_rate(mcs));
  Scrambler scrambler(config_.scrambler_seed);
  const bitvec bits = scrambler.process(scrambled);

  bytevec psdu(psdu_bytes, 0);
  if (bits.size() < kServiceBits + 8 * psdu_bytes) return {};
  for (std::size_t i = 0; i < 8 * psdu_bytes; ++i) {
    if (bits[kServiceBits + i]) {
      psdu[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
    }
  }
  return psdu;
}

WifiReceiveResult WifiReceiver::receive(std::span<const cplx> waveform,
                                        std::size_t psdu_bytes) const {
  WifiReceiveResult result;
  WifiTxConfig tx_like;
  tx_like.mcs = config_.mcs;
  const std::size_t num_symbols =
      WifiTransmitter(tx_like).num_data_symbols(psdu_bytes);
  const std::size_t preamble = config_.expect_preamble ? kPreambleSamples : 0;
  const std::size_t signal = config_.expect_signal_field ? kSymbolLength : 0;
  const std::size_t needed = preamble + signal + num_symbols * kSymbolLength;
  if (waveform.size() < needed) return result;

  cvec channel(kNumSubcarriers, cplx{1.0, 0.0});
  if (config_.expect_preamble) channel = estimate_channel(waveform, 160);

  result.psdu = decode_data(waveform, preamble + signal, channel, config_.mcs,
                            psdu_bytes, config_.expect_signal_field ? 1 : 0);
  if (result.psdu.size() != psdu_bytes) return result;
  result.symbol_count = num_symbols;
  result.ok = true;
  return result;
}

WifiAutoReceiveResult WifiReceiver::receive_auto(std::span<const cplx> capture,
                                                 SyncConfig sync_config) const {
  WifiAutoReceiveResult result;
  const auto sync = synchronize_wifi(capture, sync_config);
  if (!sync) return result;
  result.sync = *sync;

  const cvec corrected =
      correct_cfo(capture, sync->cfo_hz, sync_config.sample_rate_hz);
  const std::span<const cplx> frame =
      std::span<const cplx>(corrected).subspan(sync->frame_start);
  if (frame.size() < kPreambleSamples + kSymbolLength) return result;

  const cvec channel = estimate_channel(frame, 160);

  // SIGNAL field: first symbol after the preamble, polarity index 0.
  const cvec signal_grid = equalized_grid(
      frame.subspan(kPreambleSamples, kSymbolLength), channel, 0);
  const auto signal = demodulate_signal_grid(signal_grid);
  if (!signal) return result;
  result.signal = *signal;

  WifiTxConfig tx_like;
  tx_like.mcs = signal->mcs;
  const std::size_t num_symbols =
      WifiTransmitter(tx_like).num_data_symbols(signal->length_bytes);
  const std::size_t needed =
      kPreambleSamples + (1 + num_symbols) * kSymbolLength;
  if (frame.size() < needed) return result;

  result.psdu = decode_data(frame, kPreambleSamples + kSymbolLength, channel,
                            signal->mcs, signal->length_bytes, 1);
  result.ok = result.psdu.size() == signal->length_bytes;
  return result;
}

}  // namespace ctc::wifi
