#include "zigbee/receiver.h"

#include <algorithm>
#include <cmath>

#include "dsp/kernels/kernels.h"
#include "dsp/require.h"
#include "dsp/resample.h"
#include "sim/telemetry.h"
#include "zigbee/dsss.h"
#include "zigbee/transmitter.h"

namespace ctc::zigbee {

namespace {

constexpr std::size_t kShrSymbols = 2 * (kPreambleBytes + 1);  // 10
constexpr std::size_t kPhrSymbols = 2;
constexpr std::size_t kHeaderSymbols = kShrSymbols + kPhrSymbols;
// Clock recovery's tau grid: half-range and step in samples (17 points).
constexpr double kTimingSearchRange = 0.5;
constexpr double kTimingSearchStep = 0.0625;

}  // namespace

ReceiverProfile ReceiverProfile::usrp() {
  ReceiverProfile profile;
  profile.name = "usrp";
  // The paper's "feasible threshold" is 10 in the chip domain; one chip error
  // flips two adjacent values in the differential domain this profile
  // despreads in, and 9 here reproduces the paper's Table II success curve.
  profile.correlation_threshold = 9;
  profile.sensitivity_gain_db = 0.0;
  profile.demod = DemodKind::differential;
  return profile;
}

ReceiverProfile ReceiverProfile::cc26x2r1() {
  ReceiverProfile profile;
  profile.name = "cc26x2r1";
  profile.correlation_threshold = 10;
  profile.sensitivity_gain_db = 6.0;
  profile.demod = DemodKind::coherent;
  return profile;
}

Receiver::Receiver(ReceiverConfig config)
    : config_(config), demodulator_(config.samples_per_chip) {
  const std::size_t window =
      kShrSymbols * kChipsPerSymbol * config_.samples_per_chip;
  TransmitterConfig tx_config;
  tx_config.samples_per_chip = config_.samples_per_chip;
  tx_config.normalize_power = false;  // reference amplitude = 1 per branch
  shr_reference_ = Transmitter(tx_config).shr_reference();
  reference_energy_ =
      dsp::kernels::active().energy(shr_reference_.data(), window);

  if (config_.timing_recovery) {
    for (double tau = -kTimingSearchRange; tau <= kTimingSearchRange + 1e-12;
         tau += kTimingSearchStep) {
      TimingReference entry;
      entry.tau = tau;
      entry.reference =
          dsp::fractional_delay(std::span<const cplx>(shr_reference_), tau);
      CTC_REQUIRE(entry.reference.size() >= window);
      entry.window_energy =
          dsp::kernels::active().energy(entry.reference.data(), window);
      timing_grid_.push_back(std::move(entry));
    }
  }
}

ReceiveResult Receiver::receive(std::span<const cplx> waveform) const {
  CTC_TELEM_TIMER("zigbee_rx", "receive");
  CTC_TELEM_COUNT("zigbee_rx", "frames", 1);
  ReceiveResult result;
  const std::size_t spc = config_.samples_per_chip;
  const std::size_t shr_chips = kShrSymbols * kChipsPerSymbol;
  const std::size_t header_chips = kHeaderSymbols * kChipsPerSymbol;
  if (waveform.size() < (header_chips + 1) * spc) return result;

  // Clock recovery (Fig. 1): maximize the SHR correlation magnitude over a
  // sub-sample timing grid, then undo the winning fractional delay. The
  // shifted references (and their window energies) come from the grid built
  // at construction.
  thread_local cvec retimed;
  const dsp::kernels::KernelTable& kt = dsp::kernels::active();
  if (config_.timing_recovery) {
    const std::size_t window = shr_chips * spc;
    double best_metric = -1.0;
    double best_offset = 0.0;
    for (const TimingReference& entry : timing_grid_) {
      const cplx correlation =
          kt.dot_conj(waveform.data(), entry.reference.data(), window);
      // Normalize: linear interpolation attenuates the shifted reference,
      // which would otherwise bias the search toward tau = 0.
      const double metric = entry.window_energy > 0.0
                                ? std::norm(correlation) / entry.window_energy
                                : 0.0;
      if (metric > best_metric) {
        best_metric = metric;
        best_offset = entry.tau;
      }
    }
    if (best_offset != 0.0) {
      retimed = dsp::fractional_delay(waveform, -best_offset);
      waveform = retimed;
      result.timing_offset_estimate = best_offset;
    }
  }

  // Data-aided channel estimate over the SHR window: h = <r, ref> / ||ref||^2.
  // The coherent path needs it; the discriminator path is gain/phase
  // agnostic but shares the equalized buffer for simplicity. cdiv divides
  // the waveform straight into a thread-local buffer: receive() runs on
  // every Monte Carlo trial, and a per-call buffer was the per-trial
  // allocation high-water mark. The buffer only grows, so a steady stream
  // of frames writes each equalized sample once; when h is too small to
  // apply, the samples are copied instead.
  //
  // The division is staged: only the header span is equalized up front;
  // once the PHR reveals the frame length, the rest of exactly the frame
  // is. Callers hand receive() a span sized for the LARGEST admissible
  // frame (the scanner's bounded lookahead), so equalizing the whole span
  // would process ~3.6x the samples a typical frame occupies. cdiv is
  // elementwise, so the staged division rounds every sample exactly as a
  // one-shot division does.
  //
  // The zigbee_rx/{equalize,demod,despread} timers split receive() without
  // overlapping; each of the two staged passes adds one span to each.
  thread_local cvec equalized;
  const std::size_t header_samples = (header_chips + 1) * spc;
  const std::size_t window = shr_chips * spc;
  cplx h;
  bool equalizer_applied = false;
  // Equalizes waveform[first, last) into equalized[first, last).
  const auto equalize = [&](std::size_t first, std::size_t last) {
    if (equalized.size() < last) equalized.resize(last);
    if (equalizer_applied) {
      kt.cdiv(waveform.data() + first, last - first, h,
              equalized.data() + first);
    } else {
      std::copy(waveform.begin() + static_cast<std::ptrdiff_t>(first),
                waveform.begin() + static_cast<std::ptrdiff_t>(last),
                equalized.begin() + static_cast<std::ptrdiff_t>(first));
    }
  };
  {
    CTC_TELEM_TIMER("zigbee_rx", "equalize");
    const cplx correlation =
        kt.dot_conj(waveform.data(), shr_reference_.data(), window);
    h = correlation / reference_energy_;
    equalizer_applied = std::abs(h) > 1e-9;
    if (equalizer_applied) result.channel_estimate = h;
    equalize(0, header_samples);
  }
  // Noise estimate from the residual r - h*ref over the SHR window.
  double residual_energy = 0.0;
  double signal_energy = 0.0;
  for (std::size_t i = 0; i < window; ++i) {
    residual_energy += std::norm(waveform[i] - h * shr_reference_[i]);
    signal_energy += std::norm(h * shr_reference_[i]);
  }
  result.noise_variance_estimate = residual_energy / static_cast<double>(window);
  if (result.noise_variance_estimate > 0.0 && signal_energy > 0.0) {
    result.snr_estimate_db =
        10.0 * std::log10(signal_energy / residual_energy);
  }

  const bool differential = config_.profile.demod == DemodKind::differential;
  const std::size_t threshold = config_.profile.correlation_threshold;

  // Pass 1: header only, to learn the frame length. The profile's chips go
  // to a thread-local buffer, since only the symbols are kept.
  thread_local rvec header_cache;
  header_cache.clear();
  {
    CTC_TELEM_TIMER("zigbee_rx", "demod");
    const std::span<const cplx> header_wave(equalized.data(), header_samples);
    if (differential) {
      demodulator_.extend_frequency_chips(header_wave, header_chips,
                                          header_cache);
    } else {
      demodulator_.extend_soft_chips(header_wave, header_chips, header_cache);
    }
  }
  std::vector<DespreadResult> header_symbols;
  {
    CTC_TELEM_TIMER("zigbee_rx", "despread");
    header_symbols =
        differential
            ? despread_differential(header_cache, threshold)
            : despread(OqpskDemodulator::hard_decision(header_cache),
                       threshold);
  }

  // Preamble: eight 0 symbols; SFD 0xA7 -> symbols {7, 10} (low nibble first).
  bool shr_ok = true;
  for (std::size_t s = 0; s < 2 * kPreambleBytes; ++s) {
    if (!header_symbols[s].accepted || header_symbols[s].symbol != 0) {
      shr_ok = false;
    }
  }
  const auto& sfd_low = header_symbols[2 * kPreambleBytes];
  const auto& sfd_high = header_symbols[2 * kPreambleBytes + 1];
  if (!sfd_low.accepted || sfd_low.symbol != (kSfd & 0x0F)) shr_ok = false;
  if (!sfd_high.accepted || sfd_high.symbol != (kSfd >> 4)) shr_ok = false;
  result.shr_ok = shr_ok;
  if (shr_ok) CTC_TELEM_COUNT("zigbee_rx", "shr_ok", 1);

  // PHR: frame length.
  const auto& len_low = header_symbols[kShrSymbols];
  const auto& len_high = header_symbols[kShrSymbols + 1];
  if (!len_low.accepted || !len_high.accepted) return result;
  const std::size_t psdu_bytes =
      (static_cast<std::size_t>(len_high.symbol) << 4) | len_low.symbol;
  const std::size_t psdu_chips = 2 * psdu_bytes * kChipsPerSymbol;
  const std::size_t total_chips = header_chips + psdu_chips;
  if (psdu_bytes == 0 || psdu_bytes > kMaxPsduBytes ||
      waveform.size() < (total_chips + 1) * spc) {
    return result;
  }
  result.phr_ok = true;
  CTC_TELEM_COUNT("zigbee_rx", "phr_ok", 1);

  // The frame length is now known: equalize the rest of exactly the
  // frame's samples (same per-sample rounding as the header's).
  const std::size_t frame_samples = (total_chips + 1) * spc;
  {
    CTC_TELEM_TIMER("zigbee_rx", "equalize");
    equalize(header_samples, frame_samples);
  }

  // Pass 2: the PSDU's chips [header_chips, total_chips) only, straight
  // into the result, since nothing reads the header's chips again. Both
  // demodulations are per chip, so these are the chips a whole-frame call
  // gives: header_chips is even, so the matched filter's I/Q branch parity
  // holds. The differential chain continues from the last chip of the
  // PHR's decoded symbol, as a whole-frame despread would have; the
  // coherent despread is per block.
  const std::span<const cplx> psdu_wave(equalized.data() + header_chips * spc,
                                        frame_samples - header_chips * spc);
  {
    CTC_TELEM_TIMER("zigbee_rx", "demod");
    result.soft_chips = demodulator_.soft_chips(psdu_wave, psdu_chips);
    result.freq_chips = demodulator_.frequency_chips(psdu_wave, psdu_chips);
  }
  result.hard_chips = OqpskDemodulator::hard_decision(result.soft_chips);
  std::vector<DespreadResult> psdu_symbols;
  {
    CTC_TELEM_TIMER("zigbee_rx", "despread");
    psdu_symbols =
        differential
            ? despread_differential(
                  result.freq_chips, threshold,
                  chips_for_symbol(header_symbols.back().symbol).back())
            : despread(result.hard_chips, threshold);
  }
  result.psdu_complete = true;
  std::vector<std::uint8_t> symbol_values;
  symbol_values.reserve(psdu_symbols.size());
  for (const DespreadResult& symbol : psdu_symbols) {
    result.hamming_distances.push_back(symbol.distance);
    // The statistic of the paper's Fig. 7: chip Hamming distance of the
    // best-matching sequence, per PSDU symbol.
    CTC_TELEM_HISTO("zigbee_rx", "symbol_hamming", symbol.distance);
    if (!symbol.accepted) result.psdu_complete = false;
    symbol_values.push_back(symbol.symbol);
  }
  result.psdu = symbols_to_bytes(symbol_values);
  if (result.psdu_complete) {
    result.mac = MacFrame::parse(result.psdu);
  }
  if (result.frame_ok()) CTC_TELEM_COUNT("zigbee_rx", "frames_ok", 1);
  return result;
}

}  // namespace ctc::zigbee
