// Perf — hot-path micro-benchmarks for the optimized kernels: packed-popcount
// vs byte-loop despreading, the receiver's construction-time timing-search
// grid vs a per-call search, the link's memoized clean-waveform synthesis vs
// the synthesis chain, the QAM scale search's per-candidate allocating cost
// vs the qam_cost kernel (plus one whole emulation), the x5 resampler's
// full-rate convolution vs the polyphase path (upsample and decimate), the
// 64-point FFT reading one strided twiddle table vs FftPlan's per-stage
// tables, per-sample libm channel
// noise vs the add_gauss kernel, the per-step libm FM discriminator vs the
// fm_discriminate kernel, per-offset dot_conj vs the chip_strip kernel on
// one frame-sync scan round's screen strip, and the scalar vs SIMD table on
// selected kernels (among them cdiv, the equalizer's division of one
// received frame, and chip_strip), and the default Receiver::receive on one
// 12 dB authentic and one emulated text frame.
//
//   $ ./perf_hotpath --json | tail -n1 > BENCH_perf_hotpath.json
//
// Each section times the reference (pre-optimization) path against the fast
// path on the same inputs and reports both wall times plus the ratio. Like
// perf_engine, this JSON intentionally contains wall times — do not use it
// in the CI determinism diff. The *correctness* of each pair is covered by
// the equivalence test suites (tests/dsp/kernels_equivalence_test.cpp and
// friends); this bench only answers "was the rewrite worth it?" and feeds
// tools/bench_trajectory.py ratio assertions, which are machine-independent.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <span>
#include <string>
#include <vector>

#include "attack/emulator.h"
#include "attack/qam_quantize.h"
#include "bench_common.h"
#include "channel/environment.h"
#include "dsp/fft.h"
#include "dsp/fir.h"
#include "dsp/kernels/kernels.h"
#include "dsp/pulse.h"
#include "dsp/resample.h"
#include "dsp/rng.h"
#include "dsp/stats.h"
#include "sim/link.h"
#include "zigbee/app.h"
#include "zigbee/chip_sequences.h"
#include "zigbee/dsss.h"
#include "zigbee/frame.h"
#include "zigbee/oqpsk.h"
#include "zigbee/receiver.h"
#include "zigbee/transmitter.h"

using namespace ctc;

namespace {

/// Minimum wall time of `reps` runs of `fn` (min beats mean under scheduler
/// noise for micro-kernels). The result of every run is folded into a
/// volatile sink so the optimizer cannot drop the work.
template <typename Fn>
double time_ms(std::size_t reps, Fn&& fn) {
  double best = 1e300;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    best = std::min(best, ms);
  }
  return best;
}

volatile double g_sink = 0.0;

/// Discriminator 1: the per-step libm loop OqpskDemodulator used before the
/// fm_discriminate kernel, kept here as the reference row.
rvec libm_frequency_chips(std::span<const cplx> waveform,
                          std::size_t num_chips, std::size_t spc) {
  rvec chips(num_chips, 0.0);
  for (std::size_t i = 0; i < num_chips; ++i) {
    double rotation = 0.0;
    for (std::size_t s = i * spc + 1; s <= (i + 1) * spc; ++s) {
      const cplx step = waveform[s] * std::conj(waveform[s - 1]);
      if (std::norm(step) > 1e-24) {
        rotation += std::atan2(step.imag(), step.real());
      }
    }
    chips[i] = rotation / (kPi / 2.0);
  }
  return chips;
}

/// The per-call clock-recovery search, composed from public calls as the
/// reference row: every shifted SHR reference and its window energy is
/// derived per frame, then the capture is retimed by the winning tau and
/// decoded by a receiver without timing recovery.
zigbee::ReceiveResult percall_timing_receive(
    std::span<const cplx> waveform, std::span<const cplx> shr_reference,
    const zigbee::ReceiverConfig& config, const zigbee::Receiver& untimed) {
  const dsp::kernels::KernelTable& kt = dsp::kernels::active();
  const std::size_t window = 2 * (zigbee::kPreambleBytes + 1) *
                             zigbee::kChipsPerSymbol * config.samples_per_chip;
  double best_metric = -1.0;
  double best_tau = 0.0;
  // The receiver's grid, -0.5 to 0.5 in steps of 1/16 (exact in binary).
  for (int k = -8; k <= 8; ++k) {
    const double tau = k / 16.0;
    const cvec shifted = dsp::fractional_delay(shr_reference, tau);
    const double energy = kt.energy(shifted.data(), window);
    const cplx correlation = kt.dot_conj(waveform.data(), shifted.data(), window);
    const double metric = energy > 0.0 ? std::norm(correlation) / energy : 0.0;
    if (metric > best_metric) {
      best_metric = metric;
      best_tau = tau;
    }
  }
  if (best_tau == 0.0) return untimed.receive(waveform);
  zigbee::ReceiveResult result =
      untimed.receive(dsp::fractional_delay(waveform, -best_tau));
  result.timing_offset_estimate = best_tau;
  return result;
}

/// The QAM scale search before the qam_cost kernel, kept as the reference
/// row: one allocating quantize_to_qam64 call per candidate, summed in
/// point order, over the same coarse grid and golden-section refinement.
double allocating_cost(std::span<const cplx> points, double alpha) {
  const auto quantized = attack::quantize_to_qam64(points, alpha);
  double cost = 0.0;
  for (std::size_t n = 0; n < points.size(); ++n) {
    cost += std::norm(points[n] - quantized[n].value);
  }
  return cost;
}

double per_candidate_search(std::span<const cplx> points) {
  constexpr double min_alpha = attack::kScaleSearchMinAlpha;
  constexpr std::size_t steps = attack::kScaleSearchCoarseSteps;
  double peak = 0.0;
  for (const cplx& point : points) {
    peak = std::max({peak, std::abs(point.real()), std::abs(point.imag())});
  }
  const double max_alpha = std::max(peak, min_alpha + 1e-6);
  double best_alpha = min_alpha;
  double best_cost = allocating_cost(points, best_alpha);
  for (std::size_t i = 1; i < steps; ++i) {
    const double alpha = min_alpha + (max_alpha - min_alpha) *
                                         static_cast<double>(i) /
                                         static_cast<double>(steps - 1);
    const double cost = allocating_cost(points, alpha);
    if (cost < best_cost) {
      best_cost = cost;
      best_alpha = alpha;
    }
  }
  const double cell =
      (max_alpha - min_alpha) / static_cast<double>(steps - 1);
  double lo = std::max(min_alpha, best_alpha - cell);
  double hi = std::min(max_alpha, best_alpha + cell);
  constexpr double kInvPhi = 0.6180339887498949;
  double x1 = hi - kInvPhi * (hi - lo);
  double x2 = lo + kInvPhi * (hi - lo);
  double f1 = allocating_cost(points, x1);
  double f2 = allocating_cost(points, x2);
  for (std::size_t round = 0; round < attack::kScaleSearchRefineRounds; ++round) {
    if (f1 < f2) {
      hi = x2;
      x2 = x1;
      f2 = f1;
      x1 = hi - kInvPhi * (hi - lo);
      f1 = allocating_cost(points, x1);
    } else {
      lo = x1;
      x1 = x2;
      f1 = f2;
      x2 = lo + kInvPhi * (hi - lo);
      f2 = allocating_cost(points, x2);
    }
  }
  const double refined = (f1 < f2) ? x1 : x2;
  return std::min(f1, f2) < best_cost ? refined : best_alpha;
}

/// The emulator's pooled scale-search input for one observed frame: the
/// kept bins of every 80-sample slot's FFT (CP skipped) at 20 MHz.
cvec pooled_points(std::span<const cplx> observed,
                   std::span<const std::size_t> bins) {
  cvec upsampled = dsp::upsample(observed, 5);
  upsampled.resize((upsampled.size() + 79) / 80 * 80, cplx{0.0, 0.0});
  const dsp::FftPlan plan(64);
  cvec pooled;
  for (std::size_t start = 0; start < upsampled.size(); start += 80) {
    const cvec spectrum =
        plan.forward(std::span<const cplx>(upsampled).subspan(start + 16, 64));
    for (std::size_t bin : bins) pooled.push_back(spectrum[bin]);
  }
  return pooled;
}

/// The resampler before the polyphase kernel, kept as the reference rows:
/// zero-stuff, filter every sample at full rate (all taps at every output,
/// through the same kernel at up = down = 1, the "same" filtering of the
/// old full convolution), then scale (upsample) or keep every fifth sample
/// (decimate).
cvec full_rate_upsample(std::span<const cplx> input, const rvec& taps) {
  cvec stuffed(input.size() * 5, cplx{0.0, 0.0});
  for (std::size_t i = 0; i < input.size(); ++i) stuffed[i * 5] = input[i];
  cvec out(stuffed.size());
  const dsp::kernels::KernelTable& kt = dsp::kernels::active();
  kt.resample(stuffed.data(), stuffed.size(), 1, 1, taps.data(), taps.size(),
              out.data(), out.size());
  kt.rscale(out.data(), out.size(), 5.0);
  return out;
}

cvec full_rate_decimate(std::span<const cplx> input, const rvec& taps) {
  cvec filtered(input.size());
  dsp::kernels::active().resample(input.data(), input.size(), 1, 1,
                                  taps.data(), taps.size(), filtered.data(),
                                  filtered.size());
  cvec out;
  for (std::size_t i = 0; i < filtered.size(); i += 5) {
    out.push_back(filtered[i]);
  }
  return out;
}

/// FftPlan's butterflies before the per-stage twiddle tables, kept as the
/// reference row: one N/2-entry table read at stride N/len, conjugated per
/// butterfly when inverting.
class StridedFft {
 public:
  explicit StridedFft(std::size_t size) : size_(size), twiddles_(size / 2) {
    for (std::size_t k = 0; k < size / 2; ++k) {
      const double angle =
          -kTwoPi * static_cast<double>(k) / static_cast<double>(size);
      twiddles_[k] = {std::cos(angle), std::sin(angle)};
    }
    std::size_t bits = 0;
    for (std::size_t probe = size; probe > 1; probe >>= 1) ++bits;
    for (std::size_t i = 0; i < size; ++i) {
      std::size_t reversed = 0;
      for (std::size_t b = 0; b < bits; ++b) {
        if (i & (std::size_t{1} << b)) {
          reversed |= std::size_t{1} << (bits - 1 - b);
        }
      }
      bit_reverse_.push_back(reversed);
    }
  }

  void transform(std::span<cplx> data, bool invert) const {
    for (std::size_t i = 0; i < size_; ++i) {
      if (i < bit_reverse_[i]) std::swap(data[i], data[bit_reverse_[i]]);
    }
    for (std::size_t len = 2; len <= size_; len <<= 1) {
      const std::size_t half = len / 2;
      const std::size_t stride = size_ / len;
      for (std::size_t start = 0; start < size_; start += len) {
        for (std::size_t k = 0; k < half; ++k) {
          cplx w = twiddles_[k * stride];
          if (invert) w = std::conj(w);
          const cplx even = data[start + k];
          const cplx odd = data[start + k + half] * w;
          data[start + k] = even + odd;
          data[start + k + half] = even - odd;
        }
      }
    }
    if (invert) {
      const double scale = 1.0 / static_cast<double>(size_);
      for (auto& value : data) value *= scale;
    }
  }

 private:
  std::size_t size_;
  cvec twiddles_;
  std::vector<std::size_t> bit_reverse_;
};

}  // namespace

int main(int argc, char** argv) {
  const bench::Options options = bench::parse_options(argc, argv);
  bench::print_banner(options, "Perf: hot-path kernels (despread / timing "
                               "grid / waveform cache / scale search / "
                               "resampling / FFT / noise / discriminator / "
                               "screen strip)");
  const std::size_t reps = options.trials_or(5);
  dsp::Rng rng = dsp::Rng::for_stream(options.seed, 0);

  sim::Table table({"kernel", "reference", "fast path", "ratio"});

  // -- despread: byte loop vs packed popcount -------------------------------
  // All 16 symbols, many repetitions, a couple of deterministic chip errors
  // per symbol so the Hamming loop does real work.
  std::vector<std::uint8_t> chips;
  const std::size_t symbol_reps = 2048;
  for (std::size_t r = 0; r < symbol_reps; ++r) {
    for (std::uint8_t s = 0; s < zigbee::kNumSymbols; ++s) {
      const auto& sequence = zigbee::chips_for_symbol(s);
      std::vector<std::uint8_t> block(sequence.begin(), sequence.end());
      block[(r + s) % zigbee::kChipsPerSymbol] ^= 1;
      block[(r + 2 * s + 7) % zigbee::kChipsPerSymbol] ^= 1;
      chips.insert(chips.end(), block.begin(), block.end());
    }
  }
  const std::size_t threshold = 10;
  const double despread_reference_ms = time_ms(reps, [&] {
    std::size_t accepted = 0;
    for (std::size_t offset = 0; offset < chips.size();
         offset += zigbee::kChipsPerSymbol) {
      const auto block = zigbee::despread_block_reference(
          std::span<const std::uint8_t>(chips).subspan(offset,
                                                       zigbee::kChipsPerSymbol),
          threshold);
      accepted += block.accepted ? 1 : 0;
    }
    g_sink = g_sink + static_cast<double>(accepted);
  });
  const double despread_packed_ms = time_ms(reps, [&] {
    std::size_t accepted = 0;
    for (std::size_t offset = 0; offset < chips.size();
         offset += zigbee::kChipsPerSymbol) {
      const auto block = zigbee::despread_block(
          std::span<const std::uint8_t>(chips).subspan(offset,
                                                       zigbee::kChipsPerSymbol),
          threshold);
      accepted += block.accepted ? 1 : 0;
    }
    g_sink = g_sink + static_cast<double>(accepted);
  });
  table.add_row({"despread (32k symbols)",
                 sim::Table::num(despread_reference_ms, 3) + " ms",
                 sim::Table::num(despread_packed_ms, 3) + " ms",
                 sim::Table::num(despread_reference_ms / despread_packed_ms, 2) +
                     "x"});

  // -- receive: per-call timing search vs construction-time grid ------------
  const auto frames = zigbee::make_text_workload(1);
  const cvec frame_waveform = zigbee::Transmitter().transmit_frame(frames[0]);
  zigbee::TransmitterConfig shr_config;
  shr_config.normalize_power = false;  // the receiver's reference amplitude
  const cvec shr_reference = zigbee::Transmitter(shr_config).shr_reference();
  zigbee::ReceiverConfig rx_config;
  const zigbee::Receiver receiver_untimed(rx_config);
  rx_config.timing_recovery = true;
  const zigbee::Receiver receiver_grid(rx_config);
  const double receive_percall_ms = time_ms(reps, [&] {
    const auto result = percall_timing_receive(frame_waveform, shr_reference,
                                               rx_config, receiver_untimed);
    g_sink = g_sink + (result.frame_ok() ? 1.0 : 0.0);
  });
  const double receive_grid_ms = time_ms(reps, [&] {
    const auto result = receiver_grid.receive(frame_waveform);
    g_sink = g_sink + (result.frame_ok() ? 1.0 : 0.0);
  });
  table.add_row({"receive w/ clock recovery",
                 sim::Table::num(receive_percall_ms, 3) + " ms",
                 sim::Table::num(receive_grid_ms, 3) + " ms",
                 sim::Table::num(receive_percall_ms / receive_grid_ms, 2) + "x"});

  // -- clean waveform: per-call synthesis vs memoized -----------------------
  // The emulated link is the expensive one (TX -> OFDM emulation -> power
  // normalization); cached calls only copy the stored waveform out. The
  // reference row runs that synthesis chain per call.
  sim::LinkConfig link_config;
  link_config.kind = sim::LinkKind::emulated;
  const sim::Link link_cached(link_config);
  link_cached.clean_waveform(frames[0]);  // fill outside the timed region
  const zigbee::Transmitter synthesis_tx;
  const attack::WaveformEmulator synthesis_emulator(link_config.emulator);
  const double clean_uncached_ms = time_ms(reps, [&] {
    const cvec waveform = dsp::normalize_power(
        synthesis_emulator.emulate(synthesis_tx.transmit_frame(frames[0]))
            .emulated_4mhz);
    g_sink = g_sink + waveform.front().real();
  });
  // One cached call takes a few microseconds, so a single call's minimum
  // follows allocator and cache state; time a batch per rep and divide.
  constexpr std::size_t kCachedBatch = 64;
  const double clean_cached_ms =
      time_ms(reps,
              [&] {
                for (std::size_t b = 0; b < kCachedBatch; ++b) {
                  const cvec waveform = link_cached.clean_waveform(frames[0]);
                  g_sink = g_sink + waveform.front().real();
                }
              }) /
      static_cast<double>(kCachedBatch);
  table.add_row({"clean_waveform (emulated)",
                 sim::Table::num(clean_uncached_ms, 3) + " ms",
                 sim::Table::num(clean_cached_ms, 3) + " ms",
                 sim::Table::num(clean_uncached_ms / clean_cached_ms, 2) + "x"});

  // -- QAM scale search: per-candidate allocating cost vs qam_cost ----------
  // One text frame's pooled points (about 1239) through Eq. 4's search,
  // then the whole emulation of that frame on the fast path.
  const attack::EmulationResult emulation =
      synthesis_emulator.emulate(frame_waveform);
  const cvec pooled = pooled_points(frame_waveform, emulation.kept_bins);
  const double emulate_ms = time_ms(reps, [&] {
    g_sink = g_sink +
             synthesis_emulator.emulate(frame_waveform).emulated_4mhz[0].real();
  });
  const double scale_search_reference_ms = time_ms(reps, [&] {
    g_sink = g_sink + per_candidate_search(pooled);
  });
  const double scale_search_fast_ms = time_ms(reps, [&] {
    g_sink = g_sink + attack::optimize_scale(pooled);
  });
  table.add_row({"QAM scale search (" + std::to_string(pooled.size()) +
                     " points)",
                 sim::Table::num(scale_search_reference_ms, 3) + " ms",
                 sim::Table::num(scale_search_fast_ms, 3) + " ms",
                 sim::Table::num(
                     scale_search_reference_ms / scale_search_fast_ms, 2) +
                     "x"});
  table.add_row({"emulate (one text frame)", "-",
                 sim::Table::num(emulate_ms, 3) + " ms", "-"});

  // -- x5 resampling: full-rate convolution vs the polyphase kernel --------
  // The text frame up to 20 MHz, and its emulated 20 MHz waveform back
  // down, 16 times per run; ns per output sample.
  const rvec resample_taps = dsp::design_lowpass(0.1, 61);
  const std::size_t resample_passes = 16;
  const cvec& wifi_20mhz = emulation.wifi_waveform_20mhz;
  const double upsample_reference_ms = time_ms(reps, [&] {
    for (std::size_t p = 0; p < resample_passes; ++p) {
      g_sink = g_sink +
               full_rate_upsample(frame_waveform, resample_taps)[7].real();
    }
  });
  const double upsample_fast_ms = time_ms(reps, [&] {
    for (std::size_t p = 0; p < resample_passes; ++p) {
      g_sink = g_sink + dsp::upsample(frame_waveform, 5)[7].real();
    }
  });
  const double decimate_reference_ms = time_ms(reps, [&] {
    for (std::size_t p = 0; p < resample_passes; ++p) {
      g_sink = g_sink + full_rate_decimate(wifi_20mhz, resample_taps)[7].real();
    }
  });
  const double decimate_fast_ms = time_ms(reps, [&] {
    for (std::size_t p = 0; p < resample_passes; ++p) {
      g_sink = g_sink + dsp::decimate(wifi_20mhz, 5)[7].real();
    }
  });
  const double upsample_ns_per_ms =
      1e6 / static_cast<double>(resample_passes * frame_waveform.size() * 5);
  const double decimate_ns_per_ms =
      1e6 / static_cast<double>(resample_passes *
                                ((wifi_20mhz.size() + 4) / 5));
  table.add_row({"upsample x5 (16 frames)",
                 sim::Table::num(upsample_reference_ms, 3) + " ms",
                 sim::Table::num(upsample_fast_ms, 3) + " ms",
                 sim::Table::num(upsample_reference_ms / upsample_fast_ms, 2) +
                     "x"});
  table.add_row({"decimate x5 (16 frames)",
                 sim::Table::num(decimate_reference_ms, 3) + " ms",
                 sim::Table::num(decimate_fast_ms, 3) + " ms",
                 sim::Table::num(decimate_reference_ms / decimate_fast_ms, 2) +
                     "x"});

  // -- 64-point FFT: strided twiddles vs per-stage tables -------------------
  // 1024 forward and 1024 inverse transforms of one slot per run, each
  // from a fresh copy of the slot; ns per transform.
  const std::size_t fft_passes = 1024;
  const cvec fft_slot(wifi_20mhz.begin() + 16, wifi_20mhz.begin() + 80);
  cvec fft_buf(64);
  const StridedFft strided_fft(64);
  const dsp::FftPlan fft_plan(64);
  const double fft64_reference_ms = time_ms(reps, [&] {
    for (std::size_t p = 0; p < fft_passes; ++p) {
      std::copy(fft_slot.begin(), fft_slot.end(), fft_buf.begin());
      strided_fft.transform(fft_buf, /*invert=*/(p & 1) != 0);
      g_sink = g_sink + fft_buf[3].real();
    }
  });
  const double fft64_fast_ms = time_ms(reps, [&] {
    for (std::size_t p = 0; p < fft_passes; ++p) {
      std::copy(fft_slot.begin(), fft_slot.end(), fft_buf.begin());
      if ((p & 1) != 0) {
        fft_plan.inverse_inplace(fft_buf);
      } else {
        fft_plan.forward_inplace(fft_buf);
      }
      g_sink = g_sink + fft_buf[3].real();
    }
  });
  const double fft64_ns_per_ms = 1e6 / static_cast<double>(fft_passes);
  table.add_row({"FFT 64 (1024 transforms)",
                 sim::Table::num(fft64_reference_ms, 3) + " ms",
                 sim::Table::num(fft64_fast_ms, 3) + " ms",
                 sim::Table::num(fft64_reference_ms / fft64_fast_ms, 2) + "x"});

  // -- channel noise: per-sample libm draws vs the add_gauss kernel ---------
  // 64 frame-length buffers, each on its own trial stream like the engine's
  // trials. The reference is noise stream 1's loop (one libm Box–Muller
  // pair per sample); the fast path is stream 2 on the active kernel table.
  const std::size_t noise_frames = 64;
  const std::size_t noise_len = frame_waveform.size();
  cvec noise_buf(noise_len);
  const double noise_reference_ms = time_ms(reps, [&] {
    for (std::size_t f = 0; f < noise_frames; ++f) {
      dsp::Rng trial_rng = dsp::Rng::for_stream(options.seed, f);
      for (auto& x : noise_buf) x += trial_rng.complex_gaussian(0.1);
    }
    g_sink = g_sink + noise_buf.back().real();
  });
  const double noise_fast_ms = time_ms(reps, [&] {
    for (std::size_t f = 0; f < noise_frames; ++f) {
      dsp::Rng trial_rng = dsp::Rng::for_stream(options.seed, f);
      trial_rng.add_complex_gaussian(noise_buf, 0.1);
    }
    g_sink = g_sink + noise_buf.back().real();
  });
  const double ns_per_sample_per_ms =
      1e6 / static_cast<double>(noise_frames * noise_len);
  table.add_row({"channel noise (64 frames)",
                 sim::Table::num(noise_reference_ms, 3) + " ms",
                 sim::Table::num(noise_fast_ms, 3) + " ms",
                 sim::Table::num(noise_reference_ms / noise_fast_ms, 2) + "x"});

  // -- FM discriminator: per-step libm atan2 vs the fm_discriminate kernel --
  // 64 text frames at 12 dB, each on its own trial stream, demodulated to
  // their 1408 discriminator chips through discriminator 1's loop and
  // through OqpskDemodulator::frequency_chips on the active kernel table.
  const zigbee::OqpskDemodulator demodulator(2);
  const std::size_t disc_chips = noise_len / 2 - 1;
  std::vector<cvec> disc_frames(noise_frames, frame_waveform);
  for (std::size_t f = 0; f < noise_frames; ++f) {
    dsp::Rng trial_rng = dsp::Rng::for_stream(options.seed, f);
    trial_rng.add_complex_gaussian(disc_frames[f], std::pow(10.0, -1.2));
  }
  const double disc_reference_ms = time_ms(reps, [&] {
    for (const cvec& frame : disc_frames) {
      g_sink = g_sink + libm_frequency_chips(frame, disc_chips, 2).back();
    }
  });
  const double disc_fast_ms = time_ms(reps, [&] {
    for (const cvec& frame : disc_frames) {
      g_sink = g_sink + demodulator.frequency_chips(frame, disc_chips).back();
    }
  });
  table.add_row({"FM discriminator (64 frames)",
                 sim::Table::num(disc_reference_ms, 3) + " ms",
                 sim::Table::num(disc_fast_ms, 3) + " ms",
                 sim::Table::num(disc_reference_ms / disc_fast_ms, 2) + "x"});

  // -- receive: the default Receiver on one 12 dB frame per link kind -------
  // What every workload decodes with (spc = 2, the usrp differential
  // profile, the discriminator tap): one authentic and one emulated text
  // frame through AWGN, decoded 32 times per run, best of the runs.
  double receive_frame_ms = 0.0;
  std::size_t receive_frame_samples = 0;
  {
    const zigbee::Receiver receiver;
    sim::LinkConfig authentic_config;
    authentic_config.kind = sim::LinkKind::authentic;
    const sim::Link authentic_link(authentic_config);
    dsp::Rng channel_rng = dsp::Rng::for_stream(options.seed, 1);
    const channel::Environment awgn12 = channel::Environment::awgn(12.0);
    const std::vector<cvec> received = {
        awgn12.propagate(authentic_link.clean_waveform(frames[0]), channel_rng),
        awgn12.propagate(link_cached.clean_waveform(frames[0]), channel_rng)};
    const std::size_t passes = 32;
    for (const cvec& frame : received) {
      receive_frame_samples += passes * frame.size();
    }
    receive_frame_ms = time_ms(reps, [&] {
      for (std::size_t p = 0; p < passes; ++p) {
        for (const cvec& frame : received) {
          g_sink = g_sink + (receiver.receive(frame).frame_ok() ? 1.0 : 0.0);
        }
      }
    });
  }
  const double receive_frame_ns_per_sample =
      receive_frame_ms * 1e6 / static_cast<double>(receive_frame_samples);
  table.add_row({"receive (12 dB authentic + emulated, x32)", "-",
                 sim::Table::num(receive_frame_ms, 3) + " ms (" +
                     sim::Table::num(receive_frame_ns_per_sample, 2) +
                     " ns/sample)",
                 "-"});

  // -- dsp::kernels: scalar table vs best dispatched table ------------------
  // Times each hot kernel at both dispatch levels on the same buffers and
  // reports ns/sample alongside the ratio. Levels are requested explicitly
  // (not via CTC_SIMD) so the bench output is independent of the
  // environment; on a machine without AVX2 both columns run the scalar
  // table and the ratios sit at ~1.
  const dsp::kernels::SimdLevel best_level =
      dsp::kernels::best_supported_level();
  const dsp::kernels::KernelTable& scalar_kt =
      dsp::kernels::table(dsp::kernels::SimdLevel::scalar);
  const dsp::kernels::KernelTable& best_kt = dsp::kernels::table(best_level);

  struct KernelTiming {
    std::string key;      // JSON prefix, e.g. "fir_kernel"
    std::string label;    // table row label
    double scalar_ms = 0.0;
    double simd_ms = 0.0;
    std::size_t samples = 0;  // per run, for ns/sample
  };
  std::vector<KernelTiming> kernel_timings;
  const auto time_kernel = [&](std::string key, std::string label,
                               std::size_t samples, auto&& run) {
    KernelTiming timing;
    timing.key = std::move(key);
    timing.label = std::move(label);
    timing.samples = samples;
    timing.scalar_ms = time_ms(reps, [&] { run(scalar_kt); });
    timing.simd_ms = time_ms(reps, [&] { run(best_kt); });
    kernel_timings.push_back(std::move(timing));
  };

  // resample: the emulator's x5 upsampling of one text frame (61 taps).
  {
    const std::size_t n = frame_waveform.size();
    cvec out(n * 5);
    time_kernel("fir_kernel", "kernel resample (x5 up, one frame)", n * 5,
                [&](const dsp::kernels::KernelTable& kt) {
                  kt.resample(frame_waveform.data(), n, 5, 1,
                              resample_taps.data(), resample_taps.size(),
                              out.data(), out.size());
                  g_sink = g_sink + out.back().real();
                });
  }

  // rotate: the CFO mixer shape.
  {
    const std::size_t n = 65536;
    cvec in(n), out(n);
    for (auto& x : in) x = rng.complex_gaussian(1.0);
    time_kernel("rotate_kernel", "kernel rotate (n=65536)", n,
                [&](const dsp::kernels::KernelTable& kt) {
                  g_sink = g_sink + kt.rotate(in.data(), n, out.data(), 0.25,
                                              1e-3);
                });
  }

  // oqpsk_mf: matched filter over a long chip stream at 4 samples/chip.
  {
    const std::size_t spc = 4, num_chips = 16384;
    const rvec pulse = dsp::half_sine_pulse(spc);
    double pulse_energy = 0.0;
    for (double p : pulse) pulse_energy += p * p;
    cvec wave((num_chips + 1) * spc);
    for (auto& x : wave) x = rng.complex_gaussian(1.0);
    rvec soft(num_chips);
    time_kernel("oqpsk_mf_kernel", "kernel oqpsk_mf (16k chips, spc=4)",
                num_chips * spc, [&](const dsp::kernels::KernelTable& kt) {
                  kt.oqpsk_mf(wave.data(), num_chips, spc, pulse.data(),
                              pulse.size(), pulse_energy, soft.data());
                  g_sink = g_sink + soft.back();
                });
  }

  // energy: the synchronizer's sliding-window reduction shape.
  {
    const std::size_t n = 65536;
    cvec buf(n);
    for (auto& x : buf) x = rng.complex_gaussian(1.0);
    time_kernel("energy_kernel", "kernel energy (n=65536)", n,
                [&](const dsp::kernels::KernelTable& kt) {
                  g_sink = g_sink + kt.energy(buf.data(), n);
                });
  }

  // despread_words: the packed-correlation core, all 16 rows per word.
  {
    const std::size_t blocks = chips.size() / zigbee::kChipsPerSymbol;
    std::vector<std::uint32_t> packed(blocks);
    best_kt.pack_hard_chips(chips.data(), blocks, packed.data());
    std::vector<std::uint8_t> symbols(blocks), distances(blocks);
    time_kernel("despread_kernel", "kernel despread_words (32k words)",
                blocks * zigbee::kChipsPerSymbol,
                [&](const dsp::kernels::KernelTable& kt) {
                  kt.despread_words(packed.data(), blocks,
                                    zigbee::packed_chip_table().data(),
                                    ~std::uint32_t{0}, symbols.data(),
                                    distances.data());
                  g_sink = g_sink + static_cast<double>(distances.back());
                });
  }

  // cumulant_acc: the defense feature-extraction reduction.
  {
    const std::size_t n = 65536;
    cvec buf(n);
    for (auto& x : buf) x = rng.complex_gaussian(1.0);
    time_kernel("cumulant_kernel", "kernel cumulant_acc (n=65536)", n,
                [&](const dsp::kernels::KernelTable& kt) {
                  dsp::kernels::CumulantLanes lanes;
                  kt.cumulant_acc(buf.data(), n, &lanes);
                  g_sink = g_sink + lanes.fold().sum_abs4;
                });
  }

  // add_gauss: channel noise onto one long buffer; every run starts from
  // the same lane states, so both levels draw identical noise.
  {
    const std::size_t n = 65536;
    cvec buf(n, cplx{0.0, 0.0});
    dsp::kernels::GaussLanes seeded{};
    for (auto& word : seeded.s) {
      for (auto& lane : word) lane = rng.next_u64();
    }
    time_kernel("add_gauss_kernel", "kernel add_gauss (n=65536)", n,
                [&](const dsp::kernels::KernelTable& kt) {
                  dsp::kernels::GaussLanes lanes = seeded;
                  kt.add_gauss(buf.data(), n, 0.3, &lanes);
                  g_sink = g_sink + buf.back().real();
                });
  }

  // fm_discriminate: a long noisy chip stream at 2 samples/chip.
  {
    const std::size_t spc = 2, num_chips = 32768;
    cvec wave(num_chips * spc + 1);
    for (auto& x : wave) x = rng.complex_gaussian(1.0);
    rvec freq(num_chips);
    time_kernel("fm_discriminate_kernel",
                "kernel fm_discriminate (32k chips, spc=2)", num_chips * spc,
                [&](const dsp::kernels::KernelTable& kt) {
                  kt.fm_discriminate(wave.data(), num_chips, spc, freq.data());
                  g_sink = g_sink + freq.back();
                });
  }

  // cdiv: the equalizer's division of one received 12 dB text frame by a
  // receiver-like channel estimate, 64 times per run. Every run restarts
  // from the received frame, so both levels divide the same values.
  {
    const std::size_t passes = 64;
    const cvec& received = disc_frames.front();
    const cplx h{0.99, 0.003};
    cvec buf(received.size());
    time_kernel("cdiv_kernel",
                "kernel cdiv (" + std::to_string(received.size()) +
                    "-sample frame x64)",
                passes * received.size(),
                [&](const dsp::kernels::KernelTable& kt) {
                  std::copy(received.begin(), received.end(), buf.begin());
                  for (std::size_t p = 0; p < passes; ++p) {
                    kt.cdiv(buf.data(), buf.size(), h, buf.data());
                  }
                  g_sink = g_sink + buf.back().real();
                });
  }

  // chip_strip: one scan round's frame-sync screen strip, 2449 offsets at
  // spc = 2 against the repeated preamble segment, 64 times per run. The
  // reference is the arithmetic the strip replaced: one 64-sample dot_conj
  // per offset on the best table.
  double strip_reference_ms = 0.0;
  {
    const std::size_t passes = 64, offsets = 2449, spc = 2;
    const std::size_t seg = zigbee::kChipsPerSymbol * spc;
    const cvec shr = zigbee::Transmitter({.samples_per_chip = spc,
                                          .normalize_power = true})
                         .shr_reference();
    const cvec segment(shr.begin() + seg, shr.begin() + 2 * seg);
    const rvec pulse = dsp::half_sine_pulse(spc);
    cvec stream(offsets + seg - 1);
    for (auto& x : stream) x = rng.complex_gaussian(1.0);
    cvec strip(offsets);
    rvec work(dsp::kernels::chip_strip_work(offsets, spc));
    strip_reference_ms = time_ms(reps, [&] {
      for (std::size_t p = 0; p < passes; ++p) {
        for (std::size_t s = 0; s < offsets; ++s) {
          strip[s] = best_kt.dot_conj(stream.data() + s, segment.data(), seg);
        }
      }
      g_sink = g_sink + strip.back().real();
    });
    time_kernel("screen_strip_kernel",
                "kernel chip_strip (2449 offsets x64, spc=2)",
                passes * offsets, [&](const dsp::kernels::KernelTable& kt) {
                  for (std::size_t p = 0; p < passes; ++p) {
                    kt.chip_strip(stream.data(), offsets, spc, pulse.data(),
                                  zigbee::packed_chip_table()[0], work.data(),
                                  strip.data());
                  }
                  g_sink = g_sink + strip.back().real();
                });
  }
  const KernelTiming& strip_timing = kernel_timings.back();
  table.add_row({"screen strip (2449 offsets x64)",
                 sim::Table::num(strip_reference_ms, 3) + " ms",
                 sim::Table::num(strip_timing.simd_ms, 3) + " ms",
                 sim::Table::num(strip_reference_ms / strip_timing.simd_ms, 2) +
                     "x"});

  for (const KernelTiming& timing : kernel_timings) {
    table.add_row({timing.label, sim::Table::num(timing.scalar_ms, 3) + " ms",
                   sim::Table::num(timing.simd_ms, 3) + " ms",
                   sim::Table::num(timing.scalar_ms / timing.simd_ms, 2) +
                       "x"});
  }

  table.print();

  bench::JsonReport report(options, "perf_hotpath");
  report.set("simd_level", std::string(dsp::kernels::level_name(best_level)));
  report.set("reps", static_cast<std::uint64_t>(reps));
  report.set("despread_reference_ms", despread_reference_ms);
  report.set("despread_packed_ms", despread_packed_ms);
  report.set("despread_speedup", despread_reference_ms / despread_packed_ms);
  report.set("receive_percall_ms", receive_percall_ms);
  report.set("receive_grid_ms", receive_grid_ms);
  report.set("receive_speedup", receive_percall_ms / receive_grid_ms);
  report.set("clean_uncached_ms", clean_uncached_ms);
  report.set("clean_cached_ms", clean_cached_ms);
  report.set("clean_speedup", clean_uncached_ms / clean_cached_ms);
  report.set("scale_search_reference_ms", scale_search_reference_ms);
  report.set("scale_search_fast_ms", scale_search_fast_ms);
  report.set("scale_search_speedup",
             scale_search_reference_ms / scale_search_fast_ms);
  report.set("emulate_ms", emulate_ms);
  report.set("upsample_reference_ns_per_sample",
             upsample_reference_ms * upsample_ns_per_ms);
  report.set("upsample_fast_ns_per_sample",
             upsample_fast_ms * upsample_ns_per_ms);
  report.set("upsample_speedup", upsample_reference_ms / upsample_fast_ms);
  report.set("decimate_reference_ns_per_sample",
             decimate_reference_ms * decimate_ns_per_ms);
  report.set("decimate_fast_ns_per_sample",
             decimate_fast_ms * decimate_ns_per_ms);
  report.set("decimate_speedup", decimate_reference_ms / decimate_fast_ms);
  report.set("fft64_reference_ns", fft64_reference_ms * fft64_ns_per_ms);
  report.set("fft64_fast_ns", fft64_fast_ms * fft64_ns_per_ms);
  report.set("fft64_speedup", fft64_reference_ms / fft64_fast_ms);
  report.set("noise_reference_ms", noise_reference_ms);
  report.set("noise_fast_ms", noise_fast_ms);
  report.set("noise_speedup", noise_reference_ms / noise_fast_ms);
  report.set("noise_reference_ns_per_sample",
             noise_reference_ms * ns_per_sample_per_ms);
  report.set("noise_fast_ns_per_sample", noise_fast_ms * ns_per_sample_per_ms);
  report.set("discriminator_reference_ms", disc_reference_ms);
  report.set("discriminator_fast_ms", disc_fast_ms);
  report.set("discriminator_speedup", disc_reference_ms / disc_fast_ms);
  report.set("discriminator_reference_ns_per_sample",
             disc_reference_ms * ns_per_sample_per_ms);
  report.set("discriminator_fast_ns_per_sample",
             disc_fast_ms * ns_per_sample_per_ms);
  report.set("receive_frame_ms", receive_frame_ms);
  report.set("receive_frame_ns_per_sample", receive_frame_ns_per_sample);
  report.set("screen_strip_reference_ms", strip_reference_ms);
  report.set("screen_strip_reference_ns_per_sample",
             strip_reference_ms * 1e6 / static_cast<double>(strip_timing.samples));
  report.set("screen_strip_speedup", strip_reference_ms / strip_timing.simd_ms);
  for (const KernelTiming& timing : kernel_timings) {
    const double per_sample = 1e6 / static_cast<double>(timing.samples);
    report.set(timing.key + "_scalar_ms", timing.scalar_ms);
    report.set(timing.key + "_simd_ms", timing.simd_ms);
    report.set(timing.key + "_speedup", timing.scalar_ms / timing.simd_ms);
    report.set(timing.key + "_scalar_ns_per_sample",
               timing.scalar_ms * per_sample);
    report.set(timing.key + "_simd_ns_per_sample",
               timing.simd_ms * per_sample);
  }
  bench::finish(report, options);
  return 0;
}
