#include "sentry/frame_sync.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "dsp/kernels/kernels.h"
#include "dsp/pulse.h"
#include "dsp/require.h"
#include "sim/telemetry.h"
#include "zigbee/chip_sequences.h"
#include "zigbee/transmitter.h"

namespace ctc::sentry {

StreamScanner::StreamScanner(ScannerConfig config, std::size_t channel,
                             VerdictFn on_verdict)
    : config_(std::move(config)),
      channel_(channel),
      on_verdict_(std::move(on_verdict)),
      receiver_(config_.receiver),
      detector_(config_.detector) {
  CTC_REQUIRE(config_.scan_span > 0);
  CTC_REQUIRE(config_.max_psdu_bytes >= 1);
  CTC_REQUIRE(config_.max_psdu_bytes <= zigbee::kMaxPsduBytes);
  const zigbee::Transmitter tx(
      {.samples_per_chip = config_.receiver.samples_per_chip,
       .normalize_power = true});
  shr_reference_ = tx.shr_reference();
  window_ = shr_reference_.size();
  reference_energy_ =
      dsp::kernels::active().energy(shr_reference_.data(), window_);
  // A threshold crossing can land a few samples before the true correlation
  // peak (the metric is smooth across sub-chip offsets); half a symbol of
  // hill-climb headroom refines it without ever re-deciding earlier offsets.
  guard_ = 8 * config_.receiver.samples_per_chip;
  frame_need_ =
      ppdu_samples(config_.max_psdu_bytes, config_.receiver.samples_per_chip);

  // Preamble-structure screen setup. The SHR is eight identical preamble
  // symbols followed by the SFD: with the O-QPSK half-sine pulse confined to
  // two chip periods, every preamble symbol after the first reproduces the
  // same sample block exactly (the first differs only in its leading chip,
  // which has no predecessor), and that block is one period of the periodic
  // waveform of symbol 0's chips, which is what the chip_strip kernel
  // correlates against. Both facts hold at every samples_per_chip; verify
  // them rather than assume them, since the screen's bound rests on them.
  const std::size_t spc = config_.receiver.samples_per_chip;
  seg_len_ = zigbee::kChipsPerSymbol * spc;
  preamble_len_ = 2 * zigbee::kPreambleBytes * seg_len_;
  CTC_REQUIRE_MSG(window_ > preamble_len_ && preamble_len_ == 8 * seg_len_,
                  "SHR reference is not eight preamble symbols plus the SFD");
  for (std::size_t k = 2; k < 8; ++k) {
    CTC_REQUIRE_MSG(std::memcmp(shr_reference_.data() + seg_len_,
                                shr_reference_.data() + k * seg_len_,
                                seg_len_ * sizeof(cplx)) == 0,
                    "SHR preamble symbols do not repeat");
  }
  // Rebuild the repeated segment from (pulse, chip signs) and compare value
  // for value; == rather than memcmp, so the signed zeros of the
  // pulse[0] = 0 tap do not matter. Sample m of the segment carries chip
  // m / spc at tap m % spc and the chip before it (chip 31 for the first)
  // at tap m % spc + spc, each on I for an even chip and on Q for an odd.
  pulse_ = dsp::half_sine_pulse(spc);
  preamble_chips_ = zigbee::packed_chip_table()[0];
  const auto amplitude = [&](std::size_t chip) {
    return ((preamble_chips_ >> chip) & 1U) != 0 ? 1.0 : -1.0;
  };
  for (std::size_t m = 0; m < seg_len_; ++m) {
    const std::size_t chip = m / spc;
    const std::size_t tap = m % spc;
    const double lead = amplitude(chip) * pulse_[tap];
    const double trail =
        amplitude((chip + zigbee::kChipsPerSymbol - 1) %
                  zigbee::kChipsPerSymbol) *
        pulse_[tap + spc];
    const cplx rebuilt = chip % 2 == 0 ? cplx{lead, trail} : cplx{trail, lead};
    const cplx stored = shr_reference_[seg_len_ + m];
    CTC_REQUIRE_MSG(rebuilt.real() == stored.real() &&
                        rebuilt.imag() == stored.imag(),
                    "SHR preamble segment does not rebuild from its chips");
  }
  const dsp::kernels::KernelTable& kt = dsp::kernels::active();
  seg0_energy_ = kt.energy(shr_reference_.data(), seg_len_);
  tail_energy_ = kt.energy(shr_reference_.data() + preamble_len_,
                           window_ - preamble_len_);
}

std::size_t StreamScanner::ppdu_samples(std::size_t psdu_bytes,
                                        std::size_t samples_per_chip) {
  // SHR (preamble + SFD) + PHR = kPreambleBytes + 2 bytes, two symbols per
  // byte; the O-QPSK half-sine tail adds one chip period.
  const std::size_t symbols = (zigbee::kPreambleBytes + 2 + psdu_bytes) * 2;
  return (symbols * zigbee::kChipsPerSymbol + 1) * samples_per_chip;
}

void StreamScanner::push(std::span<const cplx> samples,
                         std::size_t queue_depth,
                         std::uint64_t dropped_so_far) {
  stats_.samples_in += samples.size();
  last_queue_depth_ = queue_depth;
  last_dropped_ = dropped_so_far;
  CTC_TELEM_COUNT("sentry", "samples_in", samples.size());
  buffer_.insert(buffer_.end(), samples.begin(), samples.end());
  // Incremental frame-sync state: each sample's |x|^2 is computed exactly
  // once, on arrival. Scan rounds overlap by window_ - 1 + guard_ samples,
  // so the pre-cache scanner recomputed these norms once per overlapping
  // round; now they are loads.
  const std::size_t old_size = norms_.size();
  norms_.resize(buffer_.size());
  for (std::size_t i = old_size; i < buffer_.size(); ++i) {
    norms_[i] = std::norm(buffer_[i]);
  }
  advance(false);
}

void StreamScanner::flush() { advance(true); }

void StreamScanner::advance(bool flushing) {
  for (;;) {
    if (pending_sync_ != kNoPendingSync) {
      const bool ready = avail() >= pending_sync_ + frame_need_;
      if (!ready && !flushing) return;
      if (!ready && avail() <= pending_sync_) {
        // Flushing and even the frame start fell off the stream end.
        consume(avail());
        pending_sync_ = kNoPendingSync;
        return;
      }
      const std::size_t offset = pending_sync_;
      pending_sync_ = kNoPendingSync;
      decode_at(offset);
      continue;
    }
    if (!scan_round(flushing)) return;
  }
}

bool StreamScanner::scan_round(bool flushing) {
  // A full round needs every offset in [0, scan_span) to see a complete
  // correlation window, plus the hill-climb guard. The requirement is a
  // fixed sample count, which is what makes the scanner's decisions
  // independent of how the stream was chopped into push() blocks.
  const std::size_t full_need = config_.scan_span + window_ - 1 + guard_;
  if (!flushing && avail() < full_need) return false;
  if (avail() == 0) return false;

  std::size_t limit = 0;
  if (avail() >= window_) {
    limit = std::min(config_.scan_span, avail() - window_ + 1);
  }
  if (limit == 0) {
    // Flushing with a sub-window tail: nothing left can synchronize.
    consume(avail());
    return true;
  }

  ++stats_.scan_rounds;
  CTC_TELEM_TIMER("sentry", "scan_ns");
  const dsp::kernels::KernelTable& kt = dsp::kernels::active();
  const std::size_t search_end =
      std::min(avail() - window_, limit - 1 + guard_);

  // Sliding window energy via prefix sums: O(1) per offset instead of a
  // second O(window) reduction. The running sum reads the cached per-sample
  // norms but is still anchored at this round's first offset and added in
  // the same left-to-right order, so every window energy is bit-identical
  // to the pre-cache scanner (a persistent epoch-anchored prefix would not
  // be: float prefix differences depend on the anchor).
  energy_prefix_.resize(search_end + window_ + 1);
  energy_prefix_[0] = 0.0;
  const double* norms = norms_.data() + start_;
  for (std::size_t i = 0; i < search_end + window_; ++i) {
    energy_prefix_[i + 1] = energy_prefix_[i] + norms[i];
  }
  const auto window_energy = [&](std::size_t offset) {
    return energy_prefix_[offset + window_] - energy_prefix_[offset];
  };
  std::uint64_t exact = 0;  // full-window correlations this round
  const auto metric_at = [&](std::size_t offset) {
    ++exact;
    const cplx correlation =
        kt.dot_conj(data() + offset, shr_reference_.data(), window_);
    return std::norm(correlation) /
           (window_energy(offset) * reference_energy_);
  };

  // Preamble-structure screen. One chip_strip pass correlates the stream
  // against the repeated preamble segment at every offset the round can
  // touch (including each offset's seven segment-aligned echoes). For a
  // candidate offset o, the full-window correlation splits exactly (in real
  // arithmetic) into the head segment, seven repeated segments, and the
  // SFD/tail remainder:
  //
  //   |dot(o)| <= sqrt(7 * sum_k |c(o + k*seg)|^2)        (triangle + C-S
  //             + sqrt(E_sig(o, seg)        * E_seg0)      over segments,
  //             + sqrt(E_sig(o+8seg, tail)  * E_tail)      C-S on the rest)
  //
  // The strip sums the same reference values as dot_conj, grouped by chips
  // instead of by samples, so the two differ only by rounding: O(window *
  // eps) ~ 1e-13 of sum |x||r|, like the exact kernel's own summation
  // error. The 1e-6 slack swamps both, so a bound below a value proves the
  // exact metric is below it too. Offsets under the energy gate get a -inf
  // bound; a NaN bound (NaN or Inf samples in the window) is never a
  // reason to skip, so such offsets run the exact metric as they always
  // have.
  const std::size_t spc = config_.receiver.samples_per_chip;
  const std::size_t strip = search_end + 6 * seg_len_ + 1;
  corr_strip_.resize(strip);
  strip_work_.resize(dsp::kernels::chip_strip_work(strip, spc));
  kt.chip_strip(data() + seg_len_, strip, spc, pulse_.data(), preamble_chips_,
                strip_work_.data(), corr_strip_.data());
  bounds_.resize(search_end + 1);
  for (std::size_t offset = 0; offset <= search_end; ++offset) {
    const double we = window_energy(offset);
    if (we <= config_.energy_gate) {
      bounds_[offset] = -std::numeric_limits<double>::infinity();
      continue;
    }
    double seg_power = 0.0;
    for (std::size_t k = 0; k < 7; ++k) {
      seg_power += std::norm(corr_strip_[offset + k * seg_len_]);
    }
    const double head =
        energy_prefix_[offset + seg_len_] - energy_prefix_[offset];
    const double tail = energy_prefix_[offset + window_] -
                        energy_prefix_[offset + preamble_len_];
    const double bound = std::sqrt(7.0 * seg_power) +
                         std::sqrt(head * seg0_energy_) +
                         std::sqrt(tail * tail_energy_);
    bounds_[offset] = bound * bound * (1.0 + 1e-6) / (we * reference_energy_);
  }

  // Best-first argmax. The answer is the first offset with the largest
  // metric at or above the threshold. The exact metric runs first where the
  // bound is largest, which is almost always the true peak, and then an
  // index-order sweep runs it only where the bound can still beat the
  // incumbent: left of it a tie wins on index, so bound >= best_metric;
  // right of it only bound > best_metric. An offset replaces the incumbent
  // on a greater metric, or on an equal one at a lower index, so the result
  // is the index-order first maximum whatever order the metrics ran in.
  const double threshold = config_.sync_threshold;
  std::size_t best = kNoPendingSync;
  double best_metric = 0.0;
  const auto consider = [&](std::size_t offset) {
    const double metric = metric_at(offset);
    if (metric >= threshold &&
        (metric > best_metric ||
         (metric == best_metric && best != kNoPendingSync && offset < best))) {
      best = offset;
      best_metric = metric;
    }
  };
  std::size_t first = kNoPendingSync;
  double top = -std::numeric_limits<double>::infinity();
  for (std::size_t offset = 0; offset < limit; ++offset) {
    if (bounds_[offset] > top) {
      top = bounds_[offset];
      first = offset;
    }
  }
  if (first != kNoPendingSync && top >= threshold) consider(first);
  for (std::size_t offset = 0; offset < limit; ++offset) {
    const double bound = bounds_[offset];
    if (offset == first || bound < threshold) continue;
    if (best != kNoPendingSync &&
        (offset < best ? bound < best_metric : bound <= best_metric)) {
      continue;
    }
    consider(offset);
  }

  if (best == kNoPendingSync) {
    ++stats_.sync_misses;
    stats_.sync_exact += exact;
    CTC_TELEM_COUNT("sentry", "sync_miss", 1);
    CTC_TELEM_COUNT("sentry", "sync_exact", exact);
    consume(limit);
    return true;
  }

  // Hill-climb past the round edge: whenever the argmax advances, the
  // horizon extends another guard_ offsets (never beyond search_end).
  std::size_t horizon = std::min(best + guard_, search_end);
  for (std::size_t offset = best + 1; offset <= horizon; ++offset) {
    if (bounds_[offset] <= best_metric) {
      continue;  // bound can't beat the incumbent, so neither can the metric
    }
    if (const double metric = metric_at(offset); metric > best_metric) {
      best = offset;
      best_metric = metric;
      horizon = std::min(best + guard_, search_end);
    }
  }

  ++stats_.frames_detected;
  stats_.sync_exact += exact;
  CTC_TELEM_COUNT("sentry", "frame_detected", 1);
  CTC_TELEM_COUNT("sentry", "sync_exact", exact);
  pending_sync_ = best;
  return true;
}

void StreamScanner::decode_at(std::size_t offset) {
  CTC_TELEM_TIMER("sentry", "frame_ns");
  const std::size_t have = avail() - offset;
  const std::size_t take = std::min(have, frame_need_);
  std::optional<zigbee::ReceiveResult> decoded;
  {
    CTC_TELEM_TIMER("sentry", "decode_ns");
    decoded = receiver_.receive(std::span<const cplx>(data() + offset, take));
  }
  const zigbee::ReceiveResult& rx = *decoded;

  // False sync (or a truncated tail): skip past the correlated window so
  // the next round starts on fresh samples.
  std::size_t consumed = std::min(window_, have);
  if (rx.phr_ok) {
    ++stats_.frames_decoded;
    if (rx.frame_ok()) ++stats_.frames_ok;
    CTC_TELEM_COUNT("sentry", "frame_decoded", 1);
    consumed = std::min(
        ppdu_samples(rx.psdu.size(), config_.receiver.samples_per_chip), take);

    const rvec& chips =
        config_.tap == ScanTap::discriminator ? rx.freq_chips : rx.soft_chips;
    std::optional<defense::Verdict> verdict;
    {
      CTC_TELEM_TIMER("sentry", "classify_ns");
      detector_.begin_frame();
      detector_.push_chips(chips);
      verdict = detector_.verdict(config_.min_points);
    }

    VerdictRecord record;
    record.channel = channel_;
    record.frame_index = stats_.verdicts;
    record.stream_position = base_position_ + offset;
    record.frame_samples = consumed;
    record.frame_ok = rx.frame_ok();
    record.points = detector_.points();
    record.valid = verdict.has_value();
    if (verdict) {
      record.de2 = verdict->distance_sq;
      record.c40 = verdict->feature.c40;
      record.c42 = verdict->feature.c42;
      record.is_attack = verdict->is_attack;
    }
    record.queue_depth = last_queue_depth_;
    record.dropped_before = last_dropped_;

    ++stats_.verdicts;
    if (record.is_attack) ++stats_.verdicts_attack;
    CTC_TELEM_COUNT("sentry", "verdict", 1);
    if (record.is_attack) CTC_TELEM_COUNT("sentry", "verdict_attack", 1);
    CTC_TELEM_HISTO("sentry", "queue_depth", record.queue_depth);
    if (on_verdict_) on_verdict_(record);
  } else {
    CTC_TELEM_COUNT("sentry", "false_sync", 1);
  }
  consume(offset + consumed);
}

void StreamScanner::consume(std::size_t count) {
  CTC_REQUIRE(count <= avail());
  start_ += count;
  base_position_ += count;
  stats_.samples_consumed += count;
  // Amortized compaction: reclaim the consumed prefix once it dominates the
  // buffer, so steady-state cost is O(1) per sample.
  if (start_ >= 4096 && start_ * 2 >= buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(start_));
    norms_.erase(norms_.begin(),
                 norms_.begin() + static_cast<std::ptrdiff_t>(start_));
    start_ = 0;
  }
}

}  // namespace ctc::sentry
