#include "sentry/frame_sync.h"

#include <algorithm>
#include <utility>

#include "dsp/require.h"
#include "sim/telemetry.h"
#include "zigbee/chip_sequences.h"

namespace ctc::sentry {

StreamScanner::StreamScanner(ScannerConfig config, std::size_t channel,
                             VerdictFn on_verdict)
    : config_(std::move(config)),
      channel_(channel),
      on_verdict_(std::move(on_verdict)),
      receiver_(config_.receiver),
      detector_(config_.detector),
      sync_(config_.receiver.samples_per_chip) {
  CTC_REQUIRE(config_.max_psdu_bytes >= 1);
  CTC_REQUIRE(config_.max_psdu_bytes <= zigbee::kMaxPsduBytes);
  // A threshold crossing can land a few samples before the true correlation
  // peak (the metric is smooth across sub-chip offsets); half a symbol of
  // hill-climb headroom refines it without ever re-deciding earlier offsets.
  guard_ = 8 * config_.receiver.samples_per_chip;
  frame_need_ =
      ppdu_samples(config_.max_psdu_bytes, config_.receiver.samples_per_chip);
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
  // once, on arrival, though scan rounds overlap by window - 1 + guard_
  // samples.
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
  // A full round needs every offset in [0, kScanSpan) to see a complete
  // correlation window, plus the hill-climb guard. The requirement is a
  // fixed sample count, which is what makes the scanner's decisions
  // independent of how the stream was chopped into push() blocks.
  const std::size_t window = sync_.window();
  const std::size_t full_need = kScanSpan + window - 1 + guard_;
  if (!flushing && avail() < full_need) return false;
  if (avail() == 0) return false;

  std::size_t limit = 0;
  if (avail() >= window) limit = std::min(kScanSpan, avail() - window + 1);
  if (limit == 0) {
    // Flushing with a sub-window tail: nothing left can synchronize.
    consume(avail());
    return true;
  }

  ++stats_.scan_rounds;
  CTC_TELEM_TIMER("sentry", "scan_ns");
  const std::size_t search_end = std::min(avail() - window, limit - 1 + guard_);
  const zigbee::ShrMatch match = sync_.search(
      data(), norms_.data() + start_, limit, search_end, guard_);
  stats_.sync_exact += match.exact;
  CTC_TELEM_COUNT("sentry", "sync_exact", match.exact);
  if (!match.offset) {
    ++stats_.sync_misses;
    CTC_TELEM_COUNT("sentry", "sync_miss", 1);
    consume(limit);
    return true;
  }
  ++stats_.frames_detected;
  CTC_TELEM_COUNT("sentry", "frame_detected", 1);
  pending_sync_ = *match.offset;
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
  std::size_t consumed = std::min(sync_.window(), have);
  if (rx.phr_ok) {
    ++stats_.frames_decoded;
    if (rx.frame_ok()) ++stats_.frames_ok;
    CTC_TELEM_COUNT("sentry", "frame_decoded", 1);
    consumed = std::min(
        ppdu_samples(rx.psdu.size(), config_.receiver.samples_per_chip), take);

    defense::Verdict verdict;
    {
      CTC_TELEM_TIMER("sentry", "classify_ns");
      verdict = detector_.classify(rx.freq_chips);
    }

    // A decoded PHR carries at least one PSDU byte, 32 constellation
    // points, so every record holds a cumulant verdict.
    VerdictRecord record;
    record.channel = channel_;
    record.frame_index = stats_.verdicts;
    record.stream_position = base_position_ + offset;
    record.frame_samples = consumed;
    record.frame_ok = rx.frame_ok();
    record.points = rx.freq_chips.size() / 2;
    record.valid = true;
    record.de2 = verdict.distance_sq;
    record.c40 = verdict.feature.c40;
    record.c42 = verdict.feature.c42;
    record.is_attack = verdict.is_attack;
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
