// Online frame synchronization + per-frame detection over a continuous
// IQ stream.
//
// The batch pipeline hands zigbee::Receiver a waveform whose sample 0 is a
// frame start; a deployed monitor sees an endless stream with frames at
// unknown positions, gaps, noise, and possibly truncated tails. The
// StreamScanner closes that gap: it buffers pushed sample blocks, runs
// zigbee::ShrSync's screened SHR search over fixed-size scan rounds (its
// 0.25 threshold and energy gate are ShrSync's constants), decodes each
// detected frame with the full receiver, classifies its discriminator chips
// with defense::Detector, and emits one VerdictRecord per decoded frame
// through a callback.
//
// Determinism contract (the service's replay gate rests on it): the
// scanner's decisions depend only on the sample values and their absolute
// stream positions — never on how the stream was partitioned into push()
// calls. Scan rounds fire at fixed stream offsets once enough samples are
// buffered, so pushing one sample at a time and pushing the whole capture
// at once produce byte-identical verdict streams (pinned by
// tests/sentry/frame_sync_test.cpp).
//
// Latency is bounded by construction: a verdict is emitted no later than
// `frame_need()` samples after the frame's first sample entered the
// scanner (the lookahead that guarantees a maximum-size PPDU is fully
// buffered), plus whatever the caller's block size adds.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "defense/detector.h"
#include "dsp/types.h"
#include "sentry/verdict.h"
#include "zigbee/receiver.h"
#include "zigbee/shr_sync.h"

namespace ctc::sentry {

struct ScannerConfig {
  zigbee::ReceiverConfig receiver;
  defense::DetectorConfig detector;
  /// Largest PSDU the scanner waits for before decoding a detected frame —
  /// the bounded-latency knob. Streams with larger frames decode truncated
  /// (phr fails, frame skipped); 127 accepts anything 802.15.4 allows.
  std::size_t max_psdu_bytes = zigbee::kMaxPsduBytes;
};

/// Monotonic per-channel progress counters (plain integers: the scanner is
/// single-threaded; the service aggregates across channels separately).
struct ScannerStats {
  std::uint64_t samples_in = 0;       ///< samples pushed
  std::uint64_t samples_consumed = 0; ///< samples retired from the buffer
  std::uint64_t scan_rounds = 0;      ///< sync searches run
  std::uint64_t sync_misses = 0;      ///< rounds with no acceptable peak
  /// Exact full-window SHR correlations run, in the sweep and hill-climb
  /// (the screen skips the rest).
  std::uint64_t sync_exact = 0;
  std::uint64_t frames_detected = 0;  ///< accepted correlation peaks
  std::uint64_t frames_decoded = 0;   ///< detected frames with a valid PHR
  std::uint64_t frames_ok = 0;        ///< decoded frames passing CRC etc.
  std::uint64_t verdicts = 0;         ///< VerdictRecords emitted
  std::uint64_t verdicts_attack = 0;  ///< records with is_attack == true
};

class StreamScanner {
 public:
  using VerdictFn = std::function<void(const VerdictRecord&)>;

  /// Candidate frame-start offsets searched per scan round. Larger rounds
  /// amortize bookkeeping; smaller rounds shrink buffered lookahead.
  static constexpr std::size_t kScanSpan = 2048;

  StreamScanner(ScannerConfig config, std::size_t channel, VerdictFn on_verdict);

  /// Appends a block and processes every scan round it completes.
  /// `queue_depth` and `dropped_so_far` are ingest-side context stamped
  /// into any verdict this block completes (pass 0 when not applicable).
  void push(std::span<const cplx> samples, std::size_t queue_depth = 0,
            std::uint64_t dropped_so_far = 0);

  /// Stream end: processes the buffered remainder, allowing partial scan
  /// rounds and truncated frame decodes.
  void flush();

  const ScannerStats& stats() const { return stats_; }
  const ScannerConfig& config() const { return config_; }

  /// Samples buffered but not yet retired (the scanner's lookahead).
  std::size_t buffered() const { return avail(); }

  /// Samples a serialized PPDU with `psdu_bytes` of payload occupies
  /// ((symbols * 32 chips + 1) * samples_per_chip — the O-QPSK pulse tail
  /// adds one chip period).
  static std::size_t ppdu_samples(std::size_t psdu_bytes,
                                  std::size_t samples_per_chip);

  /// The scanner's bounded lookahead: samples that must be buffered past a
  /// detected frame start before the decode runs.
  std::size_t frame_need() const { return frame_need_; }

  /// SHR correlation window length in samples.
  std::size_t sync_window() const { return sync_.window(); }

 private:
  void advance(bool flushing);
  /// One scan round over the buffered stream; returns true when the round
  /// consumed samples or detected a frame (i.e. progress was made).
  bool scan_round(bool flushing);
  void decode_at(std::size_t offset);
  void consume(std::size_t count);

  const cplx* data() const { return buffer_.data() + start_; }
  std::size_t avail() const { return buffer_.size() - start_; }

  ScannerConfig config_;
  std::size_t channel_ = 0;
  VerdictFn on_verdict_;
  zigbee::Receiver receiver_;
  defense::Detector detector_;
  zigbee::ShrSync sync_;
  std::size_t frame_need_ = 0;  ///< max PPDU samples (lookahead bound)
  /// Hill-climb extension past a threshold crossing so a peak straddling a
  /// round boundary refines to its true offset (fixed width => partition
  /// invariant).
  std::size_t guard_ = 0;

  cvec buffer_;
  std::size_t start_ = 0;  ///< consumed prefix within buffer_ (compacted lazily)
  std::uint64_t base_position_ = 0;  ///< stream index of data()[0]
  /// Offset (within buffer_) of a detected frame start still waiting for
  /// frame_need_ samples of lookahead; SIZE_MAX = none pending.
  std::size_t pending_sync_ = kNoPendingSync;
  static constexpr std::size_t kNoPendingSync = static_cast<std::size_t>(-1);

  std::size_t last_queue_depth_ = 0;
  std::uint64_t last_dropped_ = 0;
  /// Per-sample |x|^2, maintained incrementally: computed once when a block
  /// arrives (push) and erased alongside buffer_ at compaction, so a sample's
  /// norm is never recomputed across the scan rounds that overlap it. Always
  /// parallel to buffer_.
  rvec norms_;

  ScannerStats stats_;
};

}  // namespace ctc::sentry
