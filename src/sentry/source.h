// Sample sources feeding the sentry's ingest ring.
//
// One interface, three providers: ReplaySource streams a cf32 capture (the
// deterministic path the replay CI gate diffs), LinkSource synthesizes a
// live mix of authentic and attack frames through a sim::Link channel (the
// "what would a monitor see on the air" path), and RateLimitedSource wraps
// either to pace delivery to a real-time sample rate. Only the rate limiter
// reads a clock — replay and live generation are pure functions of their
// configuration, which is what makes sentry verdict streams replayable.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "channel/environment.h"
#include "dsp/rng.h"
#include "dsp/types.h"
#include "sim/link.h"
#include "zigbee/frame.h"

namespace ctc::sentry {

/// Pull interface the ingest thread drains: fill up to out.size() samples,
/// return the count actually written. 0 means end of stream (sources are
/// not restartable).
class SampleSource {
 public:
  virtual ~SampleSource() = default;
  virtual std::size_t next_block(std::span<cplx> out) = 0;
};

/// Replays an in-memory capture (optionally loaded from a cf32 file)
/// `repeat` times, unthrottled.
class ReplaySource : public SampleSource {
 public:
  explicit ReplaySource(cvec samples, std::size_t repeat = 1);

  std::size_t next_block(std::span<cplx> out) override;

  std::size_t capture_samples() const { return samples_.size(); }

 private:
  cvec samples_;
  std::size_t repeat_;
  std::size_t position_ = 0;
  std::size_t pass_ = 0;
};

struct LinkSourceConfig {
  /// Channel both frame kinds propagate through.
  channel::Environment environment = channel::Environment::awgn(12.0);
  /// Attack emulator settings for the emulated frames.
  attack::EmulatorConfig emulator;
  /// Total frames emitted before end-of-stream.
  std::size_t frames = 64;
  /// Every attack_every-th frame (1-based) is WiFi-emulated; 0 = all
  /// authentic.
  std::size_t attack_every = 3;
  /// Idle (zero) samples between consecutive frames.
  std::size_t gap_samples = 512;
  std::size_t payload_bytes = 20;
  std::uint64_t seed = 0x5EA15EA1;
};

/// Synthesizes a continuous stream the way the air would look to a monitor:
/// frame, gap, frame, gap, ... with every attack_every-th frame replaced by
/// the WiFi waveform-emulation attack. Per-frame channel noise comes from
/// Rng::for_stream(seed, channel), so two LinkSources with the same config
/// and channel emit bit-identical streams. Frame content cycles through 8
/// variants to bound the links' waveform caches.
class LinkSource : public SampleSource {
 public:
  LinkSource(LinkSourceConfig config, std::size_t channel);

  std::size_t next_block(std::span<cplx> out) override;

  /// True for the 1-based frame index the generator makes an attack frame —
  /// ground truth for parity tests.
  static bool is_attack_frame(const LinkSourceConfig& config,
                              std::size_t frame_number);

 private:
  void synthesize_next();

  LinkSourceConfig config_;
  sim::Link authentic_;
  sim::Link emulated_;
  dsp::Rng rng_;
  cvec pending_;  ///< current frame waveform + trailing gap
  std::size_t pending_position_ = 0;
  std::size_t frames_emitted_ = 0;
};

/// Paces an inner source to `samples_per_second` with a steady_clock
/// deadline per block — the sentry's only clock dependency, and it never
/// influences sample VALUES, only when they arrive (verdicts stay
/// replay-identical; queue depths become load-dependent, as they should).
class RateLimitedSource : public SampleSource {
 public:
  RateLimitedSource(std::unique_ptr<SampleSource> inner,
                    double samples_per_second);

  std::size_t next_block(std::span<cplx> out) override;

 private:
  std::unique_ptr<SampleSource> inner_;
  double rate_;
  std::uint64_t released_ = 0;
  std::optional<std::chrono::steady_clock::time_point> start_;
};

}  // namespace ctc::sentry
