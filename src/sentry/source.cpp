#include "sentry/source.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "dsp/require.h"

namespace ctc::sentry {

// -- ReplaySource -----------------------------------------------------------

ReplaySource::ReplaySource(cvec samples, std::size_t repeat)
    : samples_(std::move(samples)), repeat_(repeat) {
  CTC_REQUIRE(repeat_ >= 1);
}

std::size_t ReplaySource::next_block(std::span<cplx> out) {
  std::size_t written = 0;
  while (written < out.size() && pass_ < repeat_) {
    if (position_ == samples_.size()) {
      position_ = 0;
      ++pass_;
      continue;
    }
    const std::size_t take =
        std::min(out.size() - written, samples_.size() - position_);
    std::copy_n(samples_.begin() + static_cast<std::ptrdiff_t>(position_),
                take, out.begin() + static_cast<std::ptrdiff_t>(written));
    position_ += take;
    written += take;
  }
  return written;
}

// -- LinkSource -------------------------------------------------------------

namespace {

sim::LinkConfig link_config_for(const LinkSourceConfig& config,
                                sim::LinkKind kind) {
  sim::LinkConfig link;
  link.kind = kind;
  link.environment = config.environment;
  link.emulator = config.emulator;
  return link;
}

/// Frame content cycles through 8 variants so the links' waveform caches
/// stay bounded no matter how long the stream runs.
zigbee::MacFrame frame_variant(const LinkSourceConfig& config,
                               std::size_t frame_number) {
  zigbee::MacFrame frame;
  frame.sequence = static_cast<std::uint8_t>(frame_number % 8);
  frame.payload.resize(config.payload_bytes);
  for (std::size_t i = 0; i < frame.payload.size(); ++i) {
    frame.payload[i] =
        static_cast<std::uint8_t>((frame.sequence * 29 + i * 7 + 3) & 0xFF);
  }
  return frame;
}

}  // namespace

LinkSource::LinkSource(LinkSourceConfig config, std::size_t channel)
    : config_(config),
      authentic_(link_config_for(config, sim::LinkKind::authentic)),
      emulated_(link_config_for(config, sim::LinkKind::emulated)),
      rng_(dsp::Rng::for_stream(config.seed, channel)) {
  CTC_REQUIRE(config_.payload_bytes <= zigbee::kMaxPsduBytes - 11);
}

bool LinkSource::is_attack_frame(const LinkSourceConfig& config,
                                 std::size_t frame_number) {
  return config.attack_every != 0 && frame_number % config.attack_every == 0;
}

void LinkSource::synthesize_next() {
  const std::size_t frame_number = frames_emitted_ + 1;  // 1-based
  const zigbee::MacFrame frame = frame_variant(config_, frame_number);
  const sim::Link& link =
      is_attack_frame(config_, frame_number) ? emulated_ : authentic_;
  pending_ = link.config().environment.propagate(link.clean_waveform(frame),
                                                 rng_);
  pending_.resize(pending_.size() + config_.gap_samples, cplx{0.0, 0.0});
  pending_position_ = 0;
  ++frames_emitted_;
}

std::size_t LinkSource::next_block(std::span<cplx> out) {
  std::size_t written = 0;
  while (written < out.size()) {
    if (pending_position_ == pending_.size()) {
      if (frames_emitted_ >= config_.frames) break;
      synthesize_next();
    }
    const std::size_t take =
        std::min(out.size() - written, pending_.size() - pending_position_);
    std::copy_n(
        pending_.begin() + static_cast<std::ptrdiff_t>(pending_position_),
        take, out.begin() + static_cast<std::ptrdiff_t>(written));
    pending_position_ += take;
    written += take;
  }
  return written;
}

// -- RateLimitedSource ------------------------------------------------------

RateLimitedSource::RateLimitedSource(std::unique_ptr<SampleSource> inner,
                                     double samples_per_second)
    : inner_(std::move(inner)), rate_(samples_per_second) {
  CTC_REQUIRE(inner_ != nullptr);
  CTC_REQUIRE(rate_ > 0.0);
}

std::size_t RateLimitedSource::next_block(std::span<cplx> out) {
  const std::size_t written = inner_->next_block(out);
  if (written == 0) return 0;
  if (!start_) start_ = std::chrono::steady_clock::now();
  released_ += written;
  // Absolute deadline from the stream start, so pacing error never
  // accumulates across blocks.
  const auto deadline =
      *start_ + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(
                        static_cast<double>(released_) / rate_));
  std::this_thread::sleep_until(deadline);
  return written;
}

}  // namespace ctc::sentry
