// sentry_stream — the streaming detector on two ZigBee channels. Each
// channel's capture comes from sentry::LinkSource (AWGN 15 dB, every 3rd
// frame an attack, 700-sample gaps) before anything is timed, so no
// channel or attack code runs in the timed region.
//
//   Phase A (open loop): one generator thread releases each channel's
//   samples into its own SpscRing on the 4 Msamples/s real-time schedule;
//   one consumer thread per channel feeds a StreamScanner. Verdict latency
//   is timed from when the frame's last sample was due.
//
//   Phase B (closed loop): the same captures replayed through
//   SentryService::run() with 2 channels on 2 shards, as fast as it goes.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "dsp/require.h"
#include "dsp/types.h"
#include "sentry/frame_sync.h"
#include "sentry/ring_buffer.h"
#include "sentry/service.h"
#include "sentry/source.h"
#include "workloads.h"
#include "zigbee/receiver.h"

namespace perfbench {

using namespace ctc;

namespace {

constexpr std::size_t kCaptureFrames = 200;  ///< per channel
/// Real-time pacing: ZigBee's 4 Msamples/s is 250 ns per sample.
constexpr std::int64_t kNsPerSample = 250;
/// Samples the generator releases at once (128 us of air).
constexpr std::size_t kReleaseBlock = 512;
constexpr std::size_t kRingCapacity = std::size_t{1} << 18;
/// A run alternates slices of kSlicePasses real-time open-loop passes
/// (phase A, 2000 verdicts) and kSliceReplays service runs (phase B), so
/// both see the same stretches of host contention.
constexpr std::size_t kSlicePasses = 5;
constexpr std::size_t kSliceReplays = 8;
constexpr std::size_t kMinSlices = 2;
/// Capture passes per phase B service run.
constexpr std::size_t kReplayPasses = 2;
/// Set-up is two rings, two scanners and an unstarted service, so each of
/// the kSetupSamples timings covers kSetupBuilds builds.
constexpr int kSetupSamples = 9;
constexpr int kSetupBuilds = 20;
/// Traced run: open-loop passes (1200 verdicts, ten beyond the p99), and
/// untraced/traced replay pairs.
constexpr std::size_t kTraceOpenLoopPasses = 3;
constexpr int kTracePairs = 3;
/// Block size of the traced scanner replay (the service's drain block).
constexpr std::size_t kReplayBlock = 4096;

struct Inputs {
  sentry::LinkSourceConfig source;
  std::vector<cvec> captures;  ///< one per channel, equal lengths
  std::size_t period = 0;      ///< samples per frame plus its gap
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs inputs;
  inputs.source.environment = channel::Environment::awgn(15.0);
  inputs.source.frames = kCaptureFrames;
  inputs.source.attack_every = 3;
  inputs.source.gap_samples = 700;
  inputs.source.seed = InputRng(seed ^ 0x73656e747279ULL).next();
  for (std::size_t c = 0; c < kSentryChannels; ++c) {
    sentry::LinkSource source(inputs.source, c);
    cvec capture;
    cvec block(4096);
    while (const std::size_t got = source.next_block(block)) {
      capture.insert(capture.end(), block.begin(),
                     block.begin() + static_cast<std::ptrdiff_t>(got));
    }
    inputs.captures.push_back(std::move(capture));
  }
  const std::size_t length = inputs.captures.front().size();
  inputs.period = length / kCaptureFrames;
  CTC_REQUIRE_MSG(inputs.period * kCaptureFrames == length,
                  "capture frames must share one length");
  for (const cvec& capture : inputs.captures) CTC_REQUIRE(capture.size() == length);
  return inputs;
}

/// A capture replayed `passes` times without copying it (ReplaySource
/// would copy each 17 MB capture inside the timed service run).
class CaptureSource : public sentry::SampleSource {
 public:
  CaptureSource(const cvec& capture, std::size_t passes)
      : capture_(capture), total_(capture.size() * passes) {}
  std::size_t next_block(std::span<cplx> out) override {
    std::size_t written = 0;
    while (written < out.size() && position_ < total_) {
      const std::size_t offset = position_ % capture_.size();
      const std::size_t take = std::min(
          {out.size() - written, capture_.size() - offset, total_ - position_});
      std::copy_n(capture_.begin() + static_cast<std::ptrdiff_t>(offset), take,
                  out.begin() + static_cast<std::ptrdiff_t>(written));
      written += take;
      position_ += take;
    }
    return written;
  }

 private:
  const cvec& capture_;
  std::size_t total_;
  std::size_t position_ = 0;
};

/// Ground truth for one channel's verdict stream: every frame occurrence
/// must get exactly one verdict whose is_attack matches the generator.
class FrameBook {
 public:
  FrameBook(const Inputs& inputs, std::size_t passes)
      : inputs_(inputs), seen_(kCaptureFrames * passes, false) {}

  void note(std::uint64_t stream_position, bool is_attack) {
    const std::size_t occurrence = static_cast<std::size_t>(
        (stream_position + inputs_.period / 2) / inputs_.period);
    if (occurrence >= seen_.size() || seen_[occurrence]) {
      ++failed_;
      return;
    }
    seen_[occurrence] = true;
    const std::size_t frame_number = occurrence % kCaptureFrames + 1;
    if (is_attack != sentry::LinkSource::is_attack_frame(inputs_.source,
                                                         frame_number)) {
      ++failed_;
    }
  }
  std::size_t attempted() const { return seen_.size(); }
  std::size_t failed() const {
    return failed_ + static_cast<std::size_t>(
                         std::count(seen_.begin(), seen_.end(), false));
  }

 private:
  const Inputs& inputs_;
  std::vector<bool> seen_;
  std::size_t failed_ = 0;
};

// -- Phase A: real-time open loop ---------------------------------------------

/// One channel of the open loop: its ring, its scanner and what the
/// consumer thread observed. Pinned: the scanner callback holds `this`.
struct Lane {
  explicit Lane(std::size_t channel)
      : ring(kRingCapacity),
        scanner(sentry::ScannerConfig{}, channel,
                [this](const sentry::VerdictRecord& record) {
                  on_verdict(record);
                }) {}
  Lane(const Lane&) = delete;
  Lane& operator=(const Lane&) = delete;

  void on_verdict(const sentry::VerdictRecord& record) {
    const std::int64_t now = now_ns();
    const std::int64_t last_due =
        start_ns + static_cast<std::int64_t>(record.stream_position +
                                             record.frame_samples) *
                       kNsPerSample;
    const std::int64_t buffered_due =
        start_ns + static_cast<std::int64_t>(buffered_end) * kNsPerSample;
    latency_ms.push_back(static_cast<double>(now - last_due) * 1e-6);
    records.push_back(record);
    if (trace) {
      SpanBuffer spans;
      spans.op = record.frame_index;
      spans.add("verdict", -1, last_due, now);
      spans.add("sentry.lookahead", 0, last_due, std::max(last_due, buffered_due));
      verdict_spans.push_back(std::move(spans));
    }
  }

  sentry::SpscRing<cplx> ring;
  sentry::StreamScanner scanner;
  bool trace = false;
  std::int64_t start_ns = 0;         ///< when stream sample 0 was due
  std::uint64_t buffered_end = 0;    ///< stream samples handed to the scanner
  std::atomic<std::uint64_t> dropped{0};  ///< written by the generator
  std::size_t queue_depth_max = 0;
  std::vector<double> latency_ms;
  std::vector<sentry::VerdictRecord> records;
  std::vector<SpanBuffer> verdict_spans;
  std::vector<SpanBuffer> push_spans;  ///< consumer-side scanner pushes
  std::vector<SpanBuffer> ring_spans;  ///< generator-side ring pushes
};

/// Everything set-up builds: the open loop's rings and scanners and the
/// replay service.
struct Rig {
  std::vector<std::unique_ptr<Lane>> lanes;
  std::unique_ptr<sentry::SentryService> service;
};

sentry::ServiceConfig service_config() {
  sentry::ServiceConfig config;
  config.channels = kSentryChannels;
  config.shards = kSentryShards;
  return config;
}

std::unique_ptr<sentry::SentryService> make_service(const Inputs& inputs) {
  return std::make_unique<sentry::SentryService>(
      service_config(), [&inputs](std::size_t channel) {
        return std::make_unique<CaptureSource>(inputs.captures[channel],
                                               kReplayPasses);
      });
}

std::vector<std::unique_ptr<Lane>> make_lanes() {
  std::vector<std::unique_ptr<Lane>> lanes;
  for (std::size_t c = 0; c < kSentryChannels; ++c) {
    lanes.push_back(std::make_unique<Lane>(c));
  }
  return lanes;
}

Rig build_rig(const Inputs& inputs) {
  Rig rig;
  rig.lanes = make_lanes();
  rig.service = make_service(inputs);
  return rig;
}

struct OpenLoop {
  std::vector<double> latency_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t samples = 0;  ///< per channel
  std::size_t queue_depth_max = 0;
  double generator_late_ms_max = 0.0;
};

void consume(Lane& lane, const std::atomic<bool>& done) {
  std::uint64_t drains = 0;
  while (true) {
    const auto view = lane.ring.peek(kRingCapacity);
    if (view.empty()) {
      if (done.load(std::memory_order_acquire) && lane.ring.empty()) break;
      std::this_thread::yield();
      continue;
    }
    const std::size_t got = view.total();
    lane.queue_depth_max = std::max(lane.queue_depth_max, got);
    lane.buffered_end += got;
    std::optional<SpanBuffer> spans;
    if (lane.trace) {
      spans.emplace();
      spans->op = drains;
      spans->open("sentry.scanner_push");
    }
    const std::uint64_t dropped = lane.dropped.load(std::memory_order_relaxed);
    lane.scanner.push(view.first, got, dropped);
    if (!view.second.empty()) lane.scanner.push(view.second, got, dropped);
    if (spans) {
      spans->close(0);
      lane.push_spans.push_back(std::move(*spans));
    }
    lane.ring.consume(got);
    ++drains;
  }
  lane.scanner.flush();
}

/// Streams every capture `passes` times through the lanes at real time.
OpenLoop run_open_loop(const Inputs& inputs, Rig& rig, std::size_t passes,
                       bool trace) {
  const std::size_t length = inputs.captures.front().size();
  const std::uint64_t total = static_cast<std::uint64_t>(length) * passes;
  std::atomic<bool> done{false};
  const std::int64_t start = now_ns() + 2'000'000;  // let consumers spin up
  for (auto& lane : rig.lanes) {
    lane->trace = trace;
    lane->start_ns = start;
  }
  std::vector<std::thread> consumers;
  for (auto& lane : rig.lanes) {
    consumers.emplace_back([&lane, &done] { consume(*lane, done); });
  }

  OpenLoop result;
  std::uint64_t block = 0;
  for (std::uint64_t position = 0; position < total;
       position += kReleaseBlock, ++block) {
    const std::uint64_t count =
        std::min<std::uint64_t>(kReleaseBlock, total - position);
    const std::int64_t due =
        start + static_cast<std::int64_t>(position + count) * kNsPerSample;
    sleep_until_ns(due);
    for (std::size_t c = 0; c < rig.lanes.size(); ++c) {
      Lane& lane = *rig.lanes[c];
      const cvec& capture = inputs.captures[c];
      const std::int64_t push_start = now_ns();
      std::uint64_t pushed = 0;
      while (pushed < count) {
        const std::size_t offset = (position + pushed) % length;
        const std::size_t take =
            std::min<std::size_t>(count - pushed, length - offset);
        const std::size_t accepted = lane.ring.try_push(
            std::span<const cplx>(capture.data() + offset, take));
        lane.dropped.fetch_add(take - accepted, std::memory_order_relaxed);
        pushed += take;
      }
      if (trace) {
        SpanBuffer spans;
        spans.op = block;
        spans.add("sentry.ring_push", -1, push_start, now_ns());
        lane.ring_spans.push_back(std::move(spans));
      }
    }
    result.generator_late_ms_max = std::max(
        result.generator_late_ms_max, static_cast<double>(now_ns() - due) * 1e-6);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& consumer : consumers) consumer.join();

  result.samples = total;
  for (auto& lane : rig.lanes) {
    FrameBook book(inputs, passes);
    for (const sentry::VerdictRecord& record : lane->records) {
      book.note(record.stream_position, record.is_attack);
    }
    result.attempted += book.attempted();
    const std::uint64_t dropped = lane->dropped.load();
    result.failed += book.failed() + (dropped > 0 ? 1 : 0);
    result.dropped += dropped;
    result.queue_depth_max =
        std::max(result.queue_depth_max, lane->queue_depth_max);
    result.latency_ms.insert(result.latency_ms.end(), lane->latency_ms.begin(),
                             lane->latency_ms.end());
  }
  return result;
}

// -- Phase B: closed-loop service replay ----------------------------------------

/// A verdict line without its ingest-side fields (queue depth, drops),
/// which depend on how samples were delivered, not on what was decided.
std::string decision_part(const std::string& line) {
  return line.substr(0, line.find(",\"queue_depth\":"));
}

std::vector<std::string> split_lines(const std::string& jsonl) {
  std::vector<std::string> lines;
  std::size_t begin = 0;
  while (begin < jsonl.size()) {
    const std::size_t end = jsonl.find('\n', begin);
    lines.push_back(jsonl.substr(begin, end - begin));
    if (end == std::string::npos) break;
    begin = end + 1;
  }
  return lines;
}

std::uint64_t field_u64(const std::string& line, const char* key) {
  const std::size_t at = line.find(key);
  return at == std::string::npos
             ? 0
             : std::stoull(line.substr(at + std::strlen(key)));
}

/// Replay failures of one service report: drops and wrong/missing verdicts.
std::uint64_t replay_failures(const Inputs& inputs,
                              const sentry::ServiceReport& report) {
  std::uint64_t failed = 0;
  for (const sentry::ChannelReport& channel : report.channels) {
    FrameBook book(inputs, kReplayPasses);
    for (const std::string& line : split_lines(channel.verdicts_jsonl)) {
      book.note(field_u64(line, "\"stream_pos\":"),
                line.find("\"is_attack\":true") != std::string::npos);
    }
    failed += book.failed() + (channel.dropped > 0 ? 1 : 0);
  }
  return failed;
}

}  // namespace

Report run_sentry_stream(const Options& options) {
  const Inputs inputs = make_inputs(options.seed);
  Report report;
  Rig rig;
  report.set("setup_s", median_setup_seconds(kSetupSamples, kSetupBuilds, rig, [&] {
               return build_rig(inputs);
             }),
             "s");

  LatencySegments latencies;
  std::vector<double> run_s;
  std::uint64_t run_samples = 0;
  double generator_late_ms_max = 0.0;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
  for (std::size_t slice = 0; now_ns() < deadline || slice < kMinSlices;
       ++slice) {
    // Phase A: each slice streams through fresh lanes from stream sample 0.
    if (slice > 0) rig.lanes = make_lanes();
    const OpenLoop open_loop = run_open_loop(inputs, rig, kSlicePasses, false);
    report.attempted += open_loop.attempted;
    report.failed += open_loop.failed;
    for (const double ms : open_loop.latency_ms) latencies.add(ms);
    generator_late_ms_max =
        std::max(generator_late_ms_max, open_loop.generator_late_ms_max);

    // Phase B.
    for (std::size_t replay = 0; replay < kSliceReplays; ++replay) {
      std::unique_ptr<sentry::SentryService> service =
          run_s.empty() ? std::move(rig.service) : make_service(inputs);
      const std::int64_t start = now_ns();
      const sentry::ServiceReport result = service->run();
      run_s.push_back(seconds_between(start, now_ns()));
      run_samples = result.total_ingested();
      report.attempted += kSentryChannels * kCaptureFrames * kReplayPasses;
      report.failed += replay_failures(inputs, result);
    }
  }
  report.set("msamples_per_s",
             static_cast<double>(run_samples) / fast_round_seconds(run_s) / 1e6,
             "Msamples/s");
  report.set("verdict_latency_p50_ms", latencies.p50(), "ms");
  std::fprintf(stderr,
               "sentry_stream: %zu open-loop verdicts (generator late <= %.3f "
               "ms), %zu replay runs, %.1f Msamples/s over all\n",
               latencies.count(), generator_late_ms_max, run_s.size(),
               static_cast<double>(run_samples) / median(run_s) / 1e6);
  return report;
}

namespace {

struct TracedReplay {
  std::vector<sentry::VerdictRecord> records;
  sentry::ScannerStats stats;
  std::vector<SpanBuffer> spans;
  std::uint64_t samples = 0;
  std::size_t lost_locks = 0;  ///< replayed receives whose PHR failed
};

/// One channel's phase B work as the traced run sees it: the scanner fed
/// in drain-sized blocks, each push a span, then zigbee::Receiver::receive
/// replayed on every decoded frame's frame_need() span.
TracedReplay trace_replay(const cvec& capture, std::size_t channel) {
  TracedReplay replay;
  sentry::StreamScanner scanner(
      sentry::ScannerConfig{}, channel,
      [&replay](const sentry::VerdictRecord& record) {
        replay.records.push_back(record);
      });
  CaptureSource source(capture, kReplayPasses);
  cvec block(kReplayBlock);
  std::uint64_t op = 0;
  while (const std::size_t got = source.next_block(block)) {
    SpanBuffer spans;
    spans.op = op++;
    const int root = spans.open("sentry.scanner_push");
    scanner.push(std::span<const cplx>(block.data(), got));
    spans.close(root);
    replay.spans.push_back(std::move(spans));
    replay.samples += got;
  }
  scanner.flush();
  replay.stats = scanner.stats();

  const zigbee::Receiver receiver(sentry::ScannerConfig{}.receiver);
  cvec span;
  for (const sentry::VerdictRecord& record : replay.records) {
    const std::size_t take = std::min<std::uint64_t>(
        scanner.frame_need(), replay.samples - record.stream_position);
    span.resize(take);
    for (std::size_t i = 0; i < take; ++i) {
      span[i] = capture[(record.stream_position + i) % capture.size()];
    }
    SpanBuffer spans;
    spans.op = op++;
    const int root = spans.open("zigbee.receive_lookahead");
    const bool locked = receiver.receive(span).phr_ok;
    spans.close(root);
    replay.spans.push_back(std::move(spans));
    replay.lost_locks += locked ? 0 : 1;
  }
  return replay;
}

}  // namespace

Report trace_sentry_stream(const Options& options, TraceLog& log) {
  const Inputs inputs = make_inputs(options.seed);
  Rig rig = build_rig(inputs);
  Report report;

  // -- Phase A, traced.
  const OpenLoop open_loop = run_open_loop(inputs, rig, kTraceOpenLoopPasses, true);
  report.attempted += open_loop.attempted;
  report.failed += open_loop.failed;
  double ring_push_ns = 0.0, lookahead_ns = 0.0;
  std::size_t verdicts = 0;
  for (std::size_t c = 0; c < rig.lanes.size(); ++c) {
    Lane& lane = *rig.lanes[c];
    const std::string trace = "sentry_stream.channel" + std::to_string(c);
    for (SpanBuffer& spans : lane.ring_spans) {
      log.append(trace + ".ring", std::move(spans));
    }
    for (SpanBuffer& spans : lane.push_spans) {
      log.append(trace + ".scan", std::move(spans));
    }
    for (SpanBuffer& spans : lane.verdict_spans) {
      log.append(trace + ".verdicts", std::move(spans));
    }
    ring_push_ns += total_ns(log.summarize(trace + ".ring"), "sentry.ring_push");
    lookahead_ns +=
        total_ns(log.summarize(trace + ".verdicts"), "sentry.lookahead");
    verdicts += lane.records.size();
  }

  // -- Phase B: service runs (untraced) against traced scanner replays.
  std::vector<double> untraced_s, traced_s;
  std::vector<std::string> reference;
  std::uint64_t drain_turns = 0, dropped = open_loop.dropped;
  for (int pair = 0; pair < kTracePairs; ++pair) {
    std::unique_ptr<sentry::SentryService> service = make_service(inputs);
    std::int64_t start = now_ns();
    const sentry::ServiceReport result = service->run();
    untraced_s.push_back(seconds_between(start, now_ns()));
    report.attempted += kSentryChannels * kCaptureFrames * kReplayPasses;
    report.failed += replay_failures(inputs, result);
    reference.clear();
    for (const std::string& line : split_lines(result.verdicts_jsonl)) {
      reference.push_back(decision_part(line));
    }
    drain_turns = 0;
    for (const sentry::ChannelReport& channel : result.channels) {
      drain_turns += channel.drain_turns;
    }
    dropped += result.total_dropped();

    std::vector<TracedReplay> replays(kSentryChannels);
    start = now_ns();
    std::vector<std::thread> workers;
    for (std::size_t c = 0; c < kSentryChannels; ++c) {
      workers.emplace_back(
          [&, c] { replays[c] = trace_replay(inputs.captures[c], c); });
    }
    for (std::thread& worker : workers) worker.join();
    traced_s.push_back(seconds_between(start, now_ns()));

    std::vector<std::string> decisions;
    for (const TracedReplay& replay : replays) {
      report.check(replay.lost_locks == 0,
                   "sentry_stream: replayed receive lost a scanner lock");
      for (const sentry::VerdictRecord& record : replay.records) {
        decisions.push_back(decision_part(record.to_jsonl()));
      }
    }
    report.check(decisions == reference,
                 "sentry_stream: traced scanner replay != SentryService verdicts");
    if (pair + 1 < kTracePairs) continue;

    // Per-layer figures from the last pair.
    double push_ns = 0.0, receive_ns = 0.0, samples = 0.0;
    std::uint64_t rounds = 0, misses = 0, detected = 0, frames_ok = 0;
    for (std::size_t c = 0; c < kSentryChannels; ++c) {
      TracedReplay& replay = replays[c];
      const std::string trace = "sentry_stream.replay" + std::to_string(c);
      for (SpanBuffer& spans : replay.spans) log.append(trace, std::move(spans));
      const LayerTimes layers = log.summarize(trace);
      push_ns += total_ns(layers, "sentry.scanner_push");
      receive_ns += total_ns(layers, "zigbee.receive_lookahead");
      samples += static_cast<double>(replay.samples);
      rounds += replay.stats.scan_rounds;
      misses += replay.stats.sync_misses;
      detected += replay.stats.frames_detected;
      frames_ok += replay.stats.frames_ok;
    }
    report.set("sentry_stream.zigbee.receive_lookahead_ns_per_sample",
               ratio(receive_ns, samples), "ns/sample");
    report.set("sentry_stream.sentry.scanner_push_ns_per_sample",
               ratio(push_ns, samples), "ns/sample");
    report.set("sentry_stream.sentry.scan_self_ns_per_sample",
               ratio(push_ns - receive_ns, samples), "ns/sample");
    report.set("sentry_stream.sentry.sync_miss_ratio",
               ratio(static_cast<double>(misses), static_cast<double>(rounds)),
               "ratio");
    report.set("sentry_stream.sentry.frames_ok_ratio",
               ratio(static_cast<double>(frames_ok), static_cast<double>(detected)),
               "ratio");
  }

  LatencySegments tail;
  for (const double ms : open_loop.latency_ms) tail.add(ms);
  report.set("sentry_stream.sentry.verdict_latency_p99_ms", tail.p99(), "ms");
  report.set("sentry_stream.sentry.lookahead_wait_ms",
             ratio(lookahead_ns * 1e-6, static_cast<double>(verdicts)), "ms");
  report.set("sentry_stream.sentry.ring_push_ns_per_sample",
             ratio(ring_push_ns,
                   static_cast<double>(open_loop.samples * kSentryChannels)),
             "ns/sample");
  report.set("sentry_stream.sentry.queue_depth_max",
             static_cast<double>(open_loop.queue_depth_max), "samples");
  report.set("sentry_stream.sentry.generator_late_ms_max",
             open_loop.generator_late_ms_max, "ms");
  report.set("sentry_stream.sentry.dropped", static_cast<double>(dropped),
             "samples");
  report.set("sentry_stream.sentry.service_drain_turns",
             static_cast<double>(drain_turns), "count");
  report.set("sentry_stream.trace_overhead", median(traced_s) / median(untraced_s),
             "ratio");
  return report;
}

}  // namespace perfbench
