// Equivalence suite for sim::Link's clean-waveform memoization.
//
// The cache stores the output of a pure function (frame bytes -> synthesis
// chain), so the contract is exact: clean_waveform and send must be
// bit-identical to a reference composed from the public pieces — the
// Transmitter, the WaveformEmulator's 4 MHz output and dsp::normalize_power
// for the waveform; Environment::propagate and Receiver::receive for the
// send — given the same RNG stream. The telemetry tests pin the hit/miss
// accounting that PERFORMANCE.md documents.
#include "sim/link.h"

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "attack/emulator.h"
#include "dsp/rng.h"
#include "dsp/stats.h"
#include "sim/engine.h"
#include "sim/telemetry.h"
#include "zigbee/app.h"

namespace ctc::sim {
namespace {

LinkConfig link_config(LinkKind kind) {
  LinkConfig config;
  config.kind = kind;
  config.environment = channel::Environment::awgn(8.0);
  return config;
}

/// The synthesis chain without a cache (baseband attack path).
cvec reference_waveform(const LinkConfig& config,
                        const zigbee::MacFrame& frame) {
  const cvec observed = zigbee::Transmitter().transmit_frame(frame);
  if (config.kind == LinkKind::authentic) return observed;
  const attack::WaveformEmulator emulator(config.emulator);
  return dsp::normalize_power(emulator.emulate(observed).emulated_4mhz);
}

/// One send without a cache: channel, receiver, PSDU scoring.
FrameObservation reference_send(const LinkConfig& config,
                                const zigbee::MacFrame& frame, dsp::Rng& rng) {
  // The default usrp profile adds no link budget, so the configured
  // environment is the channel send() runs.
  EXPECT_EQ(config.profile.sensitivity_gain_db, 0.0);
  zigbee::ReceiverConfig rx_config;
  rx_config.profile = config.profile;
  FrameObservation observation;
  observation.rx = zigbee::Receiver(rx_config).receive(
      config.environment.propagate(reference_waveform(config, frame), rng));
  const bytevec sent = frame.serialize();
  observation.symbols_sent = 2 * sent.size();
  if (observation.rx.psdu.size() == sent.size()) {
    for (std::size_t i = 0; i < sent.size(); ++i) {
      const std::uint8_t decoded = observation.rx.psdu[i];
      if ((sent[i] & 0x0F) != (decoded & 0x0F)) ++observation.symbol_errors;
      if ((sent[i] >> 4) != (decoded >> 4)) ++observation.symbol_errors;
    }
  } else {
    observation.symbol_errors = observation.symbols_sent;
  }
  observation.payload_match = observation.rx.psdu == sent;
  observation.success = observation.rx.frame_ok() && observation.payload_match;
  return observation;
}

void expect_identical_waveforms(const cvec& a, const cvec& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "sample " << i;
  }
}

void expect_identical_observations(const FrameObservation& a,
                                   const FrameObservation& b) {
  EXPECT_EQ(a.symbols_sent, b.symbols_sent);
  EXPECT_EQ(a.symbol_errors, b.symbol_errors);
  EXPECT_EQ(a.payload_match, b.payload_match);
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.rx.shr_ok, b.rx.shr_ok);
  EXPECT_EQ(a.rx.phr_ok, b.rx.phr_ok);
  EXPECT_EQ(a.rx.psdu_complete, b.rx.psdu_complete);
  EXPECT_EQ(a.rx.psdu, b.rx.psdu);
  EXPECT_EQ(a.rx.soft_chips, b.rx.soft_chips);
  EXPECT_EQ(a.rx.freq_chips, b.rx.freq_chips);
  EXPECT_EQ(a.rx.hard_chips, b.rx.hard_chips);
  EXPECT_EQ(a.rx.channel_estimate, b.rx.channel_estimate);
  EXPECT_EQ(a.rx.snr_estimate_db, b.rx.snr_estimate_db);
}

TEST(LinkCacheTest, CleanWaveformIsBitIdenticalToUncached) {
  for (LinkKind kind : {LinkKind::authentic, LinkKind::emulated}) {
    SCOPED_TRACE(kind == LinkKind::authentic ? "authentic" : "emulated");
    const LinkConfig config = link_config(kind);
    const Link cached(config);
    for (unsigned index : {0u, 1u, 42u}) {
      const auto frame = zigbee::make_text_frame(index, index & 0xFF);
      // Twice through the cached link: first call fills, second call hits.
      // Both must equal the reference synthesis exactly.
      const cvec fill = cached.clean_waveform(frame);
      const cvec hit = cached.clean_waveform(frame);
      const cvec reference = reference_waveform(config, frame);
      expect_identical_waveforms(fill, reference);
      expect_identical_waveforms(hit, reference);
    }
  }
}

TEST(LinkCacheTest, SendIsBitIdenticalToUncached) {
  // Same frame, same per-call RNG stream: the cached send path (memoized
  // clean waveform + hoisted PSDU + propagate_into) must reproduce the
  // reference observation field for field. Noise draws consume the
  // identical RNG sequence because the clean waveform lengths match
  // exactly.
  const LinkConfig config = link_config(LinkKind::authentic);
  const Link cached(config);
  for (unsigned index : {0u, 7u}) {
    const auto frame = zigbee::make_text_frame(index, 1);
    for (std::uint64_t seed : {11ull, 12ull, 13ull}) {
      SCOPED_TRACE("frame " + std::to_string(index) + " seed " +
                   std::to_string(seed));
      dsp::Rng rng_cached(seed);
      dsp::Rng rng_reference(seed);
      expect_identical_observations(cached.send(frame, rng_cached),
                                    reference_send(config, frame, rng_reference));
    }
  }
}

TEST(LinkCacheTest, EmulatedSendIsBitIdenticalToUncached) {
  const LinkConfig config = link_config(LinkKind::emulated);
  const Link cached(config);
  const auto frame = zigbee::make_text_frame(3, 3);
  dsp::Rng rng_cached(99);
  dsp::Rng rng_reference(99);
  expect_identical_observations(cached.send(frame, rng_cached),
                                reference_send(config, frame, rng_reference));
}

/// Enables telemetry for the test body; restores off + clean on exit.
class LinkCacheTelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::set_enabled(true);
    telemetry::reset();
  }
  void TearDown() override {
    telemetry::reset();
    telemetry::set_enabled(false);
  }

  static std::uint64_t counter(const std::vector<telemetry::MetricValue>& all,
                               const std::string& name) {
    for (const auto& metric : all) {
      if (metric.stage == "link" && metric.name == name) {
        return static_cast<std::uint64_t>(metric.cell.sum);
      }
    }
    return 0;
  }
};

TEST_F(LinkCacheTelemetryTest, PrimeFillsOncePerFrameThenSendsHit) {
  const Link link(link_config(LinkKind::authentic));
  const auto frames = zigbee::make_text_workload(4);

  link.prime(frames);
  // Priming again is a no-op: every frame is already resident.
  link.prime(frames);

  dsp::Rng rng(5);
  for (const auto& frame : frames) (void)link.send(frame, rng);

  const auto metrics = telemetry::collect();
  EXPECT_EQ(counter(metrics, "waveform_cache_misses"), frames.size());
  // 4 from the second prime + 4 from the sends.
  EXPECT_EQ(counter(metrics, "waveform_cache_hits"), 2 * frames.size());
}

/// One emulated link primed twice over `frames` on `engine` (with the
/// one-argument prime when it is null): the link counters, the telemetry
/// JSON without timers, and the cached waveforms (read after the JSON is
/// taken, so those reads count nowhere).
struct PrimeRun {
  std::string json;
  std::uint64_t misses = 0;
  std::uint64_t hits = 0;
  std::uint64_t hit_calls = 0;
  std::uint64_t emulated_frames = 0;
  std::vector<cvec> waveforms;
};

PrimeRun prime_twice(std::span<const zigbee::MacFrame> frames,
                     TrialEngine* engine) {
  telemetry::reset();
  const Link link(link_config(LinkKind::emulated));
  if (engine != nullptr) {
    const std::uint64_t run = engine->next_run_index();
    link.prime(frames, *engine);
    link.prime(frames, *engine);
    EXPECT_EQ(engine->next_run_index(), run) << "prime consumed a run index";
  } else {
    link.prime(frames);
    link.prime(frames);
  }
  PrimeRun out;
  const auto metrics = telemetry::collect();
  for (const auto& metric : metrics) {
    const auto total = static_cast<std::uint64_t>(metric.cell.sum);
    if (metric.stage == "link" && metric.name == "waveform_cache_misses") {
      out.misses = total;
    }
    if (metric.stage == "link" && metric.name == "waveform_cache_hits") {
      out.hits = total;
      out.hit_calls = metric.cell.count;
    }
    if (metric.stage == "attack" && metric.name == "frames") {
      out.emulated_frames = total;
    }
  }
  out.json = telemetry::to_json(metrics, /*include_timers=*/false);
  for (const auto& frame : frames) out.waveforms.push_back(link.clean_waveform(frame));
  return out;
}

TEST_F(LinkCacheTelemetryTest, EnginePrimeIsThreadCountInvariant) {
  // Five distinct frames plus a repeat of one inside the same span.
  auto frames = zigbee::make_text_workload(5);
  frames.push_back(frames[1]);
  const LinkConfig config = link_config(LinkKind::emulated);

  const PrimeRun serial = prime_twice(frames, nullptr);
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    TrialEngine engine(EngineConfig{.seed = 7, .threads = threads});
    const PrimeRun run = prime_twice(frames, &engine);
    // The repeat is synthesized once. Counts as for a serial fill per
    // frame: the first prime has 5 misses and the repeat's hit, the second
    // prime hits all 6.
    EXPECT_EQ(run.emulated_frames, 5u);
    EXPECT_EQ(run.misses, 5u);
    EXPECT_EQ(run.hits, 7u);
    EXPECT_EQ(run.hit_calls, 7u);
    EXPECT_EQ(run.json, serial.json);
    ASSERT_EQ(run.waveforms.size(), frames.size());
    for (std::size_t f = 0; f < frames.size(); ++f) {
      const cvec reference = reference_waveform(config, frames[f]);
      ASSERT_EQ(run.waveforms[f].size(), reference.size());
      EXPECT_EQ(std::memcmp(run.waveforms[f].data(), reference.data(),
                            reference.size() * sizeof(cplx)),
                0)
          << "frame " << f;
    }
  }
}

}  // namespace
}  // namespace ctc::sim
