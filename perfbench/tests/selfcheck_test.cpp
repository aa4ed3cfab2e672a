// The benchmark's own tests: every staged decomposition the traced run
// times must reproduce the library path it replicates, bit for bit.
#include <gtest/gtest.h>

#include <vector>

#include "channel/environment.h"
#include "common.h"
#include "mesh/sensor_field.h"
#include "sim/defense_run.h"
#include "sim/engine.h"
#include "sim/link.h"
#include "stages.h"
#include "zigbee/app.h"

namespace {

using namespace ctc;
using namespace perfbench;

std::vector<zigbee::MacFrame> text_frames(unsigned first, unsigned count) {
  std::vector<zigbee::MacFrame> frames;
  for (unsigned k = 0; k < count; ++k) {
    frames.push_back(zigbee::make_text_frame(
        first + k, static_cast<std::uint8_t>((first + k) & 0xFF)));
  }
  return frames;
}

mesh::MeshConfig mesh_config(sim::LinkKind kind) {
  mesh::MeshConfig config;
  config.sensors = 16;
  config.kind = kind;
  config.rician_k_factor = 6.0;
  config.cfo_hz = 2000.0;
  config.random_phase = true;
  config.shadow_sigma_db = 2.0;
  config.extent_m = 6.0;
  config.detector.c40_mode = defense::C40Mode::magnitude;
  return config;
}

TEST(ChannelStages, ComposeToPropagateInto) {
  const cvec clean = sim::Link(sim::LinkConfig{}).clean_waveform(
      zigbee::make_text_frame(7, 7));
  channel::Environment faded;
  faded.snr_db = 9.0;
  faded.rician_k_factor = 6.0;
  faded.cfo_hz = 2000.0;
  faded.random_phase = true;
  channel::Environment fixed_phase = channel::Environment::real_world(3.0);
  fixed_phase.random_phase = false;
  fixed_phase.phase_offset_rad = 0.7;
  for (const channel::Environment& env :
       {channel::Environment::awgn(7.0), faded, fixed_phase,
        channel::Environment::real_world(5.0)}) {
    dsp::Rng library_rng = dsp::Rng::for_stream(42, 3);
    dsp::Rng staged_rng = dsp::Rng::for_stream(42, 3);
    cvec library, staged;
    env.propagate_into(library, clean, library_rng);
    SpanBuffer spans;
    propagate_staged(env, clean, staged, staged_rng, &spans, -1);
    EXPECT_EQ(library, staged);
    EXPECT_EQ(library_rng.next_u64(), staged_rng.next_u64());
    EXPECT_FALSE(spans.spans.empty());
  }
}

TEST(SynthesisStages, EqualLinkCleanWaveform) {
  for (const auto kind : {sim::LinkKind::authentic, sim::LinkKind::emulated}) {
    sim::LinkConfig config;
    config.kind = kind;
    const sim::Link link(config);
    const Synthesizer synthesize(config);
    for (const zigbee::MacFrame& frame : text_frames(123, 3)) {
      EXPECT_EQ(synthesize(frame, nullptr, -1), link.clean_waveform(frame));
    }
  }
}

TEST(McDecomposition, MatchesCollectDefenseSamples) {
  const auto frames = text_frames(500, 20);
  const defense::Detector detector;
  for (const double snr : {7.0, 17.0}) {
    for (const auto kind : {sim::LinkKind::authentic, sim::LinkKind::emulated}) {
      sim::LinkConfig config;
      config.kind = kind;
      config.environment = channel::Environment::awgn(snr);
      const sim::Link link(config);
      sim::TrialEngine engine({99, 2});
      const std::uint64_t run = engine.next_run_index();
      const sim::DefenseSamples library =
          sim::collect_defense_samples(link, frames, 40, detector, engine);

      std::vector<cvec> clean;
      for (const zigbee::MacFrame& frame : frames) {
        clean.push_back(link.clean_waveform(frame));
      }
      const channel::Environment env = link_channel(config);
      const zigbee::Receiver receiver = profile_receiver(config.profile);
      engine.seek_run(run);
      const sim::DefenseSamples staged = engine.run<sim::DefenseSamples>(
          40, [&](std::size_t i, dsp::Rng& rng) {
            cvec workspace;
            StageCounts counts;
            return defense_trial_staged(
                link, frames[i % frames.size()], clean[i % clean.size()], env,
                receiver, detector, rng, workspace, nullptr, -1, counts);
          });
      EXPECT_TRUE(same_defense_samples(library, staged));
      EXPECT_EQ(library.distances, staged.distances);
      EXPECT_EQ(library.c40, staged.c40);
      EXPECT_EQ(library.c42, staged.c42);
      EXPECT_GT(library.frames_used, 0u);
    }
  }
}

TEST(MeshDecomposition, MatchesRunMeshTrials) {
  for (const auto kind : {sim::LinkKind::emulated, sim::LinkKind::authentic}) {
    const mesh::SensorField field(mesh_config(kind));
    const auto frames = text_frames(9000, 6);
    sim::TrialEngine engine({7, 2});
    const std::uint64_t run = engine.next_run_index();
    const mesh::MeshStats library =
        mesh::run_mesh_trials(field, frames, frames.size(), engine);

    sim::LinkConfig link;
    link.kind = kind;
    const Synthesizer synthesize(link);
    std::vector<cvec> clean;
    for (const zigbee::MacFrame& frame : frames) {
      clean.push_back(synthesize(frame, nullptr, -1));
    }
    const FieldModel model(field);
    engine.seek_run(run);
    const mesh::MeshStats staged = engine.run<mesh::MeshStats>(
        frames.size(), [&](std::size_t i, dsp::Rng& rng) {
          cvec workspace;
          StageCounts counts;
          return mesh_trial_staged(model, clean[i], rng, workspace, nullptr, -1,
                                   counts);
        });
    EXPECT_TRUE(same_mesh_stats(library, staged));
    EXPECT_EQ(library.trials, frames.size());
  }
}

void expect_same(const mesh::FusionResult& a, const mesh::FusionResult& b) {
  EXPECT_EQ(a.score, b.score);
  EXPECT_EQ(a.is_attack, b.is_attack);
  EXPECT_EQ(a.used, b.used);
}

TEST(MeshDecomposition, FusionAndLocalizationReplayObservation) {
  const mesh::SensorField field(mesh_config(sim::LinkKind::emulated));
  const FieldModel model(field);
  for (const zigbee::MacFrame& frame : text_frames(31, 4)) {
    dsp::Rng rng = dsp::Rng::for_stream(5, frame.sequence);
    const mesh::MeshObservation observed = field.observe_frame(frame, rng);
    mesh::MeshObservation replayed;
    replayed.sensors = observed.sensors;
    fuse_and_localize(model, replayed, nullptr, -1);
    expect_same(observed.majority, replayed.majority);
    expect_same(observed.weighted, replayed.weighted);
    expect_same(observed.bayesian, replayed.bayesian);
    EXPECT_EQ(observed.localization.position.x, replayed.localization.position.x);
    EXPECT_EQ(observed.localization.position.y, replayed.localization.position.y);
    EXPECT_EQ(observed.localization.converged, replayed.localization.converged);
    EXPECT_EQ(observed.localization.iterations, replayed.localization.iterations);
    EXPECT_EQ(observed.localization.residual_rms_m,
              replayed.localization.residual_rms_m);
    EXPECT_EQ(observed.position_error_m, replayed.position_error_m);
  }
}

TEST(Statistics, NearestRankPercentile) {
  std::vector<double> values;
  for (int i = 1; i <= 1000; ++i) values.push_back(i);
  EXPECT_EQ(percentile(values, 0.99), 990.0);
  EXPECT_EQ(percentile(values, 0.50), 500.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(Statistics, LatencySegmentsIgnoreOneStalledSegment) {
  LatencySegments latencies;
  for (int segment = 0; segment < 3; ++segment) {
    for (int i = 1; i <= 1000; ++i) latencies.add(segment == 1 ? 50.0 * i : i);
  }
  latencies.add(1e9);  // a trailing partial segment does not count
  EXPECT_EQ(latencies.count(), 3001u);
  EXPECT_EQ(latencies.p99(), 990.0);
  EXPECT_EQ(latencies.p50(), 500.0);

  LatencySegments short_run;
  for (const double ms : {3.0, 1.0, 2.0}) short_run.add(ms);
  EXPECT_EQ(short_run.p50(), 2.0);
}

TEST(Statistics, FastRoundsAreTheThreeFastest) {
  // Slow phases anywhere in the run do not move the result.
  std::vector<double> rounds;
  for (int i = 0; i < 40; ++i) rounds.push_back(i % 2 == 0 ? 2.0 : 1.5 + i);
  for (const double s : {1.3, 1.0, 1.2}) rounds.push_back(s);
  EXPECT_EQ(fast_round_seconds(rounds), 1.2);
  EXPECT_EQ(fast_round_seconds({2.0, 1.0}), 1.5);
}

TEST(Spans, SelfTimeSubtractsDirectChildren) {
  TraceLog log;
  SpanBuffer spans;
  spans.add("trial", -1, 0, 100);
  spans.add("stage", 0, 10, 40);
  spans.add("inner", 1, 15, 25);
  spans.add("stage", 0, 50, 70);
  log.append("t", std::move(spans));
  const LayerTimes layers = log.summarize("t");
  EXPECT_EQ(total_ns(layers, "trial"), 100.0);
  EXPECT_EQ(self_ns(layers, "trial"), 50.0);
  EXPECT_EQ(total_ns(layers, "stage"), 50.0);
  EXPECT_EQ(self_ns(layers, "stage"), 40.0);
  EXPECT_EQ(layers.at("stage").count, 2u);
}

}  // namespace
