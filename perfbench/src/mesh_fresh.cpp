// mesh_fresh — a 16-sensor field (6 m grid) under real-world channels
// (Rician K=6, 2 kHz CFO, random phase, 2 dB shadowing). Half the trials
// face the emulated emitter, half the authentic one, and every trial sends
// a frame never seen before, as real traffic with sequence numbers would.
// So the waveform synthesis that mc_awgn moves into set-up runs inside the
// timed region here, serially, on every frame.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <vector>

#include "mesh/sensor_field.h"
#include "sim/engine.h"
#include "sim/link.h"
#include "stages.h"
#include "workloads.h"
#include "zigbee/app.h"

namespace perfbench {

using namespace ctc;

namespace {

constexpr std::size_t kSensors = 16;
/// Fresh frames per run_mesh_trials call; one round = one call per field.
constexpr std::size_t kFramesPerCall = 8;
/// Rounds before both fields are rebuilt, which bounds their waveform
/// caches (64 frames each) and so the run's peak memory.
constexpr std::size_t kRoundsPerEpoch = 8;
/// Set-up is a few small allocations and one worker thread, so each of
/// the kSetupSamples timings covers kSetupBuilds builds.
constexpr int kSetupSamples = 9;
constexpr int kSetupBuilds = 50;
/// Traced run: fresh frames per field per pass, and pass pairs.
constexpr std::size_t kTraceFrames = 24;
constexpr int kTracePairs = 3;

constexpr sim::LinkKind kKinds[] = {sim::LinkKind::emulated,
                                    sim::LinkKind::authentic};

mesh::MeshConfig field_config(sim::LinkKind kind) {
  mesh::MeshConfig config;
  config.sensors = kSensors;
  config.kind = kind;
  config.rician_k_factor = 6.0;
  config.cfo_hz = 2000.0;
  config.random_phase = true;
  config.shadow_sigma_db = 2.0;
  // A 6 m grid: on the default 8 m one, 2 dB shadowing leaves about one
  // trial in 20 000 whose Gauss-Newton fix misses its 25-iteration budget
  // (none in 2 million here), which would count as a failed trial.
  config.extent_m = 6.0;
  // The real-scenario detector (Sec. VI-C): |C40| is immune to the CFO and
  // phase rotation this channel applies.
  config.detector.c40_mode = defense::C40Mode::magnitude;
  return config;
}

/// Never-repeating text frames from a seed-chosen start index.
class FreshFrames {
 public:
  explicit FreshFrames(std::uint64_t seed) {
    InputRng rng(seed ^ 0x6d6573685f66ULL);
    next_ = static_cast<unsigned>(rng.below(100000));
    engine_seed_ = rng.next();
  }
  std::vector<zigbee::MacFrame> take(std::size_t count) {
    std::vector<zigbee::MacFrame> frames;
    for (std::size_t k = 0; k < count; ++k, ++next_) {
      frames.push_back(zigbee::make_text_frame(
          next_ % 100000, static_cast<std::uint8_t>(next_ & 0xFF)));
    }
    return frames;
  }
  std::uint64_t engine_seed() const { return engine_seed_; }

 private:
  unsigned next_ = 0;
  std::uint64_t engine_seed_ = 0;
};

struct Rig {
  std::vector<mesh::SensorField> fields;  ///< one per kKinds entry
  std::optional<sim::TrialEngine> engine;
};

std::vector<mesh::SensorField> build_fields() {
  std::vector<mesh::SensorField> fields;
  for (const sim::LinkKind kind : kKinds) fields.emplace_back(field_config(kind));
  return fields;
}

Rig build_rig(std::uint64_t engine_seed) {
  Rig rig;
  rig.fields = build_fields();
  rig.engine.emplace(sim::EngineConfig{engine_seed, kMeshThreads});
  return rig;
}

/// Trials whose majority-fused verdict contradicts the emitter or whose
/// localization did not converge (a trial with both counts once per
/// cause, capped at the trial count).
std::uint64_t failed_trials(const mesh::MeshStats& stats, sim::LinkKind kind) {
  const bool attack = kind == sim::LinkKind::emulated;
  const std::size_t wrong =
      attack ? stats.trials - stats.majority_attacks : stats.majority_attacks;
  const std::size_t lost = stats.trials - stats.localization_converged;
  if (wrong + lost > 0) {
    std::fprintf(stderr,
                 "mesh_fresh: %zu of %zu trials against the %s emitter fused "
                 "the wrong verdict, %zu did not localize\n",
                 wrong, stats.trials, attack ? "emulated" : "authentic", lost);
  }
  return std::min(stats.trials, wrong + lost);
}

/// Samples one sensor receives per frame, for each emitter kind. Text
/// frames all have the same length.
std::vector<double> frame_samples(const std::vector<zigbee::MacFrame>& probe) {
  std::vector<double> samples;
  for (const sim::LinkKind kind : kKinds) {
    sim::LinkConfig config;
    config.kind = kind;
    const sim::Link link(config);
    samples.push_back(
        static_cast<double>(link.clean_waveform(probe.front()).size()));
  }
  return samples;
}

}  // namespace

Report run_mesh_fresh(const Options& options) {
  FreshFrames fresh(options.seed);
  const std::vector<double> samples_per_obs = frame_samples(fresh.take(1));
  Report report;
  Rig rig;
  report.set("setup_s", median_setup_seconds(kSetupSamples, kSetupBuilds, rig, [&] {
               return build_rig(fresh.engine_seed());
             }),
             "s");

  double round_samples = 0.0;
  for (const double samples : samples_per_obs) {
    round_samples += static_cast<double>(kFramesPerCall * kSensors) * samples;
  }
  std::vector<double> round_s;
  std::size_t rounds_in_epoch = 0;
  // One warm-up round outside the measurement.
  for (const mesh::SensorField& field : rig.fields) {
    mesh::run_mesh_trials(field, fresh.take(kFramesPerCall), kFramesPerCall,
                          *rig.engine);
  }
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
  while (now_ns() < deadline || round_s.size() < kFastRounds) {
    if (++rounds_in_epoch > kRoundsPerEpoch) {
      rig.fields = build_fields();
      rounds_in_epoch = 1;
    }
    std::vector<std::vector<zigbee::MacFrame>> frames;
    for (std::size_t f = 0; f < rig.fields.size(); ++f) {
      frames.push_back(fresh.take(kFramesPerCall));
    }
    const std::int64_t start = now_ns();
    for (std::size_t f = 0; f < rig.fields.size(); ++f) {
      const mesh::MeshStats stats = mesh::run_mesh_trials(
          rig.fields[f], frames[f], kFramesPerCall, *rig.engine);
      report.attempted += stats.trials;
      report.failed += failed_trials(stats, kKinds[f]);
    }
    round_s.push_back(seconds_between(start, now_ns()));
  }
  const double fast_s = fast_round_seconds(round_s);
  const double calls = static_cast<double>(rig.fields.size());
  report.set("msamples_per_s", round_samples / fast_s / 1e6, "Msamples/s");
  report.set("verdict_latency_p50_ms", fast_s * 1e3 / calls, "ms");
  const double round_obs = calls * kFramesPerCall * kSensors;
  std::fprintf(stderr,
               "mesh_fresh: %zu rounds, %llu trials, %.0f sensor obs/s in the "
               "fast rounds, %.0f over all\n",
               round_s.size(), static_cast<unsigned long long>(report.attempted),
               round_obs / fast_s, round_obs / median(round_s));
  return report;
}

namespace {

struct TracedTrial {
  mesh::MeshObservation observation;
  SpanBuffer spans;
  StageCounts counts;
};

struct TracedStats {
  mesh::MeshStats stats;
  std::vector<SpanBuffer> spans;
  StageCounts counts;
  std::size_t iterations = 0;

  void add(TracedTrial&& trial) {
    stats.add(trial.observation);
    iterations += trial.observation.localization.iterations;
    spans.push_back(std::move(trial.spans));
    counts.add(trial.counts);
  }
};

}  // namespace

Report trace_mesh_fresh(const Options& options, TraceLog& log) {
  FreshFrames fresh(options.seed);
  Rig rig = build_rig(fresh.engine_seed());
  sim::TrialEngine& engine = *rig.engine;
  std::vector<std::vector<zigbee::MacFrame>> frames;
  for (std::size_t f = 0; f < rig.fields.size(); ++f) {
    frames.push_back(fresh.take(kTraceFrames));
  }
  std::vector<FieldModel> models;
  std::vector<Synthesizer> synthesizers;
  for (const mesh::SensorField& field : rig.fields) {
    models.emplace_back(field);
    sim::LinkConfig link;
    link.kind = field.config().kind;
    link.profile = field.config().profile;
    link.emulator = field.config().emulator;
    synthesizers.emplace_back(link);
  }
  Report report;

  // Untraced passes: SensorField::prime (timed on its own) then
  // run_mesh_trials, whose own prime then finds every frame cached. The
  // traced passes replay the same run indices stage by stage.
  const std::uint64_t first_run = engine.next_run_index();
  std::vector<mesh::MeshStats> reference;

  std::vector<double> untraced_s, traced_s, prime_s;
  StageCounts counts;
  std::size_t trials = 0, iterations = 0, synthesized = 0,
              emulated_input_samples = 0;
  const zigbee::Transmitter transmitter;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    if (kKinds[f] != sim::LinkKind::emulated) continue;
    for (const zigbee::MacFrame& frame : frames[f]) {
      emulated_input_samples +=
          kTracePairs * transmitter.transmit_frame(frame).size();
    }
  }
  std::uint64_t op = 0;
  for (int pair = 0; pair < kTracePairs; ++pair) {
    const std::vector<mesh::SensorField> fields = build_fields();
    engine.seek_run(first_run);
    double prime = 0.0;
    std::int64_t start = now_ns();
    for (std::size_t f = 0; f < fields.size(); ++f) {
      const std::int64_t prime_start = now_ns();
      fields[f].prime(frames[f]);
      prime += seconds_between(prime_start, now_ns());
      mesh::MeshStats stats =
          mesh::run_mesh_trials(fields[f], frames[f], kTraceFrames, engine);
      if (pair == 0) reference.push_back(std::move(stats));
    }
    untraced_s.push_back(seconds_between(start, now_ns()));
    prime_s.push_back(prime);

    engine.seek_run(first_run);
    start = now_ns();
    for (std::size_t f = 0; f < fields.size(); ++f) {
      // Serial synthesis of every fresh frame, as SensorField::prime does.
      std::vector<cvec> clean;
      for (const zigbee::MacFrame& frame : frames[f]) {
        SpanBuffer spans;
        spans.op = op++;
        const int root = spans.open("sim.prime");
        clean.push_back(synthesizers[f](frame, &spans, root));
        spans.close(root);
        log.append("mesh_fresh.synthesis", std::move(spans));
        ++synthesized;
      }
      const std::uint64_t op_base = op;
      op += kTraceFrames;
      TracedStats traced;
      engine.run_into(traced, kTraceFrames, [&](std::size_t i, dsp::Rng& rng) {
        thread_local cvec workspace;
        TracedTrial trial;
        trial.spans.op = op_base + i;
        const int root = trial.spans.open("trial");
        trial.observation = mesh_trial_staged(models[f], clean[i], rng, workspace,
                                              &trial.spans, root, trial.counts);
        trial.spans.close(root);
        return trial;
      });
      report.check(same_mesh_stats(traced.stats, reference[f]),
                   "mesh_fresh: staged trials != run_mesh_trials");
      for (SpanBuffer& spans : traced.spans) {
        log.append("mesh_fresh", std::move(spans));
      }
      counts.add(traced.counts);
      trials += kTraceFrames;
      iterations += traced.iterations;
    }
    traced_s.push_back(seconds_between(start, now_ns()));
  }

  report.attempted += trials + synthesized;
  const LayerTimes layers = log.summarize("mesh_fresh");
  const LayerTimes synthesis = log.summarize("mesh_fresh.synthesis");
  const double channel_samples = static_cast<double>(counts.channel_samples);
  const double n_trials = static_cast<double>(trials);
  double traced_wall = 0.0;
  for (double s : traced_s) traced_wall += s;
  const std::vector<double> samples_per_obs = frame_samples(frames.front());
  const double epoch_cache_bytes =
      static_cast<double>(kRoundsPerEpoch * kFramesPerCall) *
      (samples_per_obs[0] + samples_per_obs[1]) * static_cast<double>(sizeof(cplx));

  report.set("mesh_fresh.channel.ns_per_sample",
             ratio(total_ns(layers, "channel"), channel_samples), "ns/sample");
  report.set("mesh_fresh.channel.noise_ns_per_sample",
             ratio(total_ns(layers, "channel.noise"), channel_samples),
             "ns/sample");
  report.set("mesh_fresh.channel.fade_ns_per_sample",
             ratio(total_ns(layers, "channel.fade"), channel_samples),
             "ns/sample");
  report.set("mesh_fresh.channel.rotate_ns_per_sample",
             ratio(total_ns(layers, "channel.rotate"), channel_samples),
             "ns/sample");
  report.set("mesh_fresh.zigbee.receive_ns_per_sample",
             ratio(total_ns(layers, "zigbee.receive"),
                   static_cast<double>(counts.receive_samples)),
             "ns/sample");
  report.set("mesh_fresh.zigbee.lock_ratio",
             ratio(static_cast<double>(counts.locked),
                   static_cast<double>(counts.receives)),
             "ratio");
  report.set("mesh_fresh.defense.classify_ns_per_chip",
             ratio(total_ns(layers, "defense.classify"),
                   static_cast<double>(counts.chips)),
             "ns/chip");
  report.set("mesh_fresh.sim.engine_busy_ratio",
             ratio(total_ns(layers, "trial") * 1e-9,
                   static_cast<double>(kMeshThreads) * traced_wall),
             "ratio");
  report.set("mesh_fresh.sim.trial_self_us",
             ratio(self_ns(layers, "trial") * 1e-3, n_trials), "us/trial");
  report.set("mesh_fresh.zigbee.transmit_us_per_frame",
             ratio(total_ns(synthesis, "zigbee.transmit") * 1e-3,
                   static_cast<double>(synthesized)),
             "us/frame");
  report.set("mesh_fresh.attack.emulate_ns_per_sample",
             ratio(total_ns(synthesis, "attack.emulate"),
                   static_cast<double>(emulated_input_samples)),
             "ns/sample");
  report.set("mesh_fresh.sim.prime_ms_per_frame",
             ratio(median(prime_s) * 1e3,
                   static_cast<double>(rig.fields.size() * kTraceFrames)),
             "ms/frame");
  report.set("mesh_fresh.sim.waveform_cache_mb",
             epoch_cache_bytes / (1024.0 * 1024.0), "MiB");
  report.set("mesh_fresh.mesh.fuse_us_per_trial",
             ratio(total_ns(layers, "mesh.fuse") * 1e-3, n_trials), "us/trial");
  report.set("mesh_fresh.mesh.localize_us_per_trial",
             ratio(total_ns(layers, "mesh.localize") * 1e-3, n_trials),
             "us/trial");
  report.set("mesh_fresh.mesh.localize_iterations_mean",
             ratio(static_cast<double>(iterations), n_trials), "iterations");
  report.set("mesh_fresh.mesh.sensor_usable_ratio",
             ratio(static_cast<double>(counts.classified),
                   static_cast<double>(counts.receives)),
             "ratio");
  report.set("mesh_fresh.trace_overhead", median(traced_s) / median(untraced_s),
             "ratio");
  return report;
}

}  // namespace perfbench
