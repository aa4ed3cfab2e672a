// mc_awgn — the paper's Sec. VII-B defense sweep: authentic and emulated
// links at AWGN 8/12/17 dB, 20 repeating text payloads per link, on a
// 2-thread trial engine. The link waveform cache turns attack synthesis
// into set-up, so the timed work is channel noise, receive and classify.
#include <cstdio>
#include <optional>
#include <vector>

#include "defense/detector.h"
#include "sim/defense_run.h"
#include "sim/engine.h"
#include "sim/link.h"
#include "stages.h"
#include "workloads.h"
#include "zigbee/app.h"

namespace perfbench {

using namespace ctc;

namespace {

constexpr unsigned kPayloads = 20;
/// Table IV uses 7 dB for the lowest point, but there the default detector
/// falsely alarms on about one authentic frame in 3 million (DE^2 0.21 vs
/// Q = 0.2), which a run of 300 000 trials can hit. At 8 dB a million
/// trials per class stayed inside [0.016, 0.112] / [0.248, 1.31].
constexpr double kSnrsDb[] = {8.0, 12.0, 17.0};
/// Trials per collect_defense_samples call: each payload 10 times, as a
/// sweep point does. The engine wakes its worker once per block of up to
/// 64 trials, so a 200-trial call pays for a wake-up every 50 trials, not
/// every 20, and a busy host's wake-up stalls weigh less.
constexpr std::size_t kTrialsPerCall = 10 * kPayloads;
constexpr int kSetupRepeats = 5;
/// Traced run: rounds per pass, and untraced/traced pass pairs.
constexpr std::size_t kTraceRounds = 2;
constexpr int kTracePairs = 3;

struct Inputs {
  std::vector<zigbee::MacFrame> frames;
  std::uint64_t engine_seed = 0;
};

Inputs make_inputs(std::uint64_t seed) {
  InputRng rng(seed ^ 0x6d635f6177676eULL);
  Inputs inputs;
  const auto base = static_cast<unsigned>(rng.below(100000 - kPayloads));
  for (unsigned k = 0; k < kPayloads; ++k) {
    inputs.frames.push_back(zigbee::make_text_frame(
        base + k, static_cast<std::uint8_t>((base + k) & 0xFF)));
  }
  inputs.engine_seed = rng.next();
  return inputs;
}

std::vector<sim::LinkConfig> link_configs() {
  std::vector<sim::LinkConfig> configs;
  for (const double snr : kSnrsDb) {
    for (const auto kind : {sim::LinkKind::authentic, sim::LinkKind::emulated}) {
      sim::LinkConfig config;
      config.kind = kind;
      config.environment = channel::Environment::awgn(snr);
      configs.push_back(config);
    }
  }
  return configs;
}

/// Everything set-up builds: primed links, the detector, the engine.
struct Rig {
  std::vector<sim::Link> links;
  defense::Detector detector;
  std::optional<sim::TrialEngine> engine;
};

Rig build_rig(const Inputs& inputs) {
  Rig rig;
  const auto configs = link_configs();
  rig.links.reserve(configs.size());
  for (const sim::LinkConfig& config : configs) {
    rig.links.emplace_back(config);
    rig.links.back().prime(inputs.frames);
  }
  rig.engine.emplace(sim::EngineConfig{inputs.engine_seed, kMcThreads});
  return rig;
}

/// Usable frames whose verdict contradicts the link kind.
std::uint64_t wrong_verdicts(const sim::DefenseSamples& samples,
                             const sim::Link& link, double threshold) {
  const bool attack = link.config().kind == sim::LinkKind::emulated;
  std::uint64_t wrong = 0;
  for (const double distance : samples.distances) {
    if ((distance >= threshold) == attack) continue;
    ++wrong;
    std::fprintf(stderr,
                 "mc_awgn: trial failed: %s link at %.0f dB, DE^2 %.4f vs "
                 "threshold %.2f\n",
                 attack ? "emulated" : "authentic",
                 link.config().environment.snr_db, distance, threshold);
  }
  return wrong;
}

/// Samples one call per link sends through the channel and receiver.
double samples_per_round(const Rig& rig,
                         const std::vector<zigbee::MacFrame>& frames) {
  std::size_t samples = 0;
  for (const sim::Link& link : rig.links) {
    for (std::size_t i = 0; i < kTrialsPerCall; ++i) {
      samples += link.clean_waveform(frames[i % frames.size()]).size();
    }
  }
  return static_cast<double>(samples);
}

}  // namespace

Report run_mc_awgn(const Options& options) {
  const Inputs inputs = make_inputs(options.seed);
  Report report;
  Rig rig;
  report.set("setup_s", median_setup_seconds(kSetupRepeats, 1, rig, [&] {
               return build_rig(inputs);
             }),
             "s");

  const double threshold = rig.detector.config().threshold;
  const double round_samples = samples_per_round(rig, inputs.frames);
  std::vector<double> round_s;
  // One warm-up round outside the measurement (pool spin-up, allocator).
  for (const sim::Link& link : rig.links) {
    sim::collect_defense_samples(link, inputs.frames, kTrialsPerCall,
                                 rig.detector, *rig.engine);
  }
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
  while (now_ns() < deadline || round_s.size() < kFastRounds) {
    const std::int64_t start = now_ns();
    for (const sim::Link& link : rig.links) {
      const sim::DefenseSamples samples = sim::collect_defense_samples(
          link, inputs.frames, kTrialsPerCall, rig.detector, *rig.engine);
      report.attempted += kTrialsPerCall;
      report.failed += wrong_verdicts(samples, link, threshold);
    }
    round_s.push_back(seconds_between(start, now_ns()));
  }
  const double fast_s = fast_round_seconds(round_s);
  const double calls = static_cast<double>(rig.links.size());
  report.set("msamples_per_s", round_samples / fast_s / 1e6, "Msamples/s");
  report.set("verdict_latency_p50_ms", fast_s * 1e3 / calls, "ms");
  std::fprintf(stderr,
               "mc_awgn: %zu rounds, %llu trials, %.0f trials/s in the fast "
               "rounds, %.0f over all\n",
               round_s.size(), static_cast<unsigned long long>(report.attempted),
               calls * kTrialsPerCall / fast_s,
               calls * kTrialsPerCall / median(round_s));
  return report;
}

namespace {

struct TracedTrial {
  sim::DefenseObservation observation;
  SpanBuffer spans;
  StageCounts counts;
};

/// Engine aggregator of the traced pass: the defense aggregate plus every
/// trial's spans and counts, folded in trial order.
struct TracedSamples {
  sim::DefenseSamples samples;
  std::vector<SpanBuffer> spans;
  StageCounts counts;

  void add(TracedTrial&& trial) {
    samples.add(trial.observation);
    spans.push_back(std::move(trial.spans));
    counts.add(trial.counts);
  }
};

}  // namespace

Report trace_mc_awgn(const Options& options, TraceLog& log) {
  const Inputs inputs = make_inputs(options.seed);
  Rig rig = build_rig(inputs);
  sim::TrialEngine& engine = *rig.engine;
  const auto configs = link_configs();
  Report report;

  // -- Synthesis: the library's prime on fresh links, then the staged
  // transmit / emulate / normalize chain checked against the cached
  // waveforms.
  double prime_ns = 0.0;
  for (const sim::LinkConfig& config : configs) {
    const sim::Link fresh(config);
    const std::int64_t start = now_ns();
    fresh.prime(inputs.frames);
    prime_ns += static_cast<double>(now_ns() - start);
  }
  std::vector<std::vector<cvec>> clean(rig.links.size());
  std::size_t emulated_input_samples = 0;
  const zigbee::Transmitter transmitter;
  std::uint64_t op = 0;
  for (std::size_t l = 0; l < rig.links.size(); ++l) {
    const Synthesizer synthesize(configs[l]);
    for (const zigbee::MacFrame& frame : inputs.frames) {
      SpanBuffer spans;
      spans.op = op++;
      const int root = spans.open("sim.synthesize");
      cvec waveform = synthesize(frame, &spans, root);
      spans.close(root);
      log.append("mc_awgn.synthesis", std::move(spans));
      clean[l].push_back(rig.links[l].clean_waveform(frame));
      report.check(waveform == clean[l].back(),
                   "mc_awgn: staged synthesis != Link::clean_waveform");
      if (configs[l].kind == sim::LinkKind::emulated) {
        emulated_input_samples += transmitter.transmit_frame(frame).size();
      }
    }
  }

  // -- Trials: untraced passes call collect_defense_samples; traced passes
  // replay the same run indices stage by stage and must match the first.
  const std::uint64_t first_run = engine.next_run_index();
  std::vector<channel::Environment> channels;
  std::vector<zigbee::Receiver> receivers;
  for (const sim::LinkConfig& config : configs) {
    channels.push_back(link_channel(config));
    receivers.push_back(profile_receiver(config.profile));
  }

  std::vector<sim::DefenseSamples> reference;
  std::vector<double> untraced_s, traced_s;
  StageCounts counts;
  std::size_t trials = 0;
  for (int pair = 0; pair < kTracePairs; ++pair) {
    engine.seek_run(first_run);
    std::int64_t start = now_ns();
    for (std::size_t round = 0; round < kTraceRounds; ++round) {
      for (const sim::Link& link : rig.links) {
        sim::DefenseSamples samples = sim::collect_defense_samples(
            link, inputs.frames, kTrialsPerCall, rig.detector, engine);
        if (pair == 0) reference.push_back(std::move(samples));
      }
    }
    untraced_s.push_back(seconds_between(start, now_ns()));

    engine.seek_run(first_run);
    start = now_ns();
    std::size_t index = 0;
    for (std::size_t round = 0; round < kTraceRounds; ++round) {
      for (std::size_t l = 0; l < rig.links.size(); ++l) {
        const std::uint64_t op_base = op;
        op += kTrialsPerCall;
        TracedSamples traced;
        engine.run_into(traced, kTrialsPerCall, [&](std::size_t i, dsp::Rng& rng) {
          thread_local cvec workspace;
          TracedTrial trial;
          trial.spans.op = op_base + i;
          const int root = trial.spans.open("trial");
          trial.observation = defense_trial_staged(
              rig.links[l], inputs.frames[i % kPayloads], clean[l][i % kPayloads],
              channels[l], receivers[l], rig.detector, rng, workspace,
              &trial.spans, root, trial.counts);
          trial.spans.close(root);
          return trial;
        });
        report.check(same_defense_samples(traced.samples, reference[index++]),
                     "mc_awgn: staged trials != collect_defense_samples");
        for (SpanBuffer& spans : traced.spans) {
          log.append("mc_awgn", std::move(spans));
        }
        counts.add(traced.counts);
        trials += kTrialsPerCall;
      }
    }
    traced_s.push_back(seconds_between(start, now_ns()));
  }

  report.attempted += trials + configs.size() * kPayloads;
  const LayerTimes layers = log.summarize("mc_awgn");
  const LayerTimes synthesis = log.summarize("mc_awgn.synthesis");
  const double channel_samples = static_cast<double>(counts.channel_samples);
  double cache_bytes = 0.0;
  for (const auto& waveforms : clean) {
    for (const cvec& waveform : waveforms) {
      cache_bytes += static_cast<double>(waveform.size() * sizeof(cplx));
    }
  }
  double traced_wall = 0.0;
  for (double s : traced_s) traced_wall += s;

  report.set("mc_awgn.channel.ns_per_sample",
             ratio(total_ns(layers, "channel"), channel_samples), "ns/sample");
  report.set("mc_awgn.channel.noise_ns_per_sample",
             ratio(total_ns(layers, "channel.noise"), channel_samples),
             "ns/sample");
  report.set("mc_awgn.zigbee.receive_ns_per_sample",
             ratio(total_ns(layers, "zigbee.receive"),
                   static_cast<double>(counts.receive_samples)),
             "ns/sample");
  report.set("mc_awgn.zigbee.lock_ratio",
             ratio(static_cast<double>(counts.locked),
                   static_cast<double>(counts.receives)),
             "ratio");
  report.set("mc_awgn.defense.classify_ns_per_chip",
             ratio(total_ns(layers, "defense.classify"),
                   static_cast<double>(counts.chips)),
             "ns/chip");
  report.set("mc_awgn.sim.engine_busy_ratio",
             ratio(total_ns(layers, "trial") * 1e-9,
                   static_cast<double>(kMcThreads) * traced_wall),
             "ratio");
  report.set("mc_awgn.sim.trial_self_us",
             ratio(self_ns(layers, "trial") * 1e-3, static_cast<double>(trials)),
             "us/trial");
  report.set("mc_awgn.sim.cache_lookup_us_per_trial",
             ratio(total_ns(layers, "sim.cache_lookup") * 1e-3,
                   static_cast<double>(trials)),
             "us/trial");
  report.set("mc_awgn.zigbee.transmit_us_per_frame",
             ratio(total_ns(synthesis, "zigbee.transmit") * 1e-3,
                   static_cast<double>(configs.size() * kPayloads)),
             "us/frame");
  report.set("mc_awgn.attack.emulate_ns_per_sample",
             ratio(total_ns(synthesis, "attack.emulate"),
                   static_cast<double>(emulated_input_samples)),
             "ns/sample");
  report.set("mc_awgn.sim.prime_ms_per_frame",
             ratio(prime_ns * 1e-6,
                   static_cast<double>(configs.size() * kPayloads)),
             "ms/frame");
  report.set("mc_awgn.sim.waveform_cache_mb", cache_bytes / (1024.0 * 1024.0),
             "MiB");
  report.set("mc_awgn.trace_overhead", median(traced_s) / median(untraced_s),
             "ratio");
  return report;
}

}  // namespace perfbench
