#include "stages.h"

#include <cmath>

#include "channel/awgn.h"
#include "channel/fading.h"
#include "channel/impairments.h"
#include "dsp/require.h"
#include "dsp/stats.h"
#include "mesh/fusion.h"
#include "mesh/localize.h"

namespace perfbench {

using namespace ctc;

namespace {

/// Minimum chip count for a defense feature (sim/defense_run.cpp and
/// mesh/sensor_field.cpp use the same floor).
constexpr std::size_t kMinChips = 8;

const rvec& defense_tap(const zigbee::ReceiveResult& rx) { return rx.freq_chips; }

}  // namespace

void StageCounts::add(const StageCounts& other) {
  channel_samples += other.channel_samples;
  receives += other.receives;
  receive_samples += other.receive_samples;
  locked += other.locked;
  classified += other.classified;
  chips += other.chips;
}

channel::Environment link_channel(const sim::LinkConfig& config) {
  channel::Environment env = config.environment;
  env.snr_db = env.effective_snr_db() + config.profile.sensitivity_gain_db;
  env.distance_m.reset();
  return env;
}

zigbee::Receiver profile_receiver(const zigbee::ReceiverProfile& profile) {
  zigbee::ReceiverConfig config;
  config.profile = profile;
  return zigbee::Receiver(config);
}

void propagate_staged(const channel::Environment& env,
                      std::span<const cplx> signal, cvec& out, dsp::Rng& rng,
                      SpanBuffer* spans, int parent) {
  CTC_REQUIRE_MSG(!env.multipath, "staged channel covers flat fading only");
  out.assign(signal.begin(), signal.end());
  if (env.rician_k_factor) {
    ScopedSpan span(spans, "channel.fade", parent);
    channel::apply_flat_fading_inplace(
        out, channel::rician_tap(*env.rician_k_factor, rng));
  }
  const double phase =
      env.random_phase ? rng.uniform(0.0, kTwoPi) : env.phase_offset_rad;
  if (env.cfo_hz != 0.0 || phase != 0.0) {
    ScopedSpan span(spans, "channel.rotate", parent);
    channel::apply_cfo_inplace(out, env.cfo_hz, env.sample_rate_hz, phase);
  }
  if (env.timing_offset != 0.0) {
    ScopedSpan span(spans, "channel.timing", parent);
    channel::apply_timing_offset_inplace(out, env.timing_offset);
  }
  ScopedSpan span(spans, "channel.noise", parent);
  channel::add_noise_variance_inplace(out, dsp::from_db(-env.effective_snr_db()),
                                      rng);
}

Synthesizer::Synthesizer(const sim::LinkConfig& config)
    : kind_(config.kind), emulator_(config.emulator) {
  CTC_REQUIRE_MSG(!config.attack_via_rf,
                  "staged synthesis covers the common-baseband attack only");
}

cvec Synthesizer::operator()(const zigbee::MacFrame& frame, SpanBuffer* spans,
                             int parent) const {
  cvec waveform;
  {
    ScopedSpan span(spans, "zigbee.transmit", parent);
    waveform = transmitter_.transmit_frame(frame);
  }
  if (kind_ == sim::LinkKind::emulated) {
    {
      ScopedSpan span(spans, "attack.emulate", parent);
      waveform = emulator_.emulate(waveform).emulated_4mhz;
    }
    ScopedSpan span(spans, "sim.normalize", parent);
    waveform = dsp::normalize_power(waveform);
  }
  return waveform;
}

sim::DefenseObservation defense_trial_staged(
    const sim::Link& link, const zigbee::MacFrame& frame,
    std::span<const cplx> clean, const channel::Environment& env,
    const zigbee::Receiver& receiver, const defense::Detector& detector,
    dsp::Rng& rng, cvec& workspace, SpanBuffer* spans, int parent,
    StageCounts& counts) {
  {
    ScopedSpan span(spans, "sim.cache_lookup", parent);
    link.prime(std::span<const zigbee::MacFrame>(&frame, 1));
  }
  {
    ScopedSpan span(spans, "channel", parent);
    propagate_staged(env, clean, workspace, rng, spans, span.index());
  }
  counts.channel_samples += clean.size();
  zigbee::ReceiveResult rx;
  {
    ScopedSpan span(spans, "zigbee.receive", parent);
    rx = receiver.receive(workspace);
  }
  ++counts.receives;
  counts.receive_samples += workspace.size();
  counts.locked += rx.phr_ok ? 1 : 0;

  sim::DefenseObservation observation;
  const rvec& chips = defense_tap(rx);
  if (chips.size() < kMinChips) return observation;
  defense::Verdict verdict;
  {
    ScopedSpan span(spans, "defense.classify", parent);
    verdict = detector.classify(chips);
  }
  ++counts.classified;
  counts.chips += chips.size();
  observation.usable = true;
  observation.distance_sq = verdict.distance_sq;
  observation.c40 = verdict.feature.c40;
  observation.c42 = verdict.feature.c42;
  return observation;
}

FieldModel::FieldModel(const mesh::SensorField& sensor_field)
    : field(&sensor_field),
      receiver(profile_receiver(sensor_field.config().profile)),
      detector(sensor_field.config().detector) {
  const mesh::MeshConfig& config = sensor_field.config();
  CTC_REQUIRE_MSG(config.tap == sim::DefenseTap::discriminator,
                  "staged mesh trial covers the discriminator tap only");
  for (const double meters : sensor_field.distances()) {
    model_rssi_dbm.push_back(config.path_loss.rssi_dbm(meters));
    channel::Environment env;
    env.snr_db = config.path_loss.snr_db(meters) + config.snr_offset_db +
                 config.profile.sensitivity_gain_db;
    env.rician_k_factor = config.rician_k_factor;
    env.cfo_hz = config.cfo_hz;
    env.random_phase = config.random_phase;
    env.sample_rate_hz = config.sample_rate_hz;
    environments.push_back(env);
  }
}

void fuse_and_localize(const FieldModel& model,
                       mesh::MeshObservation& observation, SpanBuffer* spans,
                       int parent) {
  const mesh::MeshConfig& config = model.field->config();
  const std::size_t sensors = observation.sensors.size();
  {
    ScopedSpan span(spans, "mesh.fuse", parent);
    std::vector<mesh::SensorVote> votes(sensors);
    for (std::size_t s = 0; s < sensors; ++s) {
      const mesh::SensorObservation& sensor = observation.sensors[s];
      votes[s].usable = sensor.usable;
      votes[s].is_attack = sensor.is_attack;
      votes[s].de2 = sensor.de2;
      votes[s].weight = std::pow(10.0, sensor.measured_rssi_dbm / 10.0);
    }
    observation.majority = mesh::fuse_majority(votes);
    observation.weighted =
        mesh::fuse_rssi_weighted(votes, config.detector.threshold);
    observation.bayesian = mesh::fuse_bayesian(
        votes, std::span<const mesh::GaussianPair>(&config.bayes, 1));
  }
  ScopedSpan span(spans, "mesh.localize", parent);
  std::vector<mesh::RssiSample> samples(sensors);
  for (std::size_t s = 0; s < sensors; ++s) {
    samples[s].position = model.field->positions()[s];
    samples[s].rssi_dbm = observation.sensors[s].measured_rssi_dbm;
  }
  mesh::LocalizeConfig localize;
  localize.path_loss = config.path_loss;
  observation.localization = mesh::localize_rssi(samples, localize);
  observation.position_error_m =
      mesh::distance(observation.localization.position, config.attacker);
}

mesh::MeshObservation mesh_trial_staged(const FieldModel& model,
                                        std::span<const cplx> clean,
                                        dsp::Rng& rng, cvec& workspace,
                                        SpanBuffer* spans, int parent,
                                        StageCounts& counts) {
  const mesh::MeshConfig& config = model.field->config();
  const std::size_t sensors = config.sensors;
  // Same stream layout as SensorField::observe_frame: one sensor seed from
  // the trial stream, sensor s draws shadowing first, then its channel.
  const std::uint64_t sensor_seed = rng.next_u64();
  mesh::MeshObservation observation;
  observation.sensors.resize(sensors);
  for (std::size_t s = 0; s < sensors; ++s) {
    ScopedSpan sensor_span(spans, "sensor", parent);
    mesh::SensorObservation& sensor = observation.sensors[s];
    dsp::Rng sensor_rng = dsp::Rng::for_stream(sensor_seed, s);
    sensor.snr_db = model.environments[s].snr_db;
    sensor.measured_rssi_dbm =
        model.model_rssi_dbm[s] + config.shadow_sigma_db * sensor_rng.gaussian();
    {
      ScopedSpan span(spans, "channel", sensor_span.index());
      propagate_staged(model.environments[s], clean, workspace, sensor_rng,
                       spans, span.index());
    }
    counts.channel_samples += clean.size();
    zigbee::ReceiveResult rx;
    {
      ScopedSpan span(spans, "zigbee.receive", sensor_span.index());
      rx = model.receiver.receive(workspace);
    }
    ++counts.receives;
    counts.receive_samples += workspace.size();
    counts.locked += rx.phr_ok ? 1 : 0;
    const rvec& chips = defense_tap(rx);
    sensor.usable = chips.size() >= kMinChips;
    if (!sensor.usable) continue;
    defense::Verdict verdict;
    {
      ScopedSpan span(spans, "defense.classify", sensor_span.index());
      verdict = model.detector.classify(chips);
    }
    ++counts.classified;
    counts.chips += chips.size();
    sensor.is_attack = verdict.is_attack;
    sensor.de2 = verdict.distance_sq;
    sensor.c40 = verdict.feature.c40;
    sensor.c42 = verdict.feature.c42;
  }
  fuse_and_localize(model, observation, spans, parent);
  return observation;
}

bool same_mesh_stats(const mesh::MeshStats& a, const mesh::MeshStats& b) {
  return a.trials == b.trials && a.sensors_total == b.sensors_total &&
         a.sensors_usable == b.sensors_usable &&
         a.sensor_attacks == b.sensor_attacks &&
         a.majority_attacks == b.majority_attacks &&
         a.weighted_attacks == b.weighted_attacks &&
         a.bayesian_attacks == b.bayesian_attacks &&
         a.localization_converged == b.localization_converged &&
         a.de2_sum == b.de2_sum && a.position_errors == b.position_errors;
}

bool same_defense_samples(const sim::DefenseSamples& a,
                          const sim::DefenseSamples& b) {
  return a.frames_used == b.frames_used &&
         a.frames_skipped == b.frames_skipped && a.distances == b.distances &&
         a.c40 == b.c40 && a.c42 == b.c42;
}

}  // namespace perfbench
