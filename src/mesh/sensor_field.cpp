#include "mesh/sensor_field.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "dsp/require.h"
#include "sim/telemetry.h"

namespace ctc::mesh {

namespace {

/// Minimum chip samples for a usable defense feature — mirrors
/// sim/defense_run.cpp: the cumulant estimate needs a handful of
/// constellation points before DE^2 means anything.
constexpr std::size_t kMinChipSamples = 8;

sim::Link make_synthesis_link(const MeshConfig& config) {
  sim::LinkConfig link;
  link.kind = config.kind;
  link.profile = config.profile;
  link.emulator = config.emulator;
  return sim::Link(link);
}

}  // namespace

SensorField::SensorField(MeshConfig config)
    : config_(std::move(config)),
      positions_(make_layout(config_.geometry, config_.sensors,
                             config_.extent_m)),
      link_(make_synthesis_link(config_)),
      receiver_([this] {
        zigbee::ReceiverConfig rx;
        rx.profile = config_.profile;
        return rx;
      }()),
      detector_(config_.detector) {
  CTC_REQUIRE_MSG(config_.sensors >= 3,
                  "a sensor field needs >= 3 sensors (localization minimum)");
  distances_.reserve(positions_.size());
  model_rssi_dbm_.reserve(positions_.size());
  environments_.reserve(positions_.size());
  for (const Vec2& position : positions_) {
    const double meters = distance(position, config_.attacker);
    CTC_REQUIRE_MSG(meters >= 1e-3,
                    "attacker may not sit on top of a sensor");
    distances_.push_back(meters);
    model_rssi_dbm_.push_back(config_.path_loss.rssi_dbm(meters));
    channel::Environment env;
    // Like sim::Link::effective_environment(): the receiver front end's
    // sensitivity gain is extra link budget, folded into a plain SNR.
    env.snr_db = config_.path_loss.snr_db(meters) + config_.snr_offset_db +
                 config_.profile.sensitivity_gain_db;
    env.rician_k_factor = config_.rician_k_factor;
    env.cfo_hz = config_.cfo_hz;
    env.random_phase = config_.random_phase;
    env.sample_rate_hz = config_.sample_rate_hz;
    environments_.push_back(env);
  }
}

MeshObservation SensorField::observe_frame(const zigbee::MacFrame& frame,
                                           dsp::Rng& rng) const {
  CTC_TELEM_TIMER("mesh", "trial");
  const std::size_t sensors = config_.sensors;
  CTC_TELEM_COUNT("mesh", "trials", 1);
  CTC_TELEM_COUNT("mesh", "sensor_frames", sensors);
  const cvec clean = link_.clean_waveform(frame);

  // Per-sensor streams: one trial-unique seed draw from the engine stream,
  // then sensor s reads for_stream(sensor_seed, s) — see src/dsp/rng.h.
  // Each stream serves its shadowing draw first, then its channel draws.
  const std::uint64_t sensor_seed = rng.next_u64();
  MeshObservation observation;
  observation.sensors.resize(sensors);
  thread_local cvec received;
  for (std::size_t s = 0; s < sensors; ++s) {
    dsp::Rng sensor_rng = dsp::Rng::for_stream(sensor_seed, s);
    SensorObservation& sensor = observation.sensors[s];
    sensor.snr_db = environments_[s].snr_db;
    sensor.measured_rssi_dbm =
        model_rssi_dbm_[s] + config_.shadow_sigma_db * sensor_rng.gaussian();
    environments_[s].propagate_into(received, clean, sensor_rng);
    const zigbee::ReceiveResult rx = receiver_.receive(received);
    const rvec& chips = config_.tap == sim::DefenseTap::discriminator
                            ? rx.freq_chips
                            : rx.soft_chips;
    sensor.usable = chips.size() >= kMinChipSamples;
    if (!sensor.usable) continue;
    const defense::Verdict verdict = detector_.classify(chips);
    sensor.is_attack = verdict.is_attack;
    sensor.de2 = verdict.distance_sq;
    sensor.c40 = verdict.feature.c40;
    sensor.c42 = verdict.feature.c42;
  }

  std::vector<SensorVote> votes(sensors);
  for (std::size_t s = 0; s < sensors; ++s) {
    const SensorObservation& sensor = observation.sensors[s];
    votes[s].usable = sensor.usable;
    votes[s].is_attack = sensor.is_attack;
    votes[s].de2 = sensor.de2;
    // Linear received power (mW): louder sensors weigh more.
    votes[s].weight = std::pow(10.0, sensor.measured_rssi_dbm / 10.0);
  }
  observation.majority = fuse_majority(votes);
  observation.weighted =
      fuse_rssi_weighted(votes, config_.detector.threshold);
  observation.bayesian =
      fuse_bayesian(votes, std::span<const GaussianPair>(&config_.bayes, 1));

  std::vector<RssiSample> samples(sensors);
  for (std::size_t s = 0; s < sensors; ++s) {
    samples[s].position = positions_[s];
    samples[s].rssi_dbm = observation.sensors[s].measured_rssi_dbm;
  }
  LocalizeConfig localize;
  localize.path_loss = config_.path_loss;
  observation.localization = localize_rssi(samples, localize);
  observation.position_error_m =
      distance(observation.localization.position, config_.attacker);
  return observation;
}

void SensorField::prime(std::span<const zigbee::MacFrame> frames,
                        sim::TrialEngine& engine) const {
  link_.prime(frames, engine);
}

void SensorField::prime(std::span<const zigbee::MacFrame> frames) const {
  link_.prime(frames);
}

void MeshStats::add(const MeshObservation& observation) {
  ++trials;
  for (const SensorObservation& sensor : observation.sensors) {
    ++sensors_total;
    if (!sensor.usable) continue;
    ++sensors_usable;
    sensor_attacks += sensor.is_attack ? 1 : 0;
    de2_sum += sensor.de2;
  }
  majority_attacks += observation.majority.is_attack ? 1 : 0;
  weighted_attacks += observation.weighted.is_attack ? 1 : 0;
  bayesian_attacks += observation.bayesian.is_attack ? 1 : 0;
  localization_converged += observation.localization.converged ? 1 : 0;
  position_errors.push_back(observation.position_error_m);
}

double MeshStats::majority_rate() const {
  return trials > 0
             ? static_cast<double>(majority_attacks) /
                   static_cast<double>(trials)
             : 0.0;
}

double MeshStats::weighted_rate() const {
  return trials > 0
             ? static_cast<double>(weighted_attacks) /
                   static_cast<double>(trials)
             : 0.0;
}

double MeshStats::bayesian_rate() const {
  return trials > 0
             ? static_cast<double>(bayesian_attacks) /
                   static_cast<double>(trials)
             : 0.0;
}

double MeshStats::single_sensor_rate() const {
  return sensors_usable > 0
             ? static_cast<double>(sensor_attacks) /
                   static_cast<double>(sensors_usable)
             : 0.0;
}

double MeshStats::usable_fraction() const {
  return sensors_total > 0
             ? static_cast<double>(sensors_usable) /
                   static_cast<double>(sensors_total)
             : 0.0;
}

double MeshStats::mean_de2() const {
  return sensors_usable > 0
             ? de2_sum / static_cast<double>(sensors_usable)
             : 0.0;
}

double MeshStats::rmse_m() const {
  if (position_errors.empty()) return 0.0;
  double sum_sq = 0.0;
  for (double error : position_errors) sum_sq += error * error;
  return std::sqrt(sum_sq / static_cast<double>(position_errors.size()));
}

double MeshStats::cep50_m() const {
  if (position_errors.empty()) return 0.0;
  rvec sorted = position_errors;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  return n % 2 == 1 ? sorted[n / 2]
                    : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

MeshStats run_mesh_trials(const SensorField& field,
                          std::span<const zigbee::MacFrame> frames,
                          std::size_t count, sim::TrialEngine& engine) {
  CTC_REQUIRE(!frames.empty());
  field.prime(frames, engine);
  return engine.run<MeshStats>(count, [&](std::size_t index, dsp::Rng& rng) {
    return field.observe_frame(frames[index % frames.size()], rng);
  });
}

}  // namespace ctc::mesh
