#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "channel/environment.h"
#include "defense/detector.h"
#include "dsp/require.h"
#include "dsp/rng.h"
#include "mesh/sensor_field.h"
#include "sim/engine.h"
#include "sim/link.h"
#include "zigbee/app.h"
#include "zigbee/receiver.h"

namespace ctc::mesh {
namespace {

MeshConfig small_field(std::size_t sensors) {
  MeshConfig config;
  config.sensors = sensors;
  return config;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::vector<zigbee::MacFrame> workload() {
  return zigbee::make_text_workload(4);
}

void expect_same_stats(const MeshStats& a, const MeshStats& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.sensors_total, b.sensors_total);
  EXPECT_EQ(a.sensors_usable, b.sensors_usable);
  EXPECT_EQ(a.sensor_attacks, b.sensor_attacks);
  EXPECT_EQ(a.majority_attacks, b.majority_attacks);
  EXPECT_EQ(a.weighted_attacks, b.weighted_attacks);
  EXPECT_EQ(a.bayesian_attacks, b.bayesian_attacks);
  EXPECT_EQ(a.localization_converged, b.localization_converged);
  EXPECT_EQ(a.de2_sum, b.de2_sum);
  ASSERT_EQ(a.position_errors.size(), b.position_errors.size());
  for (std::size_t i = 0; i < a.position_errors.size(); ++i) {
    EXPECT_EQ(a.position_errors[i], b.position_errors[i]) << "trial " << i;
  }
}

TEST(SensorFieldTest, GeometryAndEnvironmentsFollowTheConfig) {
  const SensorField field(small_field(9));
  ASSERT_EQ(field.positions().size(), 9u);
  ASSERT_EQ(field.distances().size(), 9u);
  // Sensor SNR falls with distance from the attacker (monotone through the
  // shared log-distance model).
  for (std::size_t i = 0; i + 1 < field.distances().size(); ++i) {
    for (std::size_t j = i + 1; j < field.distances().size(); ++j) {
      if (field.distances()[i] < field.distances()[j]) {
        EXPECT_GT(field.config().path_loss.snr_db(field.distances()[i]),
                  field.config().path_loss.snr_db(field.distances()[j]));
      }
    }
  }
}

TEST(SensorFieldTest, RejectsDegenerateConfigs) {
  EXPECT_THROW(SensorField(small_field(2)), ContractError);
  MeshConfig on_top = small_field(4);
  on_top.attacker = Vec2{-4.0, -4.0};  // exactly on the first grid sensor
  EXPECT_THROW(SensorField{on_top}, ContractError);
}

TEST(SensorFieldTest, ObserveFrameMatchesPerSensorComposition) {
  // Pins the per-sensor stream layout: one sensor-seed draw from the trial
  // stream, then sensor s reads for_stream(sensor_seed, s) — its shadowing
  // draw first, then its channel — and runs the receiver and the detector.
  // Fading, CFO and random phase make every channel stage draw.
  MeshConfig config = small_field(9);
  config.rician_k_factor = 4.0;
  config.cfo_hz = 80.0;
  config.random_phase = true;
  const SensorField field(config);
  const zigbee::MacFrame frame = workload()[1];

  dsp::Rng trial_rng = dsp::Rng::for_stream(20190707, 3);
  dsp::Rng oracle_rng = trial_rng;
  const MeshObservation observed = field.observe_frame(frame, trial_rng);
  ASSERT_EQ(observed.sensors.size(), config.sensors);

  sim::LinkConfig link_config;
  link_config.kind = config.kind;
  link_config.profile = config.profile;
  link_config.emulator = config.emulator;
  const cvec clean = sim::Link(link_config).clean_waveform(frame);
  zigbee::ReceiverConfig rx_config;
  rx_config.profile = config.profile;
  const zigbee::Receiver receiver(rx_config);
  const defense::Detector detector(config.detector);

  const std::uint64_t sensor_seed = oracle_rng.next_u64();
  std::size_t usable = 0;
  for (std::size_t s = 0; s < config.sensors; ++s) {
    SCOPED_TRACE("sensor " + std::to_string(s));
    const double meters = field.distances()[s];
    channel::Environment env;
    env.snr_db = config.path_loss.snr_db(meters) + config.snr_offset_db +
                 config.profile.sensitivity_gain_db;
    env.rician_k_factor = config.rician_k_factor;
    env.cfo_hz = config.cfo_hz;
    env.random_phase = config.random_phase;
    env.sample_rate_hz = config.sample_rate_hz;

    dsp::Rng sensor_rng = dsp::Rng::for_stream(sensor_seed, s);
    const double rssi = config.path_loss.rssi_dbm(meters) +
                        config.shadow_sigma_db * sensor_rng.gaussian();
    const zigbee::ReceiveResult rx =
        receiver.receive(env.propagate(clean, sensor_rng));
    SensorObservation expected;
    expected.usable = rx.freq_chips.size() >= 8;
    if (expected.usable) {
      const defense::Verdict verdict = detector.classify(rx.freq_chips);
      expected.is_attack = verdict.is_attack;
      expected.de2 = verdict.distance_sq;
      expected.c40 = verdict.feature.c40;
      expected.c42 = verdict.feature.c42;
      ++usable;
    }

    const SensorObservation& actual = observed.sensors[s];
    EXPECT_TRUE(same_bits(actual.measured_rssi_dbm, rssi));
    EXPECT_TRUE(same_bits(actual.de2, expected.de2));
    EXPECT_TRUE(same_bits(actual.c40, expected.c40));
    EXPECT_TRUE(same_bits(actual.c42, expected.c42));
    EXPECT_EQ(actual.usable, expected.usable);
    EXPECT_EQ(actual.is_attack, expected.is_attack);
  }
  EXPECT_GT(usable, 0u);
}

TEST(SensorFieldTest, ThreadCountDoesNotChangeTheNumbers) {
  const SensorField field(small_field(9));
  const auto frames = workload();
  sim::TrialEngine one({20190707, 1});
  sim::TrialEngine eight({20190707, 8});
  const MeshStats a = run_mesh_trials(field, frames, 8, one);
  const MeshStats b = run_mesh_trials(field, frames, 8, eight);
  expect_same_stats(a, b);
}

TEST(SensorFieldTest, EmulatedAttackIsDetectedBenignIsNot) {
  const auto frames = workload();
  sim::TrialEngine engine({20190707, 1});

  const SensorField attack_field(small_field(9));
  const MeshStats attack = run_mesh_trials(attack_field, frames, 6, engine);
  EXPECT_EQ(attack.trials, 6u);
  EXPECT_GT(attack.usable_fraction(), 0.9);
  EXPECT_GT(attack.majority_rate(), 0.9);
  EXPECT_GT(attack.weighted_rate(), 0.9);
  EXPECT_GT(attack.bayesian_rate(), 0.9);

  MeshConfig benign_config = small_field(9);
  benign_config.kind = sim::LinkKind::authentic;
  const SensorField benign_field(benign_config);
  const MeshStats benign = run_mesh_trials(benign_field, frames, 6, engine);
  EXPECT_LT(benign.weighted_rate(), attack.weighted_rate());
}

TEST(SensorFieldTest, LocalizationErrorShrinksWithMoreSensors) {
  const auto frames = workload();
  auto rmse_for = [&](std::size_t sensors) {
    sim::TrialEngine engine({20190707, 1});
    const SensorField field(small_field(sensors));
    const MeshStats stats = run_mesh_trials(field, frames, 16, engine);
    EXPECT_EQ(stats.localization_converged, stats.trials);
    return stats.rmse_m();
  };
  const double rmse4 = rmse_for(4);
  const double rmse16 = rmse_for(16);
  EXPECT_GT(rmse4, 0.0);
  EXPECT_LT(rmse16, rmse4);
}

TEST(MeshStatsTest, ReductionsMatchHandComputedValues) {
  MeshStats stats;
  MeshObservation observation;
  observation.sensors.resize(2);
  observation.sensors[0].usable = true;
  observation.sensors[0].is_attack = true;
  observation.sensors[0].de2 = 0.4;
  observation.sensors[1].usable = false;
  observation.majority.is_attack = true;
  observation.localization.converged = true;
  observation.position_error_m = 3.0;
  stats.add(observation);
  observation.position_error_m = 4.0;
  observation.majority.is_attack = false;
  stats.add(observation);

  EXPECT_EQ(stats.trials, 2u);
  EXPECT_EQ(stats.sensors_total, 4u);
  EXPECT_EQ(stats.sensors_usable, 2u);
  EXPECT_DOUBLE_EQ(stats.usable_fraction(), 0.5);
  EXPECT_DOUBLE_EQ(stats.single_sensor_rate(), 1.0);
  EXPECT_DOUBLE_EQ(stats.majority_rate(), 0.5);
  EXPECT_DOUBLE_EQ(stats.mean_de2(), 0.4);
  EXPECT_DOUBLE_EQ(stats.rmse_m(), std::sqrt((9.0 + 16.0) / 2.0));
  EXPECT_DOUBLE_EQ(stats.cep50_m(), 3.5);  // even count: middle-pair mean
}

}  // namespace
}  // namespace ctc::mesh
