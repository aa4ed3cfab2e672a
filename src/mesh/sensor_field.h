// Multi-sensor detection mesh: M spatially-placed sensors all watching the
// same emitted waveform, each through its OWN channel (per-sensor log-
// distance path loss, fading, CFO and noise draws), each running the
// cumulant detector — then fused (mesh/fusion.h) and localized
// (mesh/localize.h) per trial.
//
// One engine trial = one frame through all M sensors. The trial's engine-
// provided RNG contributes exactly one draw (the per-trial sensor seed);
// sensor s then draws from dsp::Rng::for_stream(sensor_seed, s), so the
// whole fan-out is a pure function of (seed, run_index, trial_index,
// sensor_id) — bit-identical at any thread count or shard boundary (scheme
// documented in src/dsp/rng.h). Sensors run one after another through one
// thread-local channel buffer: channel::Environment::propagate_into, then
// the receiver and the detector.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "attack/emulator.h"
#include "channel/environment.h"
#include "channel/pathloss.h"
#include "defense/detector.h"
#include "dsp/rng.h"
#include "dsp/types.h"
#include "mesh/fusion.h"
#include "mesh/geometry.h"
#include "mesh/localize.h"
#include "sim/defense_run.h"
#include "sim/engine.h"
#include "sim/link.h"
#include "zigbee/frame.h"
#include "zigbee/receiver.h"

namespace ctc::mesh {

struct MeshConfig {
  std::size_t sensors = 9;  ///< field size M (>= 3: localization minimum)
  GeometryKind geometry = GeometryKind::grid;
  /// Grid span (grid) or radius (ring), meters.
  double extent_m = 8.0;
  /// True emitter position. Off-center by default so sensor distances —
  /// and therefore SNRs — differ, which is the whole point of a mesh.
  Vec2 attacker{1.9, 1.1};

  /// What the emitter transmits: the WiFi emulation attack or an authentic
  /// ZigBee transmitter (for false-alarm measurement).
  sim::LinkKind kind = sim::LinkKind::emulated;
  attack::EmulatorConfig emulator;  ///< used when kind == emulated

  /// Shared propagation model: per-sensor SNR and RSSI both come from this
  /// log-distance model at the sensor's distance, and localization inverts
  /// the same model.
  channel::PathLossModel path_loss;
  /// Link-budget shift applied on top of path loss (sweeps SNR without
  /// moving the field).
  double snr_offset_db = 0.0;
  /// Log-normal shadowing (dB std dev) on each sensor's MEASURED RSSI —
  /// the localization noise knob. The paper's channel is SNR-parameterized
  /// (unit signal power, scaled noise), so RSSI is synthesized from the
  /// model rather than measured off the waveform.
  double shadow_sigma_db = 1.0;
  /// Per-sensor block Rician fading (nullopt = none).
  std::optional<double> rician_k_factor;
  double cfo_hz = 0.0;
  bool random_phase = false;
  double sample_rate_hz = 4.0e6;

  zigbee::ReceiverProfile profile = zigbee::ReceiverProfile::usrp();
  defense::DetectorConfig detector;
  /// Receiver tap feeding the detector (see sim::DefenseTap).
  sim::DefenseTap tap = sim::DefenseTap::discriminator;
  /// Class-conditional DE^2 models for the Bayesian rule (shared by all
  /// sensors).
  GaussianPair bayes;
};

/// One sensor's view of one trial.
struct SensorObservation {
  double snr_db = 0.0;            ///< effective (path loss + offset + gain)
  double measured_rssi_dbm = 0.0; ///< model RSSI + shadowing draw
  bool usable = false;            ///< receiver produced chip samples
  bool is_attack = false;         ///< per-sensor detector verdict
  double de2 = 0.0;
  double c40 = 0.0;
  double c42 = 0.0;
};

/// One trial's full field view: per-sensor features, the three fused
/// verdicts, and the localization fix.
struct MeshObservation {
  std::vector<SensorObservation> sensors;
  FusionResult majority;
  FusionResult weighted;
  FusionResult bayesian;
  LocalizationResult localization;
  double position_error_m = 0.0;  ///< |estimate - true attacker position|
};

class SensorField {
 public:
  explicit SensorField(MeshConfig config);

  const MeshConfig& config() const { return config_; }
  const std::vector<Vec2>& positions() const { return positions_; }
  const std::vector<double>& distances() const { return distances_; }

  /// One Monte Carlo trial: `frame` through every sensor's channel,
  /// detector and the fusion/localization stages. `rng` is the engine-
  /// provided trial stream; exactly one draw (the sensor seed) is taken
  /// from it.
  MeshObservation observe_frame(const zigbee::MacFrame& frame,
                                dsp::Rng& rng) const;

  /// Pre-fills the waveform cache on `engine`'s workers (see
  /// sim::Link::prime).
  void prime(std::span<const zigbee::MacFrame> frames,
             sim::TrialEngine& engine) const;

  /// Pre-fills the waveform cache on the calling thread.
  void prime(std::span<const zigbee::MacFrame> frames) const;

 private:
  MeshConfig config_;
  std::vector<Vec2> positions_;
  std::vector<double> distances_;
  std::vector<double> model_rssi_dbm_;
  std::vector<channel::Environment> environments_;
  sim::Link link_;  ///< waveform synthesis only; its channel is unused
  zigbee::Receiver receiver_;
  defense::Detector detector_;
};

/// Engine aggregator over MeshObservations: detection counters per fusion
/// rule, per-sensor usability, and the position-error series (trial order,
/// so RMSE/CEP reductions are bit-stable).
struct MeshStats {
  std::size_t trials = 0;
  std::size_t sensors_total = 0;
  std::size_t sensors_usable = 0;
  std::size_t sensor_attacks = 0;  ///< per-sensor verdicts, summed
  std::size_t majority_attacks = 0;
  std::size_t weighted_attacks = 0;
  std::size_t bayesian_attacks = 0;
  std::size_t localization_converged = 0;
  double de2_sum = 0.0;  ///< over usable sensor observations
  rvec position_errors;  ///< one entry per trial

  void add(const MeshObservation& observation);

  double majority_rate() const;
  double weighted_rate() const;
  double bayesian_rate() const;
  /// Per-sensor attack rate over usable observations — the single-sensor
  /// baseline fusion is measured against.
  double single_sensor_rate() const;
  double usable_fraction() const;
  double mean_de2() const;
  /// Root-mean-square position error (m).
  double rmse_m() const;
  /// Circular error probable: the median position error (m).
  double cep50_m() const;
};

/// Runs `count` field trials (frames cycled from `frames`) on the engine,
/// one MeshObservation per trial, folded in trial order.
MeshStats run_mesh_trials(const SensorField& field,
                          std::span<const zigbee::MacFrame> frames,
                          std::size_t count, sim::TrialEngine& engine);

}  // namespace ctc::mesh
