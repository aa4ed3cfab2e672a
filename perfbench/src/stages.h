// Stage-by-stage replicas of the library's per-trial pipelines, built only
// from public calls so the traced run can put a span around each layer:
//
//   synthesis  zigbee::Transmitter -> attack::WaveformEmulator -> normalize
//   lookup     sim::Link's per-send waveform cache lookup
//   channel    fade -> rotate (CFO + phase) -> timing -> noise
//   receive    zigbee::Receiver::receive
//   classify   defense::Detector::classify
//   mesh       per-sensor channel/receive/classify, then fuse, localize
//
// Each replica must reproduce the library path it mirrors bit for bit
// (sim::Link::clean_waveform, channel::Environment::propagate_into,
// sim::observe_defense_frame, mesh::SensorField::observe_frame). The traced
// run and tests/selfcheck_test.cpp check that.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "attack/emulator.h"
#include "channel/environment.h"
#include "common.h"
#include "defense/detector.h"
#include "dsp/rng.h"
#include "dsp/types.h"
#include "mesh/sensor_field.h"
#include "sim/defense_run.h"
#include "sim/link.h"
#include "zigbee/receiver.h"
#include "zigbee/transmitter.h"

namespace perfbench {

using ctc::cplx;
using ctc::cvec;

/// Work counts the staged pipelines record next to their spans.
struct StageCounts {
  std::size_t channel_samples = 0;   ///< samples through the channel
  std::size_t receives = 0;          ///< Receiver::receive calls
  std::size_t receive_samples = 0;   ///< samples handed to receive
  std::size_t locked = 0;            ///< receives whose PHR decoded
  std::size_t classified = 0;        ///< Detector::classify calls
  std::size_t chips = 0;             ///< chips classified

  void add(const StageCounts& other);
};

/// The channel sim::Link applies per send: its environment with the
/// receiver profile's sensitivity gain folded into a plain SNR.
ctc::channel::Environment link_channel(const ctc::sim::LinkConfig& config);

/// The receiver sim::Link and mesh::SensorField decode with.
ctc::zigbee::Receiver profile_receiver(const ctc::zigbee::ReceiverProfile& profile);

/// channel::Environment::propagate_into as separate stages, each under its
/// own span below `parent`. Flat-fading environments only.
void propagate_staged(const ctc::channel::Environment& env,
                      std::span<const cplx> signal, cvec& out,
                      ctc::dsp::Rng& rng, SpanBuffer* spans, int parent);

/// sim::Link's clean-waveform synthesis as transmit / emulate / normalize
/// stages (the common-baseband attack path, attack_via_rf = false).
class Synthesizer {
 public:
  explicit Synthesizer(const ctc::sim::LinkConfig& config);
  cvec operator()(const ctc::zigbee::MacFrame& frame, SpanBuffer* spans,
                  int parent) const;

 private:
  ctc::sim::LinkKind kind_;
  ctc::zigbee::Transmitter transmitter_;
  ctc::attack::WaveformEmulator emulator_;
};

/// One sim::observe_defense_frame trial (discriminator tap) as cache
/// lookup / channel / receive / classify stages. The lookup is the one
/// Link::send makes per trial (Link::prime on the one frame); `clean` is
/// that frame's cached waveform and `workspace` holds the received one.
ctc::sim::DefenseObservation defense_trial_staged(
    const ctc::sim::Link& link, const ctc::zigbee::MacFrame& frame,
    std::span<const cplx> clean, const ctc::channel::Environment& env,
    const ctc::zigbee::Receiver& receiver, const ctc::defense::Detector& detector,
    ctc::dsp::Rng& rng, cvec& workspace, SpanBuffer* spans, int parent,
    StageCounts& counts);

/// What mesh::SensorField holds per sensor, rebuilt from its public
/// configuration and geometry.
struct FieldModel {
  explicit FieldModel(const ctc::mesh::SensorField& field);

  const ctc::mesh::SensorField* field;
  std::vector<ctc::channel::Environment> environments;
  std::vector<double> model_rssi_dbm;
  ctc::zigbee::Receiver receiver;
  ctc::defense::Detector detector;
};

/// The fused verdicts and the localization fix of one trial, from its
/// per-sensor observations (the back half of SensorField::observe_frame).
void fuse_and_localize(const FieldModel& model,
                       ctc::mesh::MeshObservation& observation,
                       SpanBuffer* spans, int parent);

/// One mesh::SensorField::observe_frame trial as per-sensor channel /
/// receive / classify stages, then fuse and localize.
ctc::mesh::MeshObservation mesh_trial_staged(const FieldModel& model,
                                             std::span<const cplx> clean,
                                             ctc::dsp::Rng& rng, cvec& workspace,
                                             SpanBuffer* spans, int parent,
                                             StageCounts& counts);

/// Field-by-field equality of two mesh aggregates (doubles compared
/// exactly).
bool same_mesh_stats(const ctc::mesh::MeshStats& a, const ctc::mesh::MeshStats& b);

/// Field-by-field equality of two defense aggregates (doubles compared
/// exactly).
bool same_defense_samples(const ctc::sim::DefenseSamples& a,
                          const ctc::sim::DefenseSamples& b);

}  // namespace perfbench
