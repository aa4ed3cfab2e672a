// End-to-end link simulation: authentic ZigBee link and the attack link
// (ZigBee TX -> WiFi attacker emulation -> ZigBee RX), both through a
// configurable channel environment (Sec. VII-B simulation settings).
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "attack/carrier_allocation.h"
#include "attack/emulator.h"
#include "channel/environment.h"
#include "dsp/rng.h"
#include "zigbee/receiver.h"
#include "zigbee/transmitter.h"

namespace ctc::sim {

class TrialEngine;

enum class LinkKind {
  authentic,  ///< ZigBee transmitter -> ZigBee receiver
  emulated,   ///< WiFi attacker replays the emulated waveform
};

struct LinkConfig {
  LinkKind kind = LinkKind::authentic;
  channel::Environment environment = channel::Environment::awgn(17.0);
  zigbee::ReceiverProfile profile = zigbee::ReceiverProfile::usrp();
  attack::EmulatorConfig emulator;  ///< used when kind == emulated
  /// When true the emulated waveform takes the full RF path: carrier
  /// allocation onto the 2440 MHz WiFi grid, 20 MHz modulation, then the
  /// victim's 2435 MHz front end (mix + filter + decimate). When false the
  /// paper's simulation shortcut (common baseband) is used.
  bool attack_via_rf = false;
  attack::CarrierPlan carrier_plan;  ///< used when attack_via_rf
};

struct FrameObservation {
  zigbee::ReceiveResult rx;
  std::size_t symbols_sent = 0;
  std::size_t symbol_errors = 0;  ///< decoded PSDU symbols != transmitted
  bool payload_match = false;     ///< decoded PSDU == transmitted PSDU
  bool success = false;           ///< frame_ok() && payload_match
};

class Link {
 public:
  explicit Link(LinkConfig config);

  /// Sends one MAC frame through the link and decodes it.
  FrameObservation send(const zigbee::MacFrame& frame, dsp::Rng& rng) const;

  /// The clean (pre-channel) waveform this link would emit for a frame —
  /// the observed ZigBee waveform for authentic links, the emulated one for
  /// attack links. Unit average power.
  cvec clean_waveform(const zigbee::MacFrame& frame) const;

  /// Fills the waveform cache for `frames` up front, synthesizing each
  /// missing frame once (a frame repeated within the span is a cache hit)
  /// on `engine`'s workers. run_frames, collect_defense_samples and
  /// mesh::run_mesh_trials call it before fanning trials out, so fills and
  /// their synthesis telemetry happen outside whichever trial happens to
  /// run first. Each fill runs under its own telemetry::TrialScope through
  /// TrialEngine::run_ordered, so its snapshot commits in frame order and
  /// the telemetry JSON stays bit-stable across thread counts. Consumes no
  /// run index; a span whose frames are all cached never touches the pool.
  /// Called from inside an engine trial, its fills record no synthesis
  /// telemetry, like lazy fills.
  void prime(std::span<const zigbee::MacFrame> frames, TrialEngine& engine) const;

  /// prime(frames, engine) on the calling thread.
  void prime(std::span<const zigbee::MacFrame> frames) const;

  const LinkConfig& config() const { return config_; }

 private:
  /// One memoized frame: the synthesis output plus the serialized PSDU the
  /// success check compares against. call_once keeps the fill race-free
  /// while holding only a shared lock on the map.
  struct CachedFrame {
    std::once_flag once;
    std::atomic<bool> filled{false};  ///< set last inside the call_once
    cvec clean;
    bytevec psdu;
  };

  /// Heap-allocated so Link stays movable (bench sweeps keep Links in
  /// vectors); the mutex and entries move with the pointer.
  struct WaveformCache {
    std::shared_mutex mutex;
    std::unordered_map<std::string, std::unique_ptr<CachedFrame>> entries;
  };

  const CachedFrame& cached_frame(const zigbee::MacFrame& frame) const;
  /// The cache entry for serialized frame bytes, inserted empty if absent.
  CachedFrame& entry_for(const bytevec& psdu) const;
  /// Fills `entry` once under its call_once, moving `psdu` into it (a
  /// throwing synthesis leaves it unfilled), and counts the miss, or the
  /// hit if it was already filled. `quiet` drops the synthesis telemetry.
  /// True if this call filled it.
  bool fill(CachedFrame& entry, const zigbee::MacFrame& frame, bytevec& psdu,
            bool quiet) const;
  /// The raw synthesis chain a cache fill runs.
  cvec synthesize_waveform(const zigbee::MacFrame& frame) const;
  /// The per-send channel: the configured environment with the profile's
  /// sensitivity gain folded into a plain SNR.
  channel::Environment effective_environment() const;

  LinkConfig config_;
  zigbee::Transmitter transmitter_;
  zigbee::Receiver receiver_;
  attack::WaveformEmulator emulator_;
  std::unique_ptr<WaveformCache> cache_ = std::make_unique<WaveformCache>();
};

}  // namespace ctc::sim
