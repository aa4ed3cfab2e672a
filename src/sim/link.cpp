#include "sim/link.h"

#include <optional>
#include <utility>

#include "attack/carrier_allocation.h"
#include "dsp/stats.h"
#include "sim/telemetry.h"
#include "wifi/ofdm.h"
#include "zigbee/dsss.h"

namespace ctc::sim {

Link::Link(LinkConfig config)
    : config_(std::move(config)),
      transmitter_(),
      receiver_([this] {
        zigbee::ReceiverConfig rx;
        rx.profile = config_.profile;
        return rx;
      }()),
      emulator_(config_.emulator) {}

cvec Link::synthesize_waveform(const zigbee::MacFrame& frame) const {
  cvec waveform = transmitter_.transmit_frame(frame);
  if (config_.kind == LinkKind::emulated) {
    const attack::EmulationResult emulation = emulator_.emulate(waveform);
    if (config_.attack_via_rf) {
      cvec wifi_baseband;
      wifi_baseband.reserve(emulation.symbol_grids.size() * wifi::kSymbolLength);
      for (const cvec& grid : emulation.symbol_grids) {
        const cvec symbol = wifi::grid_to_time(
            attack::allocate_to_wifi_grid(grid, config_.carrier_plan));
        wifi_baseband.insert(wifi_baseband.end(), symbol.begin(), symbol.end());
      }
      cvec at_victim = attack::wifi_band_to_zigbee_baseband(wifi_baseband,
                                                            config_.carrier_plan);
      at_victim.resize(waveform.size(), cplx{0.0, 0.0});
      waveform = std::move(at_victim);
    } else {
      waveform = emulation.emulated_4mhz;
    }
    waveform = dsp::normalize_power(waveform);
  }
  return waveform;
}

const Link::CachedFrame& Link::cached_frame(const zigbee::MacFrame& frame) const {
  bytevec psdu = frame.serialize();
  std::string key(reinterpret_cast<const char*>(psdu.data()), psdu.size());
  WaveformCache& cache = *cache_;
  CachedFrame* entry = nullptr;
  {
    std::shared_lock lock(cache.mutex);
    auto it = cache.entries.find(key);
    if (it != cache.entries.end()) entry = it->second.get();
  }
  if (entry == nullptr) {
    std::unique_lock lock(cache.mutex);
    entry = cache.entries
                .try_emplace(std::move(key), std::make_unique<CachedFrame>())
                .first->second.get();
  }
  bool filled = false;
  std::call_once(entry->once, [&] {
    // When the fill happens inside an engine trial, which trial wins the
    // race is scheduling-dependent; drop the synthesis telemetry so the
    // merged gauges stay bit-stable across thread counts. Links primed
    // before the trial loop never take this branch.
    std::optional<telemetry::SuppressScope> suppress;
    if (telemetry::in_trial_scope()) suppress.emplace();
    entry->clean = synthesize_waveform(frame);
    entry->psdu = std::move(psdu);
    filled = true;
  });
  if (filled) {
    CTC_TELEM_COUNT("link", "waveform_cache_misses", 1);
  } else {
    CTC_TELEM_COUNT("link", "waveform_cache_hits", 1);
  }
  return *entry;
}

cvec Link::clean_waveform(const zigbee::MacFrame& frame) const {
  return cached_frame(frame).clean;
}

void Link::prime(std::span<const zigbee::MacFrame> frames) const {
  for (const zigbee::MacFrame& frame : frames) cached_frame(frame);
}

channel::Environment Link::effective_environment() const {
  // The commodity receiver's better front end shows up as extra link budget.
  channel::Environment env = config_.environment;
  env.snr_db = env.effective_snr_db() + config_.profile.sensitivity_gain_db;
  env.distance_m.reset();
  return env;
}

FrameObservation Link::send(const zigbee::MacFrame& frame, dsp::Rng& rng) const {
  const CachedFrame& cached = cached_frame(frame);
  const bytevec& sent_psdu = cached.psdu;

  // Thread-local workspace: send() runs once per Monte Carlo trial and the
  // propagated copy dominated the per-trial allocations.
  thread_local cvec received;
  effective_environment().propagate_into(received, cached.clean, rng);

  FrameObservation observation;
  observation.rx = receiver_.receive(received);

  // PSDU symbols are nibbles, low nibble first — compare the decoded bytes
  // in place instead of materializing two symbol vectors per trial.
  observation.symbols_sent = 2 * sent_psdu.size();
  if (observation.rx.psdu.size() == sent_psdu.size()) {
    for (std::size_t i = 0; i < sent_psdu.size(); ++i) {
      const std::uint8_t sent = sent_psdu[i];
      const std::uint8_t decoded = observation.rx.psdu[i];
      if ((sent & 0x0F) != (decoded & 0x0F)) ++observation.symbol_errors;
      if ((sent >> 4) != (decoded >> 4)) ++observation.symbol_errors;
    }
    observation.payload_match = observation.symbol_errors == 0;
  } else {
    observation.symbol_errors = observation.symbols_sent;
    observation.payload_match = false;
  }
  observation.success = observation.rx.frame_ok() && observation.payload_match;
  return observation;
}

}  // namespace ctc::sim
