#include "sim/link.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "attack/carrier_allocation.h"
#include "dsp/stats.h"
#include "sim/engine.h"
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

Link::CachedFrame& Link::entry_for(const bytevec& psdu) const {
  std::string key(reinterpret_cast<const char*>(psdu.data()), psdu.size());
  WaveformCache& cache = *cache_;
  {
    std::shared_lock lock(cache.mutex);
    auto it = cache.entries.find(key);
    if (it != cache.entries.end()) return *it->second;
  }
  std::unique_lock lock(cache.mutex);
  return *cache.entries
              .try_emplace(std::move(key), std::make_unique<CachedFrame>())
              .first->second;
}

bool Link::fill(CachedFrame& entry, const zigbee::MacFrame& frame,
                bytevec& psdu, bool quiet) const {
  bool filled = false;
  std::call_once(entry.once, [&] {
    std::optional<telemetry::SuppressScope> suppress;
    if (quiet) suppress.emplace();
    entry.clean = synthesize_waveform(frame);
    entry.psdu = std::move(psdu);
    entry.filled.store(true, std::memory_order_release);
    filled = true;
  });
  if (filled) {
    CTC_TELEM_COUNT("link", "waveform_cache_misses", 1);
  } else {
    CTC_TELEM_COUNT("link", "waveform_cache_hits", 1);
  }
  return filled;
}

const Link::CachedFrame& Link::cached_frame(const zigbee::MacFrame& frame) const {
  bytevec psdu = frame.serialize();
  CachedFrame& entry = entry_for(psdu);
  // When the fill happens inside an engine trial, which trial wins the
  // race is scheduling-dependent; drop the synthesis telemetry so the
  // merged gauges stay bit-stable across thread counts. Primed links never
  // take this branch.
  fill(entry, frame, psdu, telemetry::in_trial_scope());
  return entry;
}

cvec Link::clean_waveform(const zigbee::MacFrame& frame) const {
  return cached_frame(frame).clean;
}

void Link::prime(std::span<const zigbee::MacFrame> frames,
                 TrialEngine& engine) const {
  CTC_TELEM_TIMER("link", "prime");
  struct Fill {
    const zigbee::MacFrame* frame;
    CachedFrame* entry;
    bytevec psdu;
  };
  // The first occurrence of each unfilled entry is a fill; every other
  // frame is a hit, counted here.
  std::vector<Fill> fills;
  for (const zigbee::MacFrame& frame : frames) {
    bytevec psdu = frame.serialize();
    CachedFrame& entry = entry_for(psdu);
    const bool claimed = std::any_of(fills.begin(), fills.end(), [&](const Fill& f) {
      return f.entry == &entry;
    });
    if (claimed || entry.filled.load(std::memory_order_acquire)) {
      CTC_TELEM_COUNT("link", "waveform_cache_hits", 1);
    } else {
      fills.push_back({&frame, &entry, std::move(psdu)});
    }
  }
  if (fills.empty()) return;
  // A prime inside an engine trial races other trials for its fills, so
  // like a lazy fill it drops the synthesis telemetry.
  const bool quiet = telemetry::in_trial_scope();
  engine.run_ordered(
      fills.size(),
      [&](std::size_t k) {
        return fill(*fills[k].entry, *fills[k].frame, fills[k].psdu, quiet);
      },
      [](bool) {});
}

void Link::prime(std::span<const zigbee::MacFrame> frames) const {
  TrialEngine calling_thread(EngineConfig{.threads = 1});
  prime(frames, calling_thread);
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
