// The serial trial loop of the integration tests: one caller-owned
// generator threaded through the frames in order, so a test draws the same
// numbers on every run whatever the host's thread count. The library runs
// trials only on a sim::TrialEngine.
#pragma once

#include <cstddef>
#include <span>

#include "dsp/require.h"
#include "dsp/rng.h"
#include "sim/defense_run.h"
#include "sim/metrics.h"

namespace ctc::test {

/// Folds trial(frames[i % frames.size()]) for i in [0, count) into an
/// Aggregate (sim::FrameStats, sim::DefenseSamples), in order.
template <typename Aggregate, typename Trial>
Aggregate serial_trials(std::span<const zigbee::MacFrame> frames,
                        std::size_t count, Trial trial) {
  CTC_REQUIRE(!frames.empty());
  Aggregate aggregate;
  for (std::size_t i = 0; i < count; ++i) {
    aggregate.add(trial(frames[i % frames.size()]));
  }
  return aggregate;
}

inline sim::FrameStats run_frames(const sim::Link& link,
                                  std::span<const zigbee::MacFrame> frames,
                                  std::size_t count, dsp::Rng& rng) {
  return serial_trials<sim::FrameStats>(
      frames, count,
      [&](const zigbee::MacFrame& frame) { return link.send(frame, rng); });
}

inline sim::DefenseSamples collect_defense_samples(
    const sim::Link& link, std::span<const zigbee::MacFrame> frames,
    std::size_t count, const defense::Detector& detector, dsp::Rng& rng,
    sim::DefenseTap tap = sim::DefenseTap::discriminator) {
  return serial_trials<sim::DefenseSamples>(
      frames, count, [&](const zigbee::MacFrame& frame) {
        return sim::observe_defense_frame(link, frame, detector, rng, tap);
      });
}

}  // namespace ctc::test
