#include "sim/defense_run.h"

#include <algorithm>

#include "dsp/require.h"

namespace ctc::sim {

void DefenseSamples::add(const DefenseObservation& observation) {
  if (!observation.usable) {
    ++frames_skipped;
    return;
  }
  distances.push_back(observation.distance_sq);
  c40.push_back(observation.c40);
  c42.push_back(observation.c42);
  ++frames_used;
}

double DefenseSamples::mean_distance() const {
  CTC_REQUIRE(!distances.empty());
  double acc = 0.0;
  for (double d : distances) acc += d;
  return acc / static_cast<double>(distances.size());
}

double DefenseSamples::max_distance() const {
  CTC_REQUIRE(!distances.empty());
  return *std::max_element(distances.begin(), distances.end());
}

double DefenseSamples::min_distance() const {
  CTC_REQUIRE(!distances.empty());
  return *std::min_element(distances.begin(), distances.end());
}

DefenseObservation observe_defense_frame(const Link& link,
                                         const zigbee::MacFrame& frame,
                                         const defense::Detector& detector,
                                         dsp::Rng& rng, DefenseTap tap) {
  const FrameObservation observation = link.send(frame, rng);
  const rvec& chips = tap == DefenseTap::discriminator
                          ? observation.rx.freq_chips
                          : observation.rx.soft_chips;
  DefenseObservation result;
  if (chips.size() < 8) return result;
  const defense::Verdict verdict = detector.classify(chips);
  result.usable = true;
  result.distance_sq = verdict.distance_sq;
  result.c40 = verdict.feature.c40;
  result.c42 = verdict.feature.c42;
  return result;
}

DefenseSamples collect_defense_samples(const Link& link,
                                       std::span<const zigbee::MacFrame> frames,
                                       std::size_t count,
                                       const defense::Detector& detector,
                                       TrialEngine& engine, DefenseTap tap) {
  CTC_REQUIRE(!frames.empty());
  // Sharing one `detector` across all trials (and worker threads) is safe:
  // defense::Detector holds only its immutable config, so no counter or
  // cumulant state can leak between trials.
  link.prime(frames, engine);
  return engine.run<DefenseSamples>(count, [&](std::size_t i, dsp::Rng& rng) {
    return observe_defense_frame(link, frames[i % frames.size()], detector, rng,
                                 tap);
  });
}

}  // namespace ctc::sim
