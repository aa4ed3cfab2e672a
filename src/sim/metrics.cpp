#include "sim/metrics.h"

#include "dsp/require.h"

namespace ctc::sim {

void FrameStats::add(const FrameObservation& observation) {
  ++frames_sent;
  if (observation.success) ++frames_ok;
  symbols_sent += observation.symbols_sent;
  symbol_errors += observation.symbol_errors;
  for (std::size_t distance : observation.rx.hamming_distances) {
    ++hamming_histogram[distance];
  }
}

double FrameStats::packet_error_rate() const {
  CTC_REQUIRE(frames_sent > 0);
  return 1.0 - static_cast<double>(frames_ok) / static_cast<double>(frames_sent);
}

double FrameStats::symbol_error_rate() const {
  CTC_REQUIRE(symbols_sent > 0);
  return static_cast<double>(symbol_errors) / static_cast<double>(symbols_sent);
}

double FrameStats::success_rate() const { return 1.0 - packet_error_rate(); }

FrameStats run_frames(const Link& link, std::span<const zigbee::MacFrame> frames,
                      std::size_t count, TrialEngine& engine) {
  CTC_REQUIRE(!frames.empty());
  // Fill the link's waveform cache before trials fan out (see Link::prime).
  link.prime(frames, engine);
  return engine.run<FrameStats>(count, [&](std::size_t i, dsp::Rng& rng) {
    return link.send(frames[i % frames.size()], rng);
  });
}

}  // namespace ctc::sim
