// Concurrency stress regressions for sim::Link's shared waveform cache
// (label: stress).
//
// One Link shared by a ThreadPool: every worker races the shared_mutex map
// lookup, the try_emplace insert, and the call_once fill. These exist for
// the `tsan` preset — they make ThreadSanitizer see the cache's
// synchronization edges under real contention — and double as functional
// regressions: whatever the interleaving, every thread must observe the
// same bit-identical cached waveform and per-seed send results must match a
// serial reference exactly.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <vector>

#include "dsp/rng.h"
#include "sim/link.h"
#include "sim/thread_pool.h"
#include "zigbee/app.h"

namespace ctc::sim {
namespace {

LinkConfig shared_link_config() {
  LinkConfig config;
  config.kind = LinkKind::authentic;
  config.environment = channel::Environment::awgn(9.0);
  return config;
}

// Many threads request the same small frame set simultaneously on a cold
// cache: the first-touch fill races are the interesting part, so a fresh
// Link per round keeps hitting them instead of the warmed steady state.
TEST(LinkCacheStress, ConcurrentColdFillsAgreeBitwise) {
  const auto frames = zigbee::make_text_workload(3);
  ThreadPool pool(4);
  for (int round = 0; round < 8; ++round) {
    const Link link(shared_link_config());
    std::vector<cvec> reference(frames.size());
    for (std::size_t f = 0; f < frames.size(); ++f) {
      reference[f] = Link(shared_link_config()).clean_waveform(frames[f]);
    }
    std::atomic<std::size_t> mismatches{0};
    pool.parallel_for(48, [&](std::size_t task) {
      const std::size_t f = task % frames.size();
      const cvec wave = link.clean_waveform(frames[f]);
      if (wave != reference[f]) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
    EXPECT_EQ(mismatches.load(), 0u) << "round " << round;
  }
}

// Concurrent send() against a cold shared cache, checked against a serial
// reference link: per-seed observations must be identical because the cache
// only changes where the clean waveform comes from, never its bytes or the
// per-call RNG draw sequence.
TEST(LinkCacheStress, ConcurrentSendsMatchSerialReference) {
  const auto frames = zigbee::make_text_workload(4);
  const Link serial(shared_link_config());
  constexpr std::size_t kTasks = 64;

  std::vector<FrameObservation> expected(kTasks);
  for (std::size_t task = 0; task < kTasks; ++task) {
    dsp::Rng rng(1000 + task);
    expected[task] = serial.send(frames[task % frames.size()], rng);
  }

  const Link shared(shared_link_config());
  std::vector<FrameObservation> observed(kTasks);
  ThreadPool pool(4);
  pool.parallel_for(kTasks, [&](std::size_t task) {
    dsp::Rng rng(1000 + task);
    observed[task] = shared.send(frames[task % frames.size()], rng);
  });

  for (std::size_t task = 0; task < kTasks; ++task) {
    SCOPED_TRACE("task " + std::to_string(task));
    EXPECT_EQ(observed[task].symbols_sent, expected[task].symbols_sent);
    EXPECT_EQ(observed[task].symbol_errors, expected[task].symbol_errors);
    EXPECT_EQ(observed[task].payload_match, expected[task].payload_match);
    EXPECT_EQ(observed[task].success, expected[task].success);
    EXPECT_EQ(observed[task].rx.psdu, expected[task].rx.psdu);
    EXPECT_EQ(observed[task].rx.soft_chips, expected[task].rx.soft_chips);
  }
}

// prime() racing lazy send()-side fills: the pool hammers sends while the
// main thread primes the same frames. call_once must hand every caller the
// single filled entry regardless of who wins.
TEST(LinkCacheStress, PrimeRacesLazySendFills) {
  const auto frames = zigbee::make_text_workload(5);
  for (int round = 0; round < 6; ++round) {
    const Link link(shared_link_config());
    ThreadPool pool(4);
    std::atomic<std::size_t> successes{0};
    pool.parallel_for(40, [&](std::size_t task) {
      if (task == 0) {
        link.prime(frames);
        return;
      }
      dsp::Rng rng(500 + task);
      const auto obs = link.send(frames[task % frames.size()], rng);
      if (obs.symbols_sent > 0) {
        successes.fetch_add(1, std::memory_order_relaxed);
      }
    });
    EXPECT_EQ(successes.load(), 39u) << "round " << round;
  }
}

}  // namespace
}  // namespace ctc::sim
