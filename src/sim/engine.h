// Parallel Monte Carlo trial engine with deterministic per-trial RNG streams.
//
// Every reproduction number in this repo (Table II success rates, Table IV/V
// DE^2, the Fig. 12 threshold sweep) is an aggregate over thousands of
// independent frame trials. The engine runs those trials across a thread
// pool while keeping the result bit-identical for a fixed seed at ANY thread
// count:
//
//   * trial i always draws from the RNG stream
//     dsp::Rng::for_stream(seed, run_index << 32 | i) — a pure function of
//     the seed and the trial's position, never of the executing thread or
//     the scheduling order;
//   * per-trial results are folded into the aggregate in trial-index order,
//     so floating-point reduction order is fixed too.
//
// `run_index` bumps on every run() so that back-to-back runs (e.g. the
// authentic and the emulated link of one table row) draw from disjoint
// stream families.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "dsp/require.h"
#include "dsp/rng.h"
#include "sim/telemetry.h"
#include "sim/thread_pool.h"

namespace ctc::sim {

struct EngineConfig {
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;  ///< dsp::Rng's default seed
  /// Worker threads. 0 = auto: the CTC_THREADS environment variable if set,
  /// else hardware concurrency (see ThreadPool::resolve_threads).
  std::size_t threads = 0;
};

class TrialEngine {
  template <class TrialFn>
  using trial_result_t = std::decay_t<decltype(std::declval<TrialFn&>()(
      std::size_t{}, std::declval<dsp::Rng&>()))>;

 public:
  explicit TrialEngine(EngineConfig config = {});

  std::uint64_t seed() const { return config_.seed; }
  std::size_t threads() const;

  /// Runs `count` trials of `trial(index, rng)` and folds each result into
  /// a default-constructed Aggregator via `aggregator.add(result)`, in
  /// trial-index order. Aggregates are bit-identical for a fixed seed
  /// regardless of thread count. Trials execute in bounded blocks so the
  /// engine never holds more than ~one block of results alive.
  template <class Aggregator, class TrialFn>
  Aggregator run(std::size_t count, TrialFn&& trial) {
    Aggregator aggregator{};
    run_into(aggregator, count, std::forward<TrialFn>(trial));
    return aggregator;
  }

  /// As run(), folding into an existing aggregator (lets callers pool
  /// several workloads — e.g. every SNR point — into one statistic).
  template <class Aggregator, class TrialFn>
  void run_into(Aggregator& aggregator, std::size_t count, TrialFn&& trial) {
    CTC_REQUIRE(count <= kMaxTrialsPerRun);
    const std::uint64_t base = next_run_base();
    run_ordered(
        count,
        [&](std::size_t index) {
          dsp::Rng rng = dsp::Rng::for_stream(config_.seed, base | index);
          CTC_TELEM_TIMER("engine", "trial");
          CTC_TELEM_COUNT("engine", "trials", 1);
          return trial(index, rng);
        },
        [&](trial_result_t<TrialFn>&& result) {
          aggregator.add(std::move(result));
        });
  }

  /// The loop under run_into(), without RNG streams: runs `task(index)` for
  /// every index in [0, count) on the pool, each under its own
  /// telemetry::TrialScope, and hands the results to `sink` in index order,
  /// committing each task's telemetry snapshot right after its result, so
  /// double-valued telemetry sums are bit-identical at any thread count
  /// (see sim/telemetry.h). Consumes no run index. Tasks execute in bounded
  /// blocks so at most ~one block of results is alive.
  template <class Task, class Sink>
  void run_ordered(std::size_t count, Task&& task, Sink&& sink) {
    using Result = std::decay_t<decltype(task(std::size_t{}))>;
    const std::size_t block = block_size(count);
    std::vector<std::optional<Result>> slots(block);
    std::vector<telemetry::TrialSnapshot> telemetry_slots(
        telemetry::enabled() ? block : 0);
    for (std::size_t start = 0; start < count; start += block) {
      const std::size_t batch = std::min(block, count - start);
      pool_->parallel_for(batch, [&](std::size_t k) {
        telemetry::TrialScope scope;
        slots[k].emplace(task(start + k));
        if (k < telemetry_slots.size()) telemetry_slots[k] = scope.capture();
      });
      for (std::size_t k = 0; k < batch; ++k) {
        sink(std::move(*slots[k]));
        slots[k].reset();
        if (k < telemetry_slots.size()) {
          telemetry::commit(std::move(telemetry_slots[k]));
        }
      }
    }
  }

  /// Runs `count` trials and returns the raw results in trial-index order.
  template <class TrialFn>
  std::vector<trial_result_t<TrialFn>> map(std::size_t count, TrialFn&& trial) {
    std::vector<trial_result_t<TrialFn>> results;
    results.reserve(count);
    Appender<trial_result_t<TrialFn>> sink{results};
    run_into(sink, count, std::forward<TrialFn>(trial));
    return results;
  }

  /// The RNG stream trial `trial_index` of the NEXT run()/map() call would
  /// receive. Also the right tool for ad-hoc randomness tied to the
  /// engine's seed outside a trial loop (each call advances the run
  /// counter, so successive streams are independent).
  dsp::Rng stream(std::uint64_t trial_index = 0) {
    CTC_REQUIRE(trial_index <= kMaxTrialsPerRun);
    return dsp::Rng::for_stream(config_.seed, next_run_base() | trial_index);
  }

  /// Sets the run family the NEXT run()/map()/stream() call draws from.
  /// This is how the campaign executor replays an arbitrary slice of a
  /// sequential bench: the planner assigns every work unit the run index
  /// the bench's k-th engine call would have used, each executor seeks to
  /// it before running the unit, and any shard/process/resume partition
  /// therefore consumes exactly the sequential run's RNG streams. The
  /// counter advances past the sought index as usual.
  void seek_run(std::uint64_t run_index) {
    CTC_REQUIRE(run_index <= kMaxRunIndex);
    run_counter_ = run_index;
  }

  /// The run index the next run()/map()/stream() call will consume.
  std::uint64_t next_run_index() const { return run_counter_; }

  /// Run indices pack into the high 32 bits of the stream id.
  static constexpr std::uint64_t kMaxRunIndex = (std::uint64_t{1} << 32) - 1;

  /// Trials per run() are capped so run index and trial index pack into one
  /// 64-bit stream id without overlap.
  static constexpr std::uint64_t kMaxTrialsPerRun = (std::uint64_t{1} << 32) - 1;

 private:
  template <class T>
  struct Appender {
    std::vector<T>& sink;
    void add(T&& value) { sink.push_back(std::move(value)); }
  };

  std::uint64_t next_run_base();
  std::size_t block_size(std::size_t count) const;

  EngineConfig config_;
  std::uint64_t run_counter_ = 0;
  std::shared_ptr<ThreadPool> pool_;
};

}  // namespace ctc::sim
