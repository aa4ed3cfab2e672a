// Deterministic random number generation for simulations.
//
// All randomness in the ctc libraries flows through ctc::dsp::Rng so that
// every experiment is reproducible from a printed seed. The generator is
// xoshiro256++ (public domain, Blackman & Vigna) seeded via SplitMix64, which
// avoids the zero-state and correlated-seed pitfalls of std::mt19937 seeding.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "dsp/types.h"

namespace ctc::dsp {

/// Version of the channel-noise stream that Rng::add_complex_gaussian emits
/// (and therefore of every AWGN result). Noise stream 2:
///   * lanes: add_complex_gaussian draws four next_u64() values from the
///     caller's stream and expands each through SplitMix64 into the
///     256-bit state of one xoshiro256++ lane; sample i then takes two
///     draws from lane i mod 4 (dsp::kernels add_gauss);
///   * uniforms: the top 52 bits of each draw via the mantissa trick,
///     u1 = 2 - [1,2) in (0, 1] and u2 = [1,2) - 1 in [0, 1), so there is
///     no rejection loop;
///   * Box–Muller: r = sqrt(-2 log u1) with fdlibm's e_log polynomial,
///     (cos, sin)(2 pi u2) by exact quadrant reduction plus fdlibm's
///     k_sin/k_cos, in one unfused operation order, so its bits are the
///     same at every SIMD level and no longer depend on libm.
/// Stream 1 was one scalar libm Box–Muller pair per sample (gaussian()
/// twice): its bits depended on the platform libm, and it cost about
/// 40 ns/sample. It is gone; nothing can select it. Campaign manifests fold
/// this id into their fingerprint, so a run checkpointed under another
/// stream is refused rather than merged.
inline constexpr int kNoiseStream = 2;

/// Deterministic PRNG with convenience samplers for simulation use.
class Rng {
 public:
  /// Seeds the full 256-bit state from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit value (xoshiro256++).
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal sample (Box–Muller, cached pair).
  double gaussian();

  /// Circularly-symmetric complex Gaussian with E|x|^2 == variance.
  cplx complex_gaussian(double variance = 1.0);

  /// Adds circularly-symmetric complex Gaussian noise with
  /// E|n|^2 == variance to every sample, as noise stream kNoiseStream.
  /// Consumes exactly four next_u64() draws of this stream whatever the
  /// length, and leaves the gaussian() pair cache alone.
  void add_complex_gaussian(std::span<cplx> samples, double variance);

  /// Fair coin: 0 or 1.
  std::uint8_t bit();

  /// Derives the `stream_id`-th independent stream of a seed family.
  ///
  /// The (seed, stream_id) pair is hashed through SplitMix64 into a fresh
  /// 256-bit state, so streams are decorrelated even for adjacent ids and
  /// the result depends only on the pair — not on any generator that may
  /// already exist. This is what gives Monte Carlo trials scheduling-
  /// independent randomness: trial i always draws from
  /// `for_stream(seed, i)` no matter which thread runs it or in what order.
  ///
  /// Stream-ID scheme (the repo-wide convention, used by sim::TrialEngine):
  ///
  ///     stream_id = (run_index << 32) | trial_index
  ///
  /// The high 32 bits hold the engine's per-run counter (incremented every
  /// time run()/run_into() is called on an engine), the low 32 bits the
  /// trial index within that run. Consequences worth relying on:
  ///   * the k-th run of the j-th trial is addressable without knowing how
  ///     many draws earlier trials consumed — no sequence splitting;
  ///   * two benches with the same --seed replay identical randomness run
  ///     for run, which is what makes the CI determinism diff meaningful;
  ///   * a single engine supports up to 2^32 runs of 2^32 trials each
  ///     before ids could collide.
  /// Engine run counters start at 0, so the engine's very first run owns
  /// the plain ids 0..count-1. Anything deriving streams outside an engine
  /// (tests, ad-hoc tools) should therefore use its own seed rather than
  /// hand-picking stream ids that an engine sharing the seed would also
  /// hand out.
  ///
  /// Sub-stream schemes layered on top of the engine scheme:
  ///   * sentry channels:  `for_stream(capture_seed, c)` for channel `c` —
  ///     safe because the sentry's capture seed is its own, never an
  ///     engine seed;
  ///   * mesh sensors:     each trial first draws
  ///     `sensor_seed = trial_rng.next_u64()` from its engine-provided
  ///     stream, then sensor `s` uses `for_stream(sensor_seed, s)`
  ///     (see mesh::SensorField). Because the per-sensor SEED is itself a
  ///     trial-unique draw — not the campaign seed — sensor ids can never
  ///     collide with engine run/trial ids or sentry channel ids, and the
  ///     whole sensor fan-out stays a pure function of
  ///     (seed, run_index, trial_index, sensor_id).
  static Rng for_stream(std::uint64_t seed, std::uint64_t stream_id);

 private:
  std::array<std::uint64_t, 4> state_{};
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

}  // namespace ctc::dsp
