#include "dsp/rng.h"

#include <cmath>

#include "dsp/kernels/kernels.h"
#include "dsp/require.h"

namespace ctc::dsp {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  CTC_REQUIRE(lo <= hi);
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  CTC_REQUIRE(n > 0);
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % n);
  std::uint64_t value = next_u64();
  while (value >= limit) value = next_u64();
  return value % n;
}

double Rng::gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  cached_gaussian_ = radius * std::sin(kTwoPi * u2);
  has_cached_gaussian_ = true;
  return radius * std::cos(kTwoPi * u2);
}

cplx Rng::complex_gaussian(double variance) {
  CTC_REQUIRE(variance >= 0.0);
  const double scale = std::sqrt(variance / 2.0);
  return {scale * gaussian(), scale * gaussian()};
}

void Rng::add_complex_gaussian(std::span<cplx> samples, double variance) {
  CTC_REQUIRE(variance >= 0.0);
  kernels::GaussLanes lanes{};
  for (std::size_t lane = 0; lane < 4; ++lane) {
    std::uint64_t seed = next_u64();
    for (auto& word : lanes.s) word[lane] = splitmix64(seed);
  }
  kernels::active().add_gauss(samples.data(), samples.size(),
                              std::sqrt(variance / 2.0), &lanes);
}

std::uint8_t Rng::bit() { return static_cast<std::uint8_t>(next_u64() >> 63); }

Rng Rng::for_stream(std::uint64_t seed, std::uint64_t stream_id) {
  // Whiten the seed first so that for_stream(s, i) never coincides with the
  // plain Rng(s + i) family, then fold in the stream id with an odd
  // multiplier to spread adjacent ids across the SplitMix64 input space.
  std::uint64_t x = seed;
  const std::uint64_t whitened = splitmix64(x);
  x = whitened ^ (stream_id * 0xda942042e4dd58b5ULL + 0x2545f4914f6cdd1dULL);
  Rng rng;
  for (auto& word : rng.state_) word = splitmix64(x);
  rng.has_cached_gaussian_ = false;
  return rng;
}

}  // namespace ctc::dsp
