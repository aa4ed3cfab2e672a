// zigbee::ShrSync's one-shot search against an exhaustive oracle.
//
// find() prunes its search with the preamble screen (see shr_sync.h). The
// oracle below makes the same decision without the screen, from public
// calls: the unit-power SHR reference, window energies as prefix-sum
// differences from the start of the window's finite stretch (no window
// holding a sample of non-finite |x|^2 is scored), the energy gate, and the
// first maximum at or above the threshold, with the exact correlation at
// every offset. Both read the dispatched kernel table, so running the suite
// at CTC_SIMD=scalar and at the default level checks both kernel levels.
#include "zigbee/shr_sync.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "attack/eavesdropper.h"
#include "attack/emulator.h"
#include "dsp/kernels/kernels.h"
#include "dsp/rng.h"
#include "zigbee/app.h"
#include "zigbee/receiver.h"
#include "zigbee/transmitter.h"

namespace ctc::zigbee {
namespace {

MacFrame test_frame() { return make_text_frame(7, 3); }

/// find()'s decision by exhaustive search.
std::optional<std::size_t> exhaustive_find(std::span<const cplx> capture,
                                           std::size_t max_offset) {
  const cvec reference = Transmitter({.samples_per_chip = 2,
                                      .normalize_power = true})
                             .shr_reference();
  const std::size_t window = reference.size();
  if (capture.size() < window) return std::nullopt;
  const std::size_t last = std::min(max_offset, capture.size() - window);
  const dsp::kernels::KernelTable& kt = dsp::kernels::active();
  const double reference_energy = kt.energy(reference.data(), window);
  // prefix[j] sums |x|^2 over [anchor[j], j), where anchor[j] is the
  // first sample after the last one before j whose |x|^2 is not finite.
  rvec prefix(last + window + 1, 0.0);
  std::vector<std::size_t> anchor(last + window + 1, 0);
  for (std::size_t i = 0; i < last + window; ++i) {
    const double norm = std::norm(capture[i]);
    const bool finite = std::isfinite(norm);
    anchor[i + 1] = finite ? anchor[i] : i + 1;
    prefix[i + 1] = finite ? prefix[i] + norm : 0.0;
  }
  std::optional<std::size_t> best;
  double best_metric = 0.0;
  for (std::size_t o = 0; o <= last; ++o) {
    if (anchor[o + window] > o) continue;  // a non-finite sample inside
    const double energy = prefix[o + window] - prefix[o];
    if (energy <= ShrSync::kEnergyGate) continue;
    const double metric =
        std::norm(kt.dot_conj(capture.data() + o, reference.data(), window)) /
        (energy * reference_energy);
    if (metric >= ShrSync::kThreshold && metric > best_metric) {
      best = o;
      best_metric = metric;
    }
  }
  return best;
}

/// find() must pick the oracle's offset; returns find()'s match.
ShrMatch expect_oracle_match(std::span<const cplx> capture,
                             std::size_t max_offset) {
  const ShrMatch match = ShrSync().find(capture, max_offset);
  EXPECT_EQ(match.offset, exhaustive_find(capture, max_offset));
  return match;
}

/// `wave` behind `lead` samples and 200 after, with AWGN at `snr_db`
/// against the unit-power frame over the whole capture.
cvec padded_capture(std::span<const cplx> wave, std::size_t lead,
                    double snr_db, dsp::Rng& rng) {
  cvec capture(lead, cplx{0.0, 0.0});
  capture.insert(capture.end(), wave.begin(), wave.end());
  capture.resize(capture.size() + 200, cplx{0.0, 0.0});
  rng.add_complex_gaussian(capture, std::pow(10.0, -snr_db / 10.0));
  return capture;
}

TEST(ShrSyncTest, FindsFrameOffset) {
  Transmitter tx;
  dsp::Rng rng(62);
  const cvec wave = tx.transmit_frame(test_frame());
  for (std::size_t offset : {0u, 17u, 250u}) {
    cvec padded(offset);
    for (auto& x : padded) x = rng.complex_gaussian(0.01);
    padded.insert(padded.end(), wave.begin(), wave.end());
    const auto found = ShrSync().find(padded, 400).offset;
    ASSERT_TRUE(found.has_value()) << "offset=" << offset;
    EXPECT_EQ(*found, offset);
  }
}

TEST(ShrSyncTest, RejectsNoiseOnly) {
  dsp::Rng rng(63);
  cvec noise(2000);
  for (auto& x : noise) x = rng.complex_gaussian(1.0);
  EXPECT_FALSE(ShrSync().find(noise, 1000).offset.has_value());
}

TEST(ShrSyncTest, FindThenReceiveDecodes) {
  Transmitter tx;
  dsp::Rng rng(64);
  const cvec wave = tx.transmit_frame(test_frame());
  cvec padded(123);
  for (auto& x : padded) x = rng.complex_gaussian(0.001);
  padded.insert(padded.end(), wave.begin(), wave.end());
  const auto offset = ShrSync().find(padded, 300).offset;
  ASSERT_TRUE(offset.has_value());
  const ReceiveResult result =
      Receiver().receive(std::span<const cplx>(padded).subspan(*offset));
  EXPECT_TRUE(result.frame_ok());
}

TEST(ShrSyncTest, OneShotMatchesTheOracleOnAuthenticAndEmulatedFrames) {
  const Transmitter tx;
  const attack::WaveformEmulator emulator;
  dsp::Rng rng(270);
  std::size_t synced_high_snr = 0;
  for (unsigned k = 0; k < 3; ++k) {
    const cvec authentic = tx.transmit_frame(make_text_frame(k, 1));
    const cvec emulated = emulator.emulate(authentic).emulated_4mhz;
    for (const double snr : {-5.0, 0.0, 5.0, 10.0, 15.0, 20.0}) {
      for (const bool is_emulated : {false, true}) {
        const std::size_t lead = rng.uniform_index(1501);
        SCOPED_TRACE(testing::Message()
                     << "frame " << k << (is_emulated ? " emulated " : " ")
                     << snr << " dB, lead " << lead);
        const cvec capture = padded_capture(
            is_emulated ? emulated : authentic, lead, snr, rng);
        const ShrMatch match = expect_oracle_match(capture, 2000);
        if (snr < 10.0) continue;
        ASSERT_EQ(match.offset, std::optional<std::size_t>(lead));
        ++synced_high_snr;
        // Best-first pays a few exact correlations per capture where the
        // exhaustive search pays one per offset. An emulated preamble only
        // approximates the repeated segment, so its bound is looser and
        // more offsets near the peak run the exact metric (10-14 here).
        EXPECT_LE(match.exact, is_emulated ? 16u : 8u);
      }
    }
  }
  EXPECT_EQ(synced_high_snr, 18u);
}

TEST(ShrSyncTest, EavesdropperCapturesSyncWhereTheOracleDoes) {
  const cvec victim = Transmitter().transmit_frame(make_text_frame(11, 2));
  const attack::Eavesdropper eavesdropper;
  for (std::uint64_t seed = 230; seed <= 237; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    dsp::Rng rng(seed);
    const attack::EavesdropResult result = eavesdropper.listen(victim, rng);
    ASSERT_TRUE(result.synchronized);
    // 900 lead-in samples at 20 MHz are 180 at 4 MHz.
    EXPECT_EQ(result.frame_offset, 180u);
    const ShrMatch match = expect_oracle_match(
        result.capture_4mhz, eavesdropper.config().max_sync_offset);
    EXPECT_EQ(match.offset, result.frame_offset);
    EXPECT_LE(match.exact, 8u);
  }
}

TEST(ShrSyncTest, EdgeCapturesMatchTheOracle) {
  const cvec wave = Transmitter().transmit_frame(test_frame());
  const std::size_t window = ShrSync().window();
  dsp::Rng rng(271);

  const cvec silence(3000, cplx{0.0, 0.0});
  const ShrMatch quiet = expect_oracle_match(silence, 2000);
  EXPECT_FALSE(quiet.offset.has_value());
  EXPECT_EQ(quiet.exact, 0u);  // every window is under the energy gate

  const std::span<const cplx> short_capture(wave.data(), window - 1);
  EXPECT_FALSE(expect_oracle_match(short_capture, 2000).offset.has_value());
  EXPECT_EQ(expect_oracle_match(std::span<const cplx>(wave.data(), window), 0)
                .offset,
            std::optional<std::size_t>(0));

  const cvec aligned = padded_capture(wave, 0, 20.0, rng);
  EXPECT_EQ(expect_oracle_match(aligned, 0).offset,
            std::optional<std::size_t>(0));
  const cvec late = padded_capture(wave, 300, 20.0, rng);
  expect_oracle_match(late, 0);
  expect_oracle_match(late, 299);
  for (const std::size_t max_offset :
       {late.size() - window, late.size() + 100,
        std::numeric_limits<std::size_t>::max()}) {
    EXPECT_EQ(expect_oracle_match(late, max_offset).offset,
              std::optional<std::size_t>(300));
  }
}

TEST(ShrSyncTest, WindowAtOrUnderTheEnergyGateDoesNotSync) {
  // A unit-power frame's window holds about 640; scaled by 1e-8 it holds
  // about 6.4e-14, under the 1e-12 gate, so no offset is even correlated.
  // The same frame scaled by 1e-5 is far above the gate and syncs.
  const cvec wave = Transmitter().transmit_frame(test_frame());
  for (const double scale : {1e-8, 1e-5}) {
    SCOPED_TRACE(testing::Message() << "scale " << scale);
    cvec capture(300, cplx{0.0, 0.0});
    for (const cplx& x : wave) capture.push_back(scale * x);
    const ShrMatch match = expect_oracle_match(capture, 2000);
    if (scale < 1e-6) {
      EXPECT_FALSE(match.offset.has_value());
      EXPECT_EQ(match.exact, 0u);
    } else {
      EXPECT_EQ(match.offset, std::optional<std::size_t>(300));
    }
  }
}

TEST(ShrSyncTest, NanAndInfMatchTheOracle) {
  const cvec wave = Transmitter().transmit_frame(test_frame());
  const std::size_t window = ShrSync().window();
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  dsp::Rng rng(272);
  const std::size_t lead = 900;
  const cvec clean = padded_capture(wave, lead, 15.0, rng);
  ASSERT_EQ(ShrSync().find(clean, 2000).offset,
            std::optional<std::size_t>(lead));
  struct Injection {
    std::size_t at;
    cplx value;
    std::optional<std::size_t> want;
  };
  // No window holding the bad sample can sync, and the search resumes
  // after it, so a NaN or Inf before the SHR leaves the frame at `lead`.
  // One inside the SHR leaves a preamble alias whose window misses it:
  // two symbols (128 samples) late after one 100 samples in, and four
  // symbols (256 samples) early after one 400 samples in, whose window
  // ends before it.
  for (const Injection& injection :
       {Injection{lead - 700, cplx{inf, -inf}, lead},
        Injection{lead - 100, cplx{nan, 0.0}, lead},
        Injection{lead - 1, cplx{0.0, -inf}, lead},
        Injection{lead + 100, cplx{0.0, inf}, lead + 128},
        Injection{lead + 400, cplx{nan, nan}, lead - 256},
        Injection{lead + window + 10, cplx{nan, 0.0}, lead}}) {
    SCOPED_TRACE(testing::Message() << "sample " << injection.at);
    cvec capture = clean;
    capture[injection.at] = injection.value;
    EXPECT_EQ(expect_oracle_match(capture, 2000).offset, injection.want);
  }
}

}  // namespace
}  // namespace ctc::zigbee
