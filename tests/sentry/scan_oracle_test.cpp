// The frame scanner against an unscreened oracle.
//
// StreamScanner's frame-sync search (zigbee::ShrSync::search) is pruned: a
// chip-domain bound on the SHR metric orders the exact full-window
// correlations (best-first) and skips every offset whose bound cannot win.
// The claim is that this changes only which offsets run the exact metric,
// never a decision. The oracle below is the search without any of that,
// built from public calls: it runs the exact metric (dot_conj over the
// window, divided by the prefix-sum window energy anchored at the round's
// first offset, times the reference energy) at every offset and keeps the
// first maximum. Its round, hill-climb, lookahead, decode, consume and
// flush rules are StreamScanner's. Verdict JSONL and every ScannerStats
// counter must match byte for byte; only sync_exact, the pruned search's
// own cost, may differ.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "dsp/kernels/kernels.h"
#include "dsp/pulse.h"
#include "dsp/rng.h"
#include "sentry/frame_sync.h"
#include "sentry/source.h"
#include "zigbee/chip_sequences.h"
#include "zigbee/frame.h"
#include "zigbee/shr_sync.h"
#include "zigbee/transmitter.h"

namespace ctc::sentry {
namespace {

/// StreamScanner's rules with an exhaustive frame-sync search.
class UnscreenedScanner {
 public:
  explicit UnscreenedScanner(ScannerConfig config)
      : config_(std::move(config)),
        receiver_(config_.receiver),
        detector_(config_.detector) {
    const std::size_t spc = config_.receiver.samples_per_chip;
    reference_ = zigbee::Transmitter({.samples_per_chip = spc,
                                      .normalize_power = true})
                     .shr_reference();
    window_ = reference_.size();
    reference_energy_ =
        dsp::kernels::active().energy(reference_.data(), window_);
    guard_ = 8 * spc;
    frame_need_ = StreamScanner::ppdu_samples(config_.max_psdu_bytes, spc);
  }

  void push(std::span<const cplx> samples) {
    stats_.samples_in += samples.size();
    buffer_.insert(buffer_.end(), samples.begin(), samples.end());
    advance(false);
  }
  void flush() { advance(true); }

  const ScannerStats& stats() const { return stats_; }
  const std::string& jsonl() const { return jsonl_; }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  const cplx* data() const { return buffer_.data() + start_; }
  std::size_t avail() const { return buffer_.size() - start_; }

  void advance(bool flushing) {
    for (;;) {
      if (pending_ != kNone) {
        const bool ready = avail() >= pending_ + frame_need_;
        if (!ready && !flushing) return;
        if (!ready && avail() <= pending_) {
          consume(avail());
          pending_ = kNone;
          return;
        }
        const std::size_t offset = pending_;
        pending_ = kNone;
        decode_at(offset);
        continue;
      }
      if (!scan_round(flushing)) return;
    }
  }

  bool scan_round(bool flushing) {
    if (!flushing &&
        avail() < StreamScanner::kScanSpan + window_ - 1 + guard_) {
      return false;
    }
    if (avail() == 0) return false;
    const std::size_t limit =
        avail() >= window_
            ? std::min(StreamScanner::kScanSpan, avail() - window_ + 1)
            : 0;
    if (limit == 0) {
      consume(avail());
      return true;
    }
    ++stats_.scan_rounds;
    const std::size_t search_end =
        std::min(avail() - window_, limit - 1 + guard_);
    rvec prefix(search_end + window_ + 1, 0.0);
    for (std::size_t i = 0; i < search_end + window_; ++i) {
      prefix[i + 1] = prefix[i] + std::norm(data()[i]);
    }
    const auto energy = [&](std::size_t o) {
      return prefix[o + window_] - prefix[o];
    };
    const auto metric = [&](std::size_t o) {
      const cplx c = dsp::kernels::active().dot_conj(
          data() + o, reference_.data(), window_);
      return std::norm(c) / (energy(o) * reference_energy_);
    };

    std::size_t best = kNone;
    double best_metric = 0.0;
    for (std::size_t o = 0; o < limit; ++o) {
      if (energy(o) <= zigbee::ShrSync::kEnergyGate) continue;
      const double m = metric(o);
      if (m >= zigbee::ShrSync::kThreshold && m > best_metric) {
        best = o;
        best_metric = m;
      }
    }
    if (best == kNone) {
      ++stats_.sync_misses;
      consume(limit);
      return true;
    }
    std::size_t horizon = std::min(best + guard_, search_end);
    for (std::size_t o = best + 1; o <= horizon; ++o) {
      if (energy(o) <= zigbee::ShrSync::kEnergyGate) continue;
      if (const double m = metric(o); m > best_metric) {
        best = o;
        best_metric = m;
        horizon = std::min(best + guard_, search_end);
      }
    }
    ++stats_.frames_detected;
    pending_ = best;
    return true;
  }

  void decode_at(std::size_t offset) {
    const std::size_t have = avail() - offset;
    const std::size_t take = std::min(have, frame_need_);
    const zigbee::ReceiveResult rx =
        receiver_.receive(std::span<const cplx>(data() + offset, take));
    std::size_t consumed = std::min(window_, have);
    if (rx.phr_ok) {
      ++stats_.frames_decoded;
      if (rx.frame_ok()) ++stats_.frames_ok;
      consumed = std::min(
          StreamScanner::ppdu_samples(rx.psdu.size(),
                                      config_.receiver.samples_per_chip),
          take);
      const defense::Verdict verdict = detector_.classify(rx.freq_chips);
      VerdictRecord record;
      record.frame_index = stats_.verdicts;
      record.stream_position = base_ + offset;
      record.frame_samples = consumed;
      record.frame_ok = rx.frame_ok();
      record.points = rx.freq_chips.size() / 2;
      record.valid = true;
      record.de2 = verdict.distance_sq;
      record.c40 = verdict.feature.c40;
      record.c42 = verdict.feature.c42;
      record.is_attack = verdict.is_attack;
      ++stats_.verdicts;
      if (record.is_attack) ++stats_.verdicts_attack;
      record.append_jsonl(jsonl_);
    }
    consume(offset + consumed);
  }

  void consume(std::size_t count) {
    start_ += count;
    base_ += count;
    stats_.samples_consumed += count;
  }

  ScannerConfig config_;
  zigbee::Receiver receiver_;
  defense::Detector detector_;
  cvec reference_;
  double reference_energy_ = 0.0;
  std::size_t window_ = 0;
  std::size_t guard_ = 0;
  std::size_t frame_need_ = 0;
  cvec buffer_;
  std::size_t start_ = 0;
  std::uint64_t base_ = 0;
  std::size_t pending_ = kNone;
  ScannerStats stats_;
  std::string jsonl_;
};

cvec collect_stream(const LinkSourceConfig& config) {
  LinkSource source(config, 0);
  cvec stream;
  cvec block(4096);
  while (const std::size_t got = source.next_block(block)) {
    stream.insert(stream.end(), block.begin(),
                  block.begin() + static_cast<std::ptrdiff_t>(got));
  }
  return stream;
}

LinkSourceConfig capture_config(double snr_db, std::size_t gap,
                                std::size_t frames, std::uint64_t seed) {
  LinkSourceConfig config;
  config.environment = channel::Environment::awgn(snr_db);
  config.frames = frames;
  config.attack_every = 3;
  config.gap_samples = gap;
  config.seed = seed;
  return config;
}

/// Runs the scanner and the oracle over `stream` in `block`-sample pushes
/// and checks they agree; returns the scanner's stats.
ScannerStats expect_oracle_match(std::span<const cplx> stream,
                                 std::size_t block) {
  std::string jsonl;
  StreamScanner scanner({}, 0, [&](const VerdictRecord& record) {
    record.append_jsonl(jsonl);
  });
  UnscreenedScanner oracle({});
  for (std::size_t i = 0; i < stream.size(); i += block) {
    const auto part = stream.subspan(i, std::min(block, stream.size() - i));
    scanner.push(part);
    oracle.push(part);
  }
  scanner.flush();
  oracle.flush();

  EXPECT_EQ(jsonl, oracle.jsonl());
  const ScannerStats& got = scanner.stats();
  const ScannerStats& want = oracle.stats();
  EXPECT_EQ(got.samples_in, want.samples_in);
  EXPECT_EQ(got.samples_consumed, want.samples_consumed);
  EXPECT_EQ(got.scan_rounds, want.scan_rounds);
  EXPECT_EQ(got.sync_misses, want.sync_misses);
  EXPECT_EQ(got.frames_detected, want.frames_detected);
  EXPECT_EQ(got.frames_decoded, want.frames_decoded);
  EXPECT_EQ(got.frames_ok, want.frames_ok);
  EXPECT_EQ(got.verdicts, want.verdicts);
  EXPECT_EQ(got.verdicts_attack, want.verdicts_attack);
  EXPECT_EQ(want.sync_exact, 0u);  // the oracle does not count
  return got;
}

TEST(ScanOracleTest, ScreenedSearchMatchesUnscreenedAcrossSnrAndGaps) {
  for (const double snr : {3.0, 6.0, 10.0, 20.0}) {
    for (const std::size_t gap : {0UL, 700UL, 3000UL}) {
      const cvec stream = collect_stream(capture_config(
          snr, gap, 9, 9100 + static_cast<std::uint64_t>(snr) * 10 + gap));
      for (const std::size_t block : {1000UL, 4096UL}) {
        SCOPED_TRACE(testing::Message() << snr << " dB, gap " << gap
                                        << ", block " << block);
        const ScannerStats stats = expect_oracle_match(stream, block);
        EXPECT_GT(stats.verdicts, 0u);
        if (snr >= 10.0) {
          // Best-first pays a few exact correlations per frame; the
          // unscreened search pays one per offset.
          EXPECT_LE(stats.sync_exact, 8 * stats.frames_detected);
        }
      }
    }
  }
}

TEST(ScanOracleTest, SingleSamplePushesMatchOnAShortCapture) {
  const cvec stream = collect_stream(capture_config(8.0, 300, 2, 9201));
  const ScannerStats stats = expect_oracle_match(stream, 1);
  EXPECT_EQ(stats.verdicts, 2u);
}

TEST(ScanOracleTest, TruncatedTailMatches) {
  const cvec stream = collect_stream(capture_config(10.0, 700, 4, 9202));
  // Cut inside the last frame: its SHR syncs but the decode is truncated.
  const std::span<const cplx> cut(stream.data(), stream.size() - 2500);
  for (const std::size_t block : {1000UL, 4096UL}) {
    expect_oracle_match(cut, block);
  }
}

TEST(ScanOracleTest, NanInfAndSilenceInjectionsMatch) {
  const cvec clean = collect_stream(capture_config(10.0, 700, 6, 9203));
  std::vector<VerdictRecord> frames;
  StreamScanner locate({}, 0, [&](const VerdictRecord& record) {
    frames.push_back(record);
  });
  locate.push(clean);
  locate.flush();
  ASSERT_EQ(frames.size(), 6u);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  cvec stream = clean;
  // Inside frame 1's SHR and frame 2's PSDU, in the gap after frame 3, and
  // 3000 samples of silence over frame 5's start.
  stream[frames[0].stream_position + 100] = cplx{nan, 0.0};
  stream[frames[1].stream_position + 1169] = cplx{inf, -inf};
  stream[frames[2].stream_position + frames[2].frame_samples + 300] =
      cplx{0.0, inf};
  stream[frames[3].stream_position + 40] = cplx{nan, nan};
  const auto silence =
      stream.begin() +
      static_cast<std::ptrdiff_t>(frames[4].stream_position - 500);
  std::fill(silence, silence + 3000, cplx{0.0, 0.0});
  for (const std::size_t block : {1000UL, 4096UL}) {
    SCOPED_TRACE(testing::Message() << "block " << block);
    expect_oracle_match(stream, block);
  }
}

TEST(ScanOracleTest, PeakWithATightBoundJustOverTheThresholdStillSyncs) {
  // Over the sync window, x = a * SHR + w with w orthogonal to the repeated
  // preamble segment inside each of segments 1..7 and zero elsewhere makes
  // the screen's bound equal the exact metric: the triangle inequality and
  // both Cauchy-Schwarz steps are tight. With that metric just above the
  // threshold, only the bound's slack keeps the peak from being screened
  // out, so a bound any tighter than the metric loses this frame.
  const std::size_t seg = 64, lead = 1500;
  zigbee::MacFrame frame;
  frame.payload.assign(20, 0x5A);
  const zigbee::Transmitter tx({.samples_per_chip = 2, .normalize_power = true});
  const cvec wave = tx.transmit_frame(frame);
  const cvec shr = tx.shr_reference();
  const std::size_t window = shr.size();
  cvec stream(lead, cplx{0.0, 0.0});
  stream.insert(stream.end(), wave.begin(), wave.end());
  stream.resize(stream.size() + 3000, cplx{0.0, 0.0});

  const dsp::kernels::KernelTable& kt = dsp::kernels::active();
  const double shr_energy = kt.energy(shr.data(), window);
  dsp::Rng rng(9204);
  cvec w(7 * seg);
  for (std::size_t k = 0; k < 7; ++k) {
    const cplx* r = shr.data() + (k + 1) * seg;
    cplx* wk = w.data() + k * seg;
    for (std::size_t i = 0; i < seg; ++i) wk[i] = rng.complex_gaussian(1.0);
    const cplx projection = kt.dot_conj(wk, r, seg) / kt.energy(r, seg);
    for (std::size_t i = 0; i < seg; ++i) wk[i] -= projection * r[i];
  }
  // w leaves the correlation c unchanged, so the metric is
  // |c|^2 / ((E_x + scale^2 E_w) E_shr): solve for a metric of 0.255.
  const double c2 =
      std::norm(kt.dot_conj(wave.data(), shr.data(), window));
  const double scale =
      std::sqrt((c2 / (0.255 * shr_energy) - kt.energy(wave.data(), window)) /
                kt.energy(w.data(), w.size()));
  for (std::size_t i = 0; i < w.size(); ++i) {
    stream[lead + seg + i] += scale * w[i];
  }
  const double metric =
      std::norm(kt.dot_conj(stream.data() + lead, shr.data(), window)) /
      (kt.energy(stream.data() + lead, window) * shr_energy);
  ASSERT_GT(metric, 0.25);
  ASSERT_LT(metric, 0.26);

  const ScannerStats stats = expect_oracle_match(stream, 4096);
  EXPECT_EQ(stats.frames_detected, 1u);
}

TEST(ScanOracleTest, ScreenBuildsAndStripMatchesDotConjAtEverySpc) {
  // Both structure checks hold for the half-sine SHR at every
  // samples_per_chip, so construction succeeds; and the chip-domain strip
  // against the repeated preamble segment is dot_conj against it within
  // 1e-13 of sum |x||r|.
  for (std::size_t spc = 1; spc <= 4; ++spc) {
    SCOPED_TRACE(testing::Message() << "spc " << spc);
    ScannerConfig config;
    config.receiver.samples_per_chip = spc;
    const StreamScanner scanner(config, 0, nullptr);
    EXPECT_GT(scanner.sync_window(), 8 * 32 * spc);

    const cvec shr = zigbee::Transmitter({.samples_per_chip = spc,
                                          .normalize_power = true})
                         .shr_reference();
    const std::size_t seg = 32 * spc;
    const std::span<const cplx> segment(shr.data() + seg, seg);
    const rvec pulse = dsp::half_sine_pulse(spc);
    dsp::Rng rng(77 + spc);
    const std::size_t m = 300;
    cvec x(m + seg - 1);
    for (cplx& sample : x) sample = rng.complex_gaussian(1.0);
    for (const dsp::kernels::SimdLevel level :
         {dsp::kernels::SimdLevel::scalar,
          dsp::kernels::best_supported_level()}) {
      const dsp::kernels::KernelTable& kt = dsp::kernels::table(level);
      cvec strip(m);
      rvec work(dsp::kernels::chip_strip_work(m, spc));
      kt.chip_strip(x.data(), m, spc, pulse.data(),
                    zigbee::packed_chip_table()[0], work.data(), strip.data());
      for (std::size_t s = 0; s < m; ++s) {
        const cplx exact = kt.dot_conj(x.data() + s, segment.data(), seg);
        double scale = 0.0;
        for (std::size_t i = 0; i < seg; ++i) {
          scale += std::abs(x[s + i]) * std::abs(segment[i]);
        }
        EXPECT_LE(std::abs(strip[s] - exact), 1e-13 * scale) << "s=" << s;
      }
    }
  }
}

}  // namespace
}  // namespace ctc::sentry
