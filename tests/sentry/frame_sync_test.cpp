#include "sentry/frame_sync.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "campaign/json.h"
#include "dsp/kernels/kernels.h"
#include "sentry/source.h"
#include "zigbee/transmitter.h"

namespace ctc::sentry {
namespace {

/// Drains a LinkSource into one contiguous stream.
cvec collect_stream(const LinkSourceConfig& config, std::size_t channel = 0) {
  LinkSource source(config, channel);
  cvec stream;
  cvec block(4096);
  while (true) {
    const std::size_t got = source.next_block(block);
    if (got == 0) break;
    stream.insert(stream.end(), block.begin(),
                  block.begin() + static_cast<std::ptrdiff_t>(got));
  }
  return stream;
}

struct ScanOutput {
  std::string jsonl;
  std::vector<VerdictRecord> records;
  ScannerStats stats;
};

ScanOutput scan_stream(std::span<const cplx> stream, std::size_t block_size,
                       const ScannerConfig& config = {}) {
  ScanOutput output;
  StreamScanner scanner(config, 0, [&](const VerdictRecord& record) {
    output.jsonl += record.to_jsonl();
    output.jsonl += '\n';
    output.records.push_back(record);
  });
  for (std::size_t i = 0; i < stream.size(); i += block_size) {
    scanner.push(stream.subspan(i, std::min(block_size, stream.size() - i)));
  }
  scanner.flush();
  output.stats = scanner.stats();
  return output;
}

LinkSourceConfig quiet_config(std::size_t frames, std::size_t attack_every) {
  LinkSourceConfig config;
  config.environment = channel::Environment::awgn(15.0);
  config.frames = frames;
  config.attack_every = attack_every;
  config.gap_samples = 700;
  config.seed = 4057;
  return config;
}

TEST(StreamScannerTest, DecodesEveryFrameInAGappedStream) {
  const cvec stream = collect_stream(quiet_config(12, 0));
  const ScanOutput output = scan_stream(stream, 4096);

  EXPECT_EQ(output.stats.frames_decoded, 12u);
  EXPECT_EQ(output.stats.verdicts, 12u);
  EXPECT_EQ(output.stats.samples_in, stream.size());
  EXPECT_EQ(output.stats.samples_consumed, stream.size());
  for (const VerdictRecord& record : output.records) {
    EXPECT_TRUE(record.frame_ok);
    EXPECT_TRUE(record.valid);
    EXPECT_FALSE(record.is_attack);  // all-authentic stream at high SNR
  }
  // Frame starts are strictly increasing stream positions.
  for (std::size_t i = 1; i < output.records.size(); ++i) {
    EXPECT_GT(output.records[i].stream_position,
              output.records[i - 1].stream_position);
    EXPECT_EQ(output.records[i].frame_index, i);
  }
}

TEST(StreamScannerTest, FlagsEmulatedFramesAsAttacks) {
  const LinkSourceConfig config = quiet_config(12, 3);
  const cvec stream = collect_stream(config);
  const ScanOutput output = scan_stream(stream, 4096);

  ASSERT_EQ(output.records.size(), 12u);
  std::size_t attacks = 0;
  for (std::size_t i = 0; i < output.records.size(); ++i) {
    const bool expected = LinkSource::is_attack_frame(config, i + 1);
    EXPECT_EQ(output.records[i].is_attack, expected)
        << "frame " << i + 1 << " de2=" << output.records[i].de2;
    attacks += output.records[i].is_attack ? 1u : 0u;
  }
  EXPECT_EQ(attacks, 4u);
  EXPECT_EQ(output.stats.verdicts_attack, 4u);
}

TEST(StreamScannerTest, VerdictsAreInvariantToPushPartitioning) {
  const cvec stream = collect_stream(quiet_config(8, 3));
  const ScanOutput whole = scan_stream(stream, stream.size());
  EXPECT_EQ(whole.stats.verdicts, 8u);

  for (const std::size_t block : {1000003UL, 4096UL, 1537UL, 64UL, 1UL}) {
    if (block == 1 && stream.size() > 200000) {
      // One-sample pushes over the full stream are O(n) scanner calls; a
      // prefix exercises the same boundary logic.
      const std::span<const cplx> prefix(stream.data(), 200000);
      const ScanOutput chopped = scan_stream(prefix, block);
      const ScanOutput reference = scan_stream(prefix, prefix.size());
      EXPECT_EQ(chopped.jsonl, reference.jsonl) << "block=" << block;
      continue;
    }
    const ScanOutput chopped = scan_stream(stream, block);
    EXPECT_EQ(chopped.jsonl, whole.jsonl) << "block=" << block;
    EXPECT_EQ(chopped.stats.scan_rounds, whole.stats.scan_rounds);
    EXPECT_EQ(chopped.stats.sync_misses, whole.stats.sync_misses);
  }
}

TEST(StreamScannerTest, NoiseOnlyStreamEmitsNothing) {
  dsp::Rng rng(99);
  cvec noise(60000);
  for (cplx& sample : noise) sample = rng.complex_gaussian(0.1);
  const ScanOutput output = scan_stream(noise, 4096);
  EXPECT_EQ(output.stats.verdicts, 0u);
  EXPECT_EQ(output.stats.frames_detected, 0u);
  EXPECT_GT(output.stats.sync_misses, 0u);
  EXPECT_EQ(output.stats.samples_consumed, noise.size());
}

TEST(StreamScannerTest, TruncatedTailFrameIsDroppedNotHung) {
  const cvec stream = collect_stream(quiet_config(3, 0));
  // Chop the stream inside the last frame: its SHR syncs but the decode
  // sees a truncated capture.
  const std::size_t cut = stream.size() - 2500;
  const ScanOutput output =
      scan_stream(std::span<const cplx>(stream.data(), cut), 4096);
  EXPECT_EQ(output.stats.verdicts, 2u);
  EXPECT_EQ(output.stats.samples_consumed, cut);
}

TEST(StreamScannerTest, NanOrInfSampleInPsduStillYieldsAFiniteVerdict) {
  // Frame 1 authentic, frame 2 emulated.
  const LinkSourceConfig config = quiet_config(2, 2);
  const cvec clean = collect_stream(config);
  const ScanOutput reference = scan_stream(clean, 4096);
  ASSERT_EQ(reference.records.size(), 2u);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const zigbee::Receiver receiver(ScannerConfig{}.receiver);
  for (const cplx bad : {cplx{nan, nan}, cplx{nan, 0.5}, cplx{inf, -inf},
                         cplx{-inf, 0.25}}) {
    for (std::size_t f = 0; f < 2; ++f) {
      const VerdictRecord& frame = reference.records[f];
      SCOPED_TRACE(testing::Message() << "frame " << f + 1 << " sample ("
                                      << bad.real() << "," << bad.imag()
                                      << ")");
      cvec stream = clean;
      // 401 samples into the PSDU, past the 12-symbol SHR + PHR.
      stream[frame.stream_position + 768 + 401] = bad;
      const std::span<const cplx> wave(stream.data() + frame.stream_position,
                                       frame.frame_samples);

      // The discriminator chips of the damaged frame are finite, and the
      // same bits, at both kernel levels.
      const std::size_t num_chips = wave.size() / 2 - 1;
      rvec chips[2];
      const dsp::kernels::SimdLevel levels[2] = {
          dsp::kernels::SimdLevel::scalar,
          dsp::kernels::best_supported_level()};
      for (std::size_t l = 0; l < 2; ++l) {
        chips[l].assign(num_chips, 0.0);
        dsp::kernels::table(levels[l]).fm_discriminate(wave.data(), num_chips,
                                                       2, chips[l].data());
        for (double chip : chips[l]) ASSERT_TRUE(std::isfinite(chip));
      }
      EXPECT_EQ(std::memcmp(chips[0].data(), chips[1].data(),
                            num_chips * sizeof(double)),
                0);

      // So are the receiver's, which feed the detector.
      const zigbee::ReceiveResult rx = receiver.receive(wave);
      ASSERT_TRUE(rx.psdu_complete);
      ASSERT_FALSE(rx.freq_chips.empty());
      for (double chip : rx.freq_chips) ASSERT_TRUE(std::isfinite(chip));

      // The frame's verdict line parses with finite features and the link
      // kind's decision.
      const ScanOutput output = scan_stream(stream, 4096);
      const VerdictRecord* verdict = nullptr;
      for (const VerdictRecord& record : output.records) {
        if (record.stream_position == frame.stream_position) verdict = &record;
      }
      ASSERT_NE(verdict, nullptr);
      const campaign::Json line = campaign::Json::parse(verdict->to_jsonl());
      for (const char* key : {"de2", "c40", "c42"}) {
        EXPECT_TRUE(std::isfinite(line.at(key).as_number())) << key;
      }
      EXPECT_EQ(line.at("valid"), campaign::Json(true));
      EXPECT_EQ(line.at("is_attack"),
                campaign::Json(LinkSource::is_attack_frame(config, f + 1)));
    }
  }
}

TEST(StreamScannerTest, PpduSamplesMatchesTransmitterOutput) {
  for (const std::size_t payload : {0UL, 5UL, 40UL}) {
    zigbee::MacFrame frame;
    frame.payload.assign(payload, 0xAB);
    const zigbee::Transmitter tx({.samples_per_chip = 2,
                                  .normalize_power = true});
    const bytevec psdu = frame.serialize();
    EXPECT_EQ(StreamScanner::ppdu_samples(psdu.size(), 2),
              tx.transmit_psdu(psdu).size());
  }
}

}  // namespace
}  // namespace ctc::sentry
