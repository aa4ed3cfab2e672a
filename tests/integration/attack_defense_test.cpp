// End-to-end reproduction of the paper's core claims, at reduced trial
// counts so the suite stays fast; the bench binaries run the full sweeps.
#include <gtest/gtest.h>

#include "dsp/stats.h"
#include "sim/defense_run.h"
#include "sim/link.h"
#include "sim/metrics.h"
#include "zigbee/app.h"

#include "serial_trials.h"

namespace ctc::sim {
namespace {

std::vector<zigbee::MacFrame> workload() { return zigbee::make_text_workload(10); }

LinkConfig authentic_at(double snr_db) {
  LinkConfig config;
  config.environment = channel::Environment::awgn(snr_db);
  return config;
}

LinkConfig emulated_at(double snr_db) {
  LinkConfig config = authentic_at(snr_db);
  config.kind = LinkKind::emulated;
  return config;
}

TEST(AttackIntegrationTest, EmulatedFramesControlTheReceiverAtHighSnr) {
  // Table II end state: at 17 dB the attack succeeds (~100%).
  dsp::Rng rng(200);
  const auto frames = workload();
  const LinkStats stats = test::run_frames(Link(emulated_at(17.0)), frames, 30, rng);
  EXPECT_GE(stats.success_rate(), 0.95);
}

TEST(AttackIntegrationTest, SuccessRateRisesWithSnr) {
  // Table II shape: monotone-ish growth from 7 to 17 dB.
  dsp::Rng rng(201);
  const auto frames = workload();
  const double low = test::run_frames(Link(emulated_at(7.0)), frames, 40, rng).success_rate();
  const double mid = test::run_frames(Link(emulated_at(11.0)), frames, 40, rng).success_rate();
  const double high = test::run_frames(Link(emulated_at(17.0)), frames, 40, rng).success_rate();
  EXPECT_LT(low, mid + 0.1);
  EXPECT_LT(mid, high + 0.05);
  EXPECT_GT(low, 0.05);   // the attack already works sometimes at 7 dB
  EXPECT_LT(low, 0.95);   // ...but not always (the paper reports 42%)
  EXPECT_GE(high, 0.95);
}

TEST(AttackIntegrationTest, AuthenticLinkIsCleanWhereAttackDegrades) {
  dsp::Rng rng(202);
  const auto frames = workload();
  const LinkStats authentic = test::run_frames(Link(authentic_at(7.0)), frames, 30, rng);
  EXPECT_GE(authentic.success_rate(), 0.95);
  // Fig. 7: authentic chips match exactly at high SNR; emulated do not.
  const LinkStats clean = test::run_frames(Link(authentic_at(30.0)), frames, 5, rng);
  for (const auto& [distance, count] : clean.hamming_histogram) {
    EXPECT_EQ(distance, 0u);
  }
  const LinkStats attacked = test::run_frames(Link(emulated_at(30.0)), frames, 5, rng);
  std::size_t nonzero = 0;
  for (const auto& [distance, count] : attacked.hamming_histogram) {
    if (distance > 0) nonzero += count;
  }
  EXPECT_GT(nonzero, 0u);
}

TEST(DefenseIntegrationTest, DetectorSeparatesLinksAcrossSnr) {
  // Fig. 12 / Table IV: authentic DE^2 below threshold, emulated above,
  // for every SNR where the attack works.
  dsp::Rng rng(203);
  const auto frames = workload();
  defense::Detector detector;
  for (double snr : {7.0, 12.0, 17.0}) {
    const auto authentic =
        test::collect_defense_samples(Link(authentic_at(snr)), frames, 15, detector, rng);
    const auto emulated =
        test::collect_defense_samples(Link(emulated_at(snr)), frames, 15, detector, rng);
    ASSERT_GT(authentic.frames_used, 0u);
    ASSERT_GT(emulated.frames_used, 0u);
    EXPECT_LT(authentic.max_distance(), emulated.min_distance())
        << "snr=" << snr;
  }
}

TEST(DefenseIntegrationTest, CalibratedThresholdClassifiesHeldOutFrames) {
  // The paper's procedure: calibrate on the first 50 frames, test on the
  // rest (Sec. VII-B). Scaled down: 15 train + 15 test.
  dsp::Rng rng(204);
  const auto frames = workload();
  defense::Detector detector;
  const Link authentic(authentic_at(12.0));
  const Link emulated(emulated_at(12.0));
  const auto train_auth = test::collect_defense_samples(authentic, frames, 15, detector, rng);
  const auto train_att = test::collect_defense_samples(emulated, frames, 15, detector, rng);
  const double threshold = defense::Detector::calibrate_threshold(
      train_auth.distances, train_att.distances);

  defense::DetectorConfig tuned;
  tuned.threshold = threshold;
  defense::Detector tester(tuned);
  const auto test_auth = test::collect_defense_samples(authentic, frames, 15, tester, rng);
  const auto test_att = test::collect_defense_samples(emulated, frames, 15, tester, rng);
  for (double d : test_auth.distances) EXPECT_LT(d, threshold);
  for (double d : test_att.distances) EXPECT_GE(d, threshold);
}

TEST(DefenseIntegrationTest, MagnitudeModeSurvivesTheRealEnvironment) {
  // Table V setting: fading + CFO + random phase; |C40| keeps the classes
  // separated on average at attack-effective distances.
  dsp::Rng rng(205);
  const auto frames = workload();
  defense::DetectorConfig config;
  config.c40_mode = defense::C40Mode::magnitude;
  defense::Detector detector(config);
  for (double distance : {2.0, 4.0}) {
    LinkConfig authentic;
    authentic.environment = channel::Environment::real_world(distance);
    LinkConfig emulated = authentic;
    emulated.kind = LinkKind::emulated;
    const auto auth =
        test::collect_defense_samples(Link(authentic), frames, 12, detector, rng);
    const auto att =
        test::collect_defense_samples(Link(emulated), frames, 12, detector, rng);
    EXPECT_LT(auth.mean_distance() * 2.0, att.mean_distance())
        << "distance=" << distance;
  }
}

TEST(Fig14IntegrationTest, ReceiverOrderingMatchesThePaper) {
  // Fig. 14: at 6-7 m the USRP receiver loses the emulated frames while the
  // commodity receiver still decodes everything.
  dsp::Rng rng(206);
  const auto frames = workload();
  LinkConfig usrp_attack;
  usrp_attack.kind = LinkKind::emulated;
  usrp_attack.environment = channel::Environment::real_world(7.0);
  usrp_attack.profile = zigbee::ReceiverProfile::usrp();
  LinkConfig commodity_attack = usrp_attack;
  commodity_attack.profile = zigbee::ReceiverProfile::cc26x2r1();
  const double usrp_per =
      test::run_frames(Link(usrp_attack), frames, 25, rng).packet_error_rate();
  const double commodity_per =
      test::run_frames(Link(commodity_attack), frames, 25, rng).packet_error_rate();
  EXPECT_GT(usrp_per, 0.5);
  EXPECT_LT(commodity_per, 0.15);
}

TEST(LinkTest, CleanWaveformIsUnitPowerForBothKinds) {
  const auto frames = workload();
  for (LinkKind kind : {LinkKind::authentic, LinkKind::emulated}) {
    LinkConfig config;
    config.kind = kind;
    const cvec wave = Link(config).clean_waveform(frames[0]);
    EXPECT_NEAR(dsp::average_power(wave), 1.0, 1e-9);
  }
}

}  // namespace
}  // namespace ctc::sim
