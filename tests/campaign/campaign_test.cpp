#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "campaign/executor.h"
#include "campaign/manifest.h"
#include "campaign/plan.h"
#include "campaign/spec.h"

namespace ctc::campaign {
namespace {

std::string tiny_attack_spec_text() {
  return R"({"schema":1,"name":"tiny","experiment":"attack_success",)"
         R"("workload_frames":4,"trials":2,"authentic_trials":2,)"
         R"("grid":[{"axis":"snr_db","list":[7,17]}]})";
}

std::string tiny_threshold_spec_text(bool fixed_threshold) {
  std::string text =
      R"({"schema":1,"name":"tinyq","experiment":"threshold_sweep",)"
      R"("workload_frames":4,"train_trials":2,"test_trials":2,)";
  if (fixed_threshold) text += R"("threshold":6.0,)";
  text += R"("grid":[{"axis":"snr_db","list":[17]}]})";
  return text;
}

std::string fresh_dir(const std::string& tag) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / ("campaign_" + tag))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(CampaignPlanTest, AttackSuccessUnitsAreGloballySequential) {
  const CampaignSpec spec = CampaignSpec::parse(tiny_attack_spec_text());
  const CampaignPlan plan = plan_campaign(spec);
  ASSERT_EQ(plan.stages.size(), 1u);
  ASSERT_EQ(plan.units_total, 4u);
  std::size_t expected = 0;
  for (const WorkUnit& unit : plan.stages[0]) {
    EXPECT_EQ(unit.index, expected);
    EXPECT_EQ(unit.run_index, expected);  // index == run family by design
    EXPECT_EQ(unit.role, expected % 2 == 0 ? "attack" : "authentic");
    EXPECT_EQ(unit.trials, 2u);
    ++expected;
  }
  EXPECT_EQ(plan.stages[0][0].id, "u0000.attack.snr_db=7");
  EXPECT_EQ(plan.stages[0][3].id, "u0003.authentic.snr_db=17");
}

TEST(CampaignPlanTest, PlanningIsDeterministic) {
  const CampaignSpec spec = CampaignSpec::parse(tiny_attack_spec_text());
  const CampaignPlan a = plan_campaign(spec);
  const CampaignPlan b = plan_campaign(spec);
  ASSERT_EQ(a.units_total, b.units_total);
  for (std::size_t s = 0; s < a.stages.size(); ++s) {
    for (std::size_t u = 0; u < a.stages[s].size(); ++u) {
      EXPECT_EQ(a.stages[s][u].id, b.stages[s][u].id);
      EXPECT_EQ(a.stages[s][u].run_index, b.stages[s][u].run_index);
    }
  }
}

TEST(CampaignPlanTest, ThresholdSweepHasTrainingStageUnlessFixed) {
  const CampaignSpec calibrated =
      CampaignSpec::parse(tiny_threshold_spec_text(false));
  const CampaignPlan two_stage = plan_campaign(calibrated);
  ASSERT_EQ(two_stage.stages.size(), 2u);
  EXPECT_EQ(two_stage.units_total, 4u);
  // Run indices stay sequential across the stage boundary.
  EXPECT_EQ(two_stage.stages[1][0].run_index, two_stage.stages[0].size());

  const CampaignSpec fixed = CampaignSpec::parse(tiny_threshold_spec_text(true));
  const CampaignPlan one_stage = plan_campaign(fixed);
  ASSERT_EQ(one_stage.stages.size(), 1u);
  EXPECT_EQ(one_stage.units_total, 2u);
}

TEST(CampaignPlanTest, RejectsUnknownExperimentAndAxes) {
  CampaignSpec unknown = CampaignSpec::parse(tiny_attack_spec_text());
  unknown.experiment = "no_such_experiment";
  EXPECT_THROW(plan_campaign(unknown), SpecError);

  EXPECT_THROW(
      plan_campaign(CampaignSpec::parse(
          R"({"schema":1,"name":"t","experiment":"attack_success",)"
          R"("grid":[{"axis":"bogus_axis","list":[1]}]})")),
      SpecError);
  // threshold_sweep only understands snr_db.
  EXPECT_THROW(
      plan_campaign(CampaignSpec::parse(
          R"({"schema":1,"name":"t","experiment":"threshold_sweep",)"
          R"("grid":[{"axis":"trials","list":[2]}]})")),
      SpecError);
}

TEST(CampaignManifestTest, RoundTripsThroughJsonAndDisk) {
  Manifest manifest;
  manifest.campaign = "tiny";
  manifest.fingerprint = "deadbeefdeadbeef";
  manifest.units_total = 4;
  manifest.completed.push_back(
      CompletedUnit{"u0000.attack", 0, Json::parse(R"({"successes":1})")});
  const Manifest reparsed = Manifest::from_json(manifest.to_json());
  EXPECT_EQ(reparsed.campaign, "tiny");
  EXPECT_EQ(reparsed.fingerprint, "deadbeefdeadbeef");
  EXPECT_EQ(reparsed.units_total, 4u);
  ASSERT_EQ(reparsed.completed.size(), 1u);
  EXPECT_EQ(reparsed.completed[0].id, "u0000.attack");
  EXPECT_EQ(reparsed.completed[0].result.dump(), R"({"successes":1})");

  const std::string dir = fresh_dir("manifest");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/manifest.json";
  EXPECT_FALSE(load_manifest(path).has_value());
  save_manifest(manifest, path);
  const auto loaded = load_manifest(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->to_json().dump(), manifest.to_json().dump());

  write_file_atomic(path, "not json");
  EXPECT_THROW(load_manifest(path), ManifestError);
}

TEST(CampaignManifestTest, CheckpointMergesConcurrentWriters) {
  const std::string dir = fresh_dir("merge");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/manifest.json";

  // Two writers with disjoint completed sets, as two shard processes that
  // each loaded an empty manifest would hold them.
  Manifest a;
  a.campaign = "tiny";
  a.fingerprint = "feedfacefeedface";
  a.units_total = 4;
  a.completed.push_back(CompletedUnit{"u0", 0, Json::parse(R"({"s":1})")});
  Manifest b = a;
  b.completed.clear();
  b.completed.push_back(CompletedUnit{"u1", 1, Json::parse(R"({"s":2})")});

  const Manifest after_a = checkpoint_manifest(a, path);
  EXPECT_EQ(after_a.completed.size(), 1u);
  // b's checkpoint must not lose a's unit, and must hand b the merged view.
  const Manifest after_b = checkpoint_manifest(b, path);
  ASSERT_EQ(after_b.completed.size(), 2u);
  EXPECT_EQ(after_b.completed[0].index, 0u);
  EXPECT_EQ(after_b.completed[1].index, 1u);
  const auto on_disk = load_manifest(path);
  ASSERT_TRUE(on_disk.has_value());
  EXPECT_EQ(on_disk->completed.size(), 2u);

  // Re-checkpointing a stale view (a never saw b's unit) stays lossless.
  const Manifest after_a2 = checkpoint_manifest(a, path);
  EXPECT_EQ(after_a2.completed.size(), 2u);

  // A writer for a different spec is rejected instead of merged.
  Manifest other = a;
  other.fingerprint = "0000000000000000";
  EXPECT_THROW(checkpoint_manifest(other, path), ManifestError);
}

TEST(CampaignManifestTest, FingerprintTracksSpecContent) {
  const CampaignSpec spec = CampaignSpec::parse(tiny_attack_spec_text());
  CampaignSpec modified = spec;
  modified.trials = 3;
  EXPECT_EQ(spec_fingerprint(spec), spec_fingerprint(spec));
  EXPECT_NE(spec_fingerprint(spec), spec_fingerprint(modified));
}

TEST(CampaignExecutorTest, ThreadAndShardPartitionsAreBitIdentical) {
  const CampaignSpec spec = CampaignSpec::parse(tiny_attack_spec_text());

  ExecutorOptions reference;
  reference.out_dir = fresh_dir("ref");
  reference.threads = 1;
  reference.quiet = true;
  const CampaignOutcome ref = run_campaign(spec, reference);
  ASSERT_TRUE(ref.complete);
  EXPECT_EQ(ref.units_total, 4u);
  EXPECT_EQ(ref.units_run, 4u);
  EXPECT_FALSE(ref.report_json.empty());

  ExecutorOptions threaded;
  threaded.out_dir = fresh_dir("threaded");
  threaded.threads = 4;
  threaded.quiet = true;
  EXPECT_EQ(run_campaign(spec, threaded).report_json, ref.report_json);

  // Two shards into one directory: shard 1 first (out of order), then 0.
  ExecutorOptions sharded;
  sharded.out_dir = fresh_dir("sharded");
  sharded.shards = 2;
  sharded.quiet = true;
  sharded.shard = 1;
  const CampaignOutcome partial = run_campaign(spec, sharded);
  EXPECT_FALSE(partial.complete);
  EXPECT_EQ(partial.units_run, 2u);
  sharded.shard = 0;
  const CampaignOutcome merged = run_campaign(spec, sharded);
  ASSERT_TRUE(merged.complete);
  EXPECT_EQ(merged.report_json, ref.report_json);
}

TEST(CampaignExecutorTest, ConcurrentShardsShareOneOutputDirectory) {
  const CampaignSpec spec = CampaignSpec::parse(tiny_attack_spec_text());

  ExecutorOptions reference;
  reference.out_dir = fresh_dir("conc_ref");
  reference.threads = 1;
  reference.quiet = true;
  const CampaignOutcome ref = run_campaign(spec, reference);
  ASSERT_TRUE(ref.complete);

  // Both shards run simultaneously into one directory; the flock'd
  // load-merge-save checkpoint must not lose either side's units,
  // whichever interleaving the scheduler picks.
  const std::string out = fresh_dir("conc");
  auto run_shard = [&](std::size_t shard) {
    ExecutorOptions options;
    options.out_dir = out;
    options.shards = 2;
    options.shard = shard;
    options.threads = 1;
    options.quiet = true;
    return run_campaign(spec, options);
  };
  CampaignOutcome outcomes[2];
  std::thread worker([&] { outcomes[1] = run_shard(1); });
  outcomes[0] = run_shard(0);
  worker.join();

  // Depending on timing either shard (or neither) observes the full result
  // set and completes; a final merge pass always does, without re-running
  // any unit.
  ExecutorOptions merge_options;
  merge_options.out_dir = out;
  merge_options.quiet = true;
  const CampaignOutcome merged = run_campaign(spec, merge_options);
  ASSERT_TRUE(merged.complete);
  EXPECT_EQ(merged.units_run, 0u);
  EXPECT_EQ(outcomes[0].units_run + outcomes[1].units_run, 4u);
  EXPECT_EQ(merged.report_json, ref.report_json);
}

TEST(CampaignExecutorTest, KillAndResumeReproducesUninterruptedRun) {
  const CampaignSpec spec = CampaignSpec::parse(tiny_attack_spec_text());

  ExecutorOptions reference;
  reference.out_dir = fresh_dir("resume_ref");
  reference.quiet = true;
  const CampaignOutcome ref = run_campaign(spec, reference);
  ASSERT_TRUE(ref.complete);

  ExecutorOptions interrupted;
  interrupted.out_dir = fresh_dir("resume");
  interrupted.max_units = 1;  // checkpoint once, then "die"
  interrupted.quiet = true;
  const CampaignOutcome first = run_campaign(spec, interrupted);
  EXPECT_FALSE(first.complete);
  EXPECT_EQ(first.units_run, 1u);
  EXPECT_EQ(first.units_done, 1u);

  interrupted.max_units = 0;
  interrupted.threads = 4;  // resume may even use a different thread count
  const CampaignOutcome resumed = run_campaign(spec, interrupted);
  ASSERT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.units_run, 3u);
  EXPECT_EQ(resumed.report_json, ref.report_json);

  // Artifacts landed and match the outcome.
  const std::string report = slurp(interrupted.out_dir + "/report.json");
  EXPECT_EQ(report, ref.report_json + "\n");
  const std::string csv = slurp(interrupted.out_dir + "/cells.csv");
  EXPECT_NE(csv.find("index,stage,id,run_index,role,trials,snr_db"),
            std::string::npos);
  EXPECT_NE(csv.find("u0000.attack.snr_db=7"), std::string::npos);
}

TEST(CampaignExecutorTest, RejectsManifestFromDifferentSpec) {
  const CampaignSpec spec = CampaignSpec::parse(tiny_attack_spec_text());
  ExecutorOptions options;
  options.out_dir = fresh_dir("mismatch");
  options.max_units = 1;
  options.quiet = true;
  run_campaign(spec, options);

  CampaignSpec modified = spec;
  modified.trials = 3;
  options.max_units = 0;
  EXPECT_THROW(run_campaign(modified, options), CampaignError);
}

/// FNV-1a 64 of `key` as spec_fingerprint() prints it.
std::string fnv1a_hex(const std::string& key) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char c : key) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  char buffer[20];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

/// Checkpoints one unit of `spec` into a fresh `--out`, rewrites the
/// manifest's fingerprint to `fingerprint` (an older binary's key), and
/// expects the resume to be refused.
void expect_resume_refused(const CampaignSpec& spec, const char* dir,
                           const std::string& fingerprint) {
  EXPECT_NE(spec_fingerprint(spec), fingerprint);
  ExecutorOptions options;
  options.out_dir = fresh_dir(dir);
  options.max_units = 1;
  options.quiet = true;
  run_campaign(spec, options);
  const std::string path = options.out_dir + "/manifest.json";
  Manifest manifest = *load_manifest(path);
  manifest.fingerprint = fingerprint;
  save_manifest(manifest, path);
  options.max_units = 0;
  EXPECT_THROW(run_campaign(spec, options), CampaignError);
}

TEST(CampaignExecutorTest, RejectsManifestFromAnotherNoiseStream) {
  // A checkpoint written by a binary on noise stream 1, whose fingerprint
  // was FNV-1a 64 over the canonical spec JSON alone, must not resume: its
  // units would merge with units simulated under another noise stream.
  const CampaignSpec spec = CampaignSpec::parse(tiny_attack_spec_text());
  expect_resume_refused(spec, "stream1", fnv1a_hex(spec.to_json().dump()));
}

TEST(CampaignExecutorTest, RejectsManifestFromAnotherDiscriminator) {
  // A checkpoint written by a binary on discriminator 1 (libm atan2), whose
  // key ended at the noise stream, must not resume: its DE^2 values would
  // merge with ones from another discriminator into one report.
  const CampaignSpec spec = CampaignSpec::parse(tiny_attack_spec_text());
  expect_resume_refused(
      spec, "discriminator1",
      fnv1a_hex(spec.to_json().dump() + "\nnoise_stream=2"));
}

TEST(CampaignExecutorTest, ValidatesOptions) {
  const CampaignSpec spec = CampaignSpec::parse(tiny_attack_spec_text());
  ExecutorOptions no_dir;
  EXPECT_THROW(run_campaign(spec, no_dir), CampaignError);
  ExecutorOptions bad_shards;
  bad_shards.out_dir = fresh_dir("badshards");
  bad_shards.shards = 0;
  EXPECT_THROW(run_campaign(spec, bad_shards), CampaignError);
  ExecutorOptions bad_shard;
  bad_shard.out_dir = fresh_dir("badshard");
  bad_shard.shards = 2;
  bad_shard.shard = 2;
  EXPECT_THROW(run_campaign(spec, bad_shard), CampaignError);
}

TEST(CampaignExecutorTest, ThresholdSweepCalibratesAcrossTheStageBarrier) {
  const CampaignSpec spec = CampaignSpec::parse(tiny_threshold_spec_text(false));
  ExecutorOptions reference;
  reference.out_dir = fresh_dir("q_ref");
  reference.quiet = true;
  const CampaignOutcome ref = run_campaign(spec, reference);
  ASSERT_TRUE(ref.complete);
  EXPECT_NE(ref.report_json.find("\"threshold\":"), std::string::npos);

  // Interrupt inside the training stage; the resumed run must re-derive the
  // identical calibrated threshold from the manifest.
  ExecutorOptions interrupted;
  interrupted.out_dir = fresh_dir("q_resume");
  interrupted.max_units = 1;
  interrupted.quiet = true;
  EXPECT_FALSE(run_campaign(spec, interrupted).complete);
  interrupted.max_units = 0;
  const CampaignOutcome resumed = run_campaign(spec, interrupted);
  ASSERT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.report_json, ref.report_json);
}

TEST(CampaignExecutorTest, FixedThresholdSkipsTraining) {
  const CampaignSpec spec = CampaignSpec::parse(tiny_threshold_spec_text(true));
  ExecutorOptions options;
  options.out_dir = fresh_dir("q_fixed");
  options.quiet = true;
  const CampaignOutcome outcome = run_campaign(spec, options);
  ASSERT_TRUE(outcome.complete);
  EXPECT_EQ(outcome.units_total, 2u);
  EXPECT_NE(outcome.report_json.find("\"threshold\":6"), std::string::npos);
}

}  // namespace
}  // namespace ctc::campaign
