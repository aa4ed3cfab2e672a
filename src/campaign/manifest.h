// On-disk campaign checkpoint: the resume manifest.
//
// The executor checkpoints after every completed work unit through a
// load-merge-save cycle serialized by an exclusive flock on
// `manifest.json.lock`: reload the on-disk manifest, merge in this
// process's newly completed units, and rewrite it via the classic
// crash-safe sequence (write to a per-process temp file in the same
// directory, fsync the file, rename() over the target, fsync the
// directory). A campaign killed at any point therefore resumes from the
// last completed unit with no torn or half-written state, concurrent shard
// processes sharing one output directory never lose each other's progress,
// and — because unit randomness is keyed by planner-assigned run indices,
// not execution order — the resumed run's aggregates are bit-identical to
// an uninterrupted one.
//
// The manifest is bound to its spec by a fingerprint over the canonical
// spec JSON, the noise-stream id (dsp::kNoiseStream) and the discriminator
// id (zigbee::kDiscriminator), so resuming with a modified spec, or with a
// binary on another noise stream or discriminator, is rejected instead of
// silently mixing incompatible partial results.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/json.h"
#include "campaign/spec.h"

namespace ctc::campaign {

class ManifestError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct CompletedUnit {
  std::string id;
  std::size_t index = 0;
  Json result;
};

struct Manifest {
  static constexpr std::int64_t kSchemaVersion = 1;

  std::string campaign;     ///< spec name
  std::string fingerprint;  ///< spec_fingerprint() of the owning spec
  std::size_t units_total = 0;
  std::vector<CompletedUnit> completed;  ///< in completion order

  Json to_json() const;
  static Manifest from_json(const Json& json);
};

/// FNV-1a 64 over the canonical spec JSON followed by
/// "\nnoise_stream=<dsp::kNoiseStream>\ndiscriminator=<zigbee::kDiscriminator>"
/// — the resume compatibility key.
std::string spec_fingerprint(const CampaignSpec& spec);

/// Atomically replaces `path` with the serialized manifest (temp file +
/// fsync + rename + directory fsync). Throws ManifestError on I/O failure.
void save_manifest(const Manifest& manifest, const std::string& path);

/// Loads a manifest; std::nullopt when `path` does not exist. Throws
/// ManifestError when the file exists but cannot be parsed.
std::optional<Manifest> load_manifest(const std::string& path);

/// Checkpoints `local` into `path` with a load-merge-save cycle under an
/// exclusive flock on `path + ".lock"`, so any number of shard processes
/// (or threads) sharing one output directory never lose each other's
/// completed units. Disk entries win on index collision; the returned
/// manifest is the merged view, including units completed by other
/// processes. Throws ManifestError when the on-disk manifest belongs to a
/// different spec.
Manifest checkpoint_manifest(const Manifest& local, const std::string& path);

/// Writes `content` + '\n' to `path` via the same atomic sequence (shared
/// by the artifact store for report/CSV files).
void write_file_atomic(const std::string& path, const std::string& content);

}  // namespace ctc::campaign
