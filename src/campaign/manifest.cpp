#include "campaign/manifest.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <unordered_set>

#include "dsp/rng.h"
#include "zigbee/oqpsk.h"

namespace ctc::campaign {

namespace {

[[noreturn]] void fail_io(const std::string& path, const char* what) {
  throw ManifestError("manifest: " + std::string(what) + " " + path + ": " +
                      std::strerror(errno));
}

std::string parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

void fsync_path(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return;  // best effort (some filesystems refuse dir opens)
  ::fsync(fd);
  ::close(fd);
}

// Exclusive advisory lock on `<manifest>.lock`, held for the duration of a
// load-merge-save checkpoint. flock() is per open file description, so it
// also serializes concurrent checkpoints from threads of one process.
class ManifestLock {
 public:
  explicit ManifestLock(const std::string& manifest_path) {
    const std::string lock_path = manifest_path + ".lock";
    fd_ = ::open(lock_path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (fd_ < 0) fail_io(lock_path, "cannot open lock file");
    while (::flock(fd_, LOCK_EX) != 0) {
      if (errno != EINTR) {
        ::close(fd_);
        fail_io(lock_path, "cannot lock");
      }
    }
  }
  ManifestLock(const ManifestLock&) = delete;
  ManifestLock& operator=(const ManifestLock&) = delete;
  ~ManifestLock() { ::close(fd_); }  // closing releases the flock

 private:
  int fd_ = -1;
};

}  // namespace

Json Manifest::to_json() const {
  Json out = Json::object();
  out.set("manifest_schema", Json(kSchemaVersion));
  out.set("campaign", Json(campaign));
  out.set("fingerprint", Json(fingerprint));
  out.set("units_total", Json(units_total));
  Json units = Json::array();
  for (const CompletedUnit& unit : completed) {
    Json entry = Json::object();
    entry.set("id", Json(unit.id));
    entry.set("index", Json(unit.index));
    entry.set("result", unit.result);
    units.push_back(std::move(entry));
  }
  out.set("completed", std::move(units));
  return out;
}

Manifest Manifest::from_json(const Json& json) {
  const Json& schema = json.at("manifest_schema");
  if (!schema.is_integer() || schema.as_int() != kSchemaVersion) {
    throw ManifestError("manifest: unsupported manifest_schema");
  }
  Manifest manifest;
  manifest.campaign = json.at("campaign").as_string();
  manifest.fingerprint = json.at("fingerprint").as_string();
  manifest.units_total = static_cast<std::size_t>(json.at("units_total").as_uint());
  for (const Json& entry : json.at("completed").as_array()) {
    CompletedUnit unit;
    unit.id = entry.at("id").as_string();
    unit.index = static_cast<std::size_t>(entry.at("index").as_uint());
    unit.result = entry.at("result");
    manifest.completed.push_back(std::move(unit));
  }
  return manifest;
}

std::string spec_fingerprint(const CampaignSpec& spec) {
  // Units simulated under another noise stream or decoded by another
  // discriminator are another experiment, so both ids are part of the key:
  // such a manifest must not resume.
  const std::string canonical = spec.to_json().dump() + "\nnoise_stream=" +
                                std::to_string(dsp::kNoiseStream) +
                                "\ndiscriminator=" +
                                std::to_string(zigbee::kDiscriminator);
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a 64
  for (unsigned char c : canonical) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  char buffer[20];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

void write_file_atomic(const std::string& path, const std::string& content) {
  // Per-writer temp name: concurrent writers of one path (shard processes
  // sharing --out, or threads within one) must never interleave into a
  // shared temp file. pid disambiguates processes, the counter threads.
  static std::atomic<unsigned long> counter{0};
  // The pid names a TEMP FILE only — it never reaches manifest/report
  // content, so checkpoint artifacts stay byte-identical across processes.
  const std::string temp =
      path + ".tmp." +
      std::to_string(static_cast<long>(::getpid())) +  // ctc-lint: allow(rng)
      "." + std::to_string(counter.fetch_add(1));
  std::FILE* file = std::fopen(temp.c_str(), "w");
  if (file == nullptr) fail_io(temp, "cannot open");
  const bool wrote =
      std::fwrite(content.data(), 1, content.size(), file) == content.size() &&
      std::fputc('\n', file) != EOF && std::fflush(file) == 0 &&
      ::fsync(::fileno(file)) == 0;
  if (std::fclose(file) != 0 || !wrote) {
    std::remove(temp.c_str());
    fail_io(temp, "cannot write");
  }
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    std::remove(temp.c_str());
    fail_io(path, "cannot rename into");
  }
  fsync_path(parent_dir(path));
}

void save_manifest(const Manifest& manifest, const std::string& path) {
  write_file_atomic(path, manifest.to_json().dump());
}

Manifest checkpoint_manifest(const Manifest& local, const std::string& path) {
  ManifestLock lock(path);
  Manifest merged = local;
  if (auto disk = load_manifest(path)) {
    if (disk->campaign != local.campaign ||
        disk->fingerprint != local.fingerprint ||
        disk->units_total != local.units_total) {
      throw ManifestError("manifest: " + path +
                          " belongs to a different spec (fingerprint changed "
                          "underneath a running campaign)");
    }
    // Disk entries win (other processes own them); keep their completion
    // order, then append this process's units they have not seen yet.
    merged.completed = std::move(disk->completed);
    std::unordered_set<std::size_t> on_disk;
    for (const CompletedUnit& unit : merged.completed) on_disk.insert(unit.index);
    for (const CompletedUnit& unit : local.completed) {
      if (on_disk.count(unit.index) == 0) merged.completed.push_back(unit);
    }
  }
  save_manifest(merged, path);
  return merged;
}

std::optional<Manifest> load_manifest(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return std::nullopt;
  std::string content;
  char buffer[4096];
  std::size_t read;
  while ((read = std::fread(buffer, 1, sizeof buffer, file)) > 0) {
    content.append(buffer, read);
  }
  std::fclose(file);
  try {
    return Manifest::from_json(Json::parse(content));
  } catch (const JsonError& error) {
    throw ManifestError("manifest: " + path + " is corrupt: " + error.what());
  }
}

}  // namespace ctc::campaign
