// ctc_sentry — always-on streaming detection service CLI.
//
// Runs N sentry channels (SPSC ring -> online frame sync -> streaming
// cumulant detector) sharded across worker threads, fed either by a cf32
// capture replay or by a live attack/benign traffic generator:
//
//   ctc_sentry replay --capture=air.cf32 [--repeat=N] [--rate=S]
//   ctc_sentry live   [--frames=N] [--attack-every=K] [--snr-db=X]
//                     [--capture-out=air.cf32]
//
// The verdict stream (one JSON line per decoded frame, schema in
// docs/SENTRY.md) goes to stdout or --verdicts=FILE; everything human goes
// to stderr, so `ctc_sentry replay ... > verdicts.jsonl` is clean. Replay
// verdicts are bit-identical across runs and shard counts — the CI gate
// tools/sentry_determinism.sh diffs exactly this output.
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "dsp/iq_io.h"
#include "sentry/service.h"
#include "sim/telemetry.h"

namespace {

using namespace ctc;

struct CliOptions {
  bool live = false;
  // common
  std::size_t channels = 1;
  std::size_t shards = 1;
  std::string verdicts_path;  // empty = stdout
  std::size_t ring = std::size_t{1} << 15;
  std::size_t ingest_block = 4096;
  std::size_t drain_block = 4096;
  double rate = 0.0;  // samples/sec; 0 = unthrottled
  double threshold = 0.2;
  std::size_t max_psdu = zigbee::kMaxPsduBytes;
  std::uint64_t seed = 0x5EA15EA1;
  std::uint64_t snapshot_every_ms = 0;  // 0 = no snapshots
  sentry::DrainScheduler scheduler =
      sentry::DrainScheduler::deficit_round_robin;
  bool telemetry = false;
  std::string telemetry_out;
  // replay
  std::string capture_path;
  std::size_t repeat = 1;
  // live
  std::size_t frames = 64;
  std::size_t attack_every = 3;
  double snr_db = 15.0;
  std::size_t gap = 512;
  std::size_t payload = 20;
  std::string capture_out;
};

[[noreturn]] void usage(int code) {
  std::FILE* out = code == 0 ? stdout : stderr;
  std::fputs(
      "usage: ctc_sentry <replay|live> [options]\n"
      "\n"
      "modes:\n"
      "  replay --capture=FILE   stream a cf32 IQ capture through the sentry\n"
      "  live                    synthesize an attack/benign frame mix\n"
      "\n"
      "common options:\n"
      "  --channels=N        independent channels to monitor (default 1)\n"
      "  --shards=N          worker threads channels shard across (default 1)\n"
      "  --verdicts=FILE     verdict JSONL destination (default stdout)\n"
      "  --ring=N            SPSC ring capacity in samples, power of two\n"
      "                      of at least 2 (default 32768)\n"
      "  --ingest-block=N    samples pulled from the source per step (4096)\n"
      "  --drain-block=N     samples handed to the scanner per step (4096);\n"
      "                      smaller than --ingest-block forces overload\n"
      "  --sched=MODE        drain scheduler: drr (deficit round-robin,\n"
      "                      default) or lockstep (shard-invariant overload\n"
      "                      reference; see docs/SENTRY.md)\n"
      "  --rate=S            pace ingestion to S samples/sec (default: as\n"
      "                      fast as possible)\n"
      "  --threshold=Q       detector DE^2 threshold (default 0.2)\n"
      "  --max-psdu=N        largest PSDU the scanner waits for, 1-127\n"
      "                      (default 127)\n"
      "  --seed=N            stream seed for the live generator\n"
      "  --snapshot-every-ms=N  print a live counter snapshot JSON line to\n"
      "                      stderr every N ms while running\n"
      "  --telemetry         print the per-stage telemetry summary to stderr\n"
      "  --telemetry-out=FILE  write full telemetry JSON to FILE\n"
      "\n"
      "replay options:\n"
      "  --capture=FILE      cf32 capture to replay (required)\n"
      "  --repeat=N          replay the capture N times (default 1)\n"
      "\n"
      "live options:\n"
      "  --frames=N          frames per channel (default 64)\n"
      "  --attack-every=K    every K-th frame is WiFi-emulated; 0 = none\n"
      "                      (default 3)\n"
      "  --snr-db=X          AWGN channel SNR (default 15)\n"
      "  --gap=N             idle samples between frames (default 512)\n"
      "  --payload=N         MAC payload bytes per frame, at most 116\n"
      "                      (default 20)\n"
      "  --capture-out=FILE  write channel 0's stream to a cf32 capture\n",
      out);
  std::exit(code);
}

bool flag_value(int argc, char** argv, int& i, const char* name,
                const char** out) {
  const std::size_t len = std::strlen(name);
  const char* arg = argv[i];
  if (std::strncmp(arg, name, len) != 0) return false;
  if (arg[len] == '=') {
    *out = arg + len + 1;
    return true;
  }
  if (arg[len] == '\0') {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s expects a value\n", name);
      std::exit(2);
    }
    *out = argv[++i];
    return true;
  }
  return false;
}

[[noreturn]] void invalid_value(const char* flag, const char* text) {
  std::fprintf(stderr, "invalid value for %s: %s\n", flag, text);
  std::exit(2);
}

std::uint64_t parse_u64(const char* text, const char* flag) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') invalid_value(flag, text);
  return static_cast<std::uint64_t>(value);
}

/// Every floating-point flag (--rate, --threshold, --snr-db) must be finite.
double parse_double(const char* text, const char* flag) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(value)) {
    invalid_value(flag, text);
  }
  return value;
}

CliOptions parse_cli(int argc, char** argv) {
  if (argc < 2) usage(2);
  CliOptions options;
  if (std::strcmp(argv[1], "replay") == 0) {
    options.live = false;
  } else if (std::strcmp(argv[1], "live") == 0) {
    options.live = true;
  } else if (std::strcmp(argv[1], "--help") == 0 ||
             std::strcmp(argv[1], "-h") == 0) {
    usage(0);
  } else {
    std::fprintf(stderr, "unknown mode: %s (try --help)\n", argv[1]);
    std::exit(2);
  }

  for (int i = 2; i < argc; ++i) {
    const char* value = nullptr;
    // Every range is checked here, before any output file is opened, so a
    // bad value never truncates an existing --verdicts file.
    const auto size_flag = [&](const char* name, std::size_t& field,
                               std::size_t lo = 0,
                               std::size_t hi = SIZE_MAX) {
      if (!flag_value(argc, argv, i, name, &value)) return false;
      field = static_cast<std::size_t>(parse_u64(value, name));
      if (field < lo || field > hi) invalid_value(name, value);
      return true;
    };
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      usage(0);
    } else if (std::strcmp(argv[i], "--telemetry") == 0) {
      options.telemetry = true;
    } else if (flag_value(argc, argv, i, "--telemetry-out", &value)) {
      options.telemetry_out = value;
    } else if (flag_value(argc, argv, i, "--verdicts", &value)) {
      options.verdicts_path = value;
    } else if (flag_value(argc, argv, i, "--capture", &value)) {
      options.capture_path = value;
    } else if (flag_value(argc, argv, i, "--capture-out", &value)) {
      options.capture_out = value;
    } else if (flag_value(argc, argv, i, "--rate", &value)) {
      options.rate = parse_double(value, "--rate");
    } else if (flag_value(argc, argv, i, "--threshold", &value)) {
      options.threshold = parse_double(value, "--threshold");
    } else if (flag_value(argc, argv, i, "--snr-db", &value)) {
      options.snr_db = parse_double(value, "--snr-db");
    } else if (flag_value(argc, argv, i, "--seed", &value)) {
      options.seed = parse_u64(value, "--seed");
    } else if (flag_value(argc, argv, i, "--snapshot-every-ms", &value)) {
      options.snapshot_every_ms = parse_u64(value, "--snapshot-every-ms");
    } else if (flag_value(argc, argv, i, "--sched", &value)) {
      if (std::strcmp(value, "drr") == 0) {
        options.scheduler = sentry::DrainScheduler::deficit_round_robin;
      } else if (std::strcmp(value, "lockstep") == 0) {
        options.scheduler = sentry::DrainScheduler::lockstep;
      } else {
        std::fprintf(stderr, "invalid value for --sched: %s "
                             "(drr or lockstep)\n", value);
        std::exit(2);
      }
    } else if (size_flag("--ring", options.ring, 2)) {
      if ((options.ring & (options.ring - 1)) != 0) {
        invalid_value("--ring", value);
      }
    } else if (size_flag("--channels", options.channels, 1) ||
               size_flag("--shards", options.shards, 1) ||
               size_flag("--ingest-block", options.ingest_block, 1) ||
               size_flag("--drain-block", options.drain_block, 1) ||
               size_flag("--max-psdu", options.max_psdu, 1,
                         zigbee::kMaxPsduBytes) ||
               size_flag("--repeat", options.repeat, 1) ||
               size_flag("--frames", options.frames) ||
               size_flag("--attack-every", options.attack_every) ||
               size_flag("--gap", options.gap) ||
               // MAC header and FCS take 11 of the PSDU's bytes.
               size_flag("--payload", options.payload, 0,
                         zigbee::kMaxPsduBytes - 11)) {
      // handled
    } else {
      std::fprintf(stderr, "unknown argument: %s (try --help)\n", argv[i]);
      std::exit(2);
    }
  }
  if (!options.live && options.capture_path.empty()) {
    std::fprintf(stderr, "replay mode requires --capture=FILE\n");
    std::exit(2);
  }
  return options;
}

/// Tees one channel's stream into a buffer so `live --capture-out` can
/// persist exactly what the sentry saw.
class TeeSource : public sentry::SampleSource {
 public:
  TeeSource(std::unique_ptr<sentry::SampleSource> inner, cvec& sink)
      : inner_(std::move(inner)), sink_(sink) {}

  std::size_t next_block(std::span<cplx> out) override {
    const std::size_t got = inner_->next_block(out);
    sink_.insert(sink_.end(), out.begin(),
                 out.begin() + static_cast<std::ptrdiff_t>(got));
    return got;
  }

 private:
  std::unique_ptr<sentry::SampleSource> inner_;
  cvec& sink_;
};

/// Opens an output file for writing before any sample is processed, so a
/// bad path fails at startup rather than after the whole stream. Exits 1
/// with "cannot write PATH" when the file cannot be opened.
std::optional<std::ofstream> open_output(const std::string& path,
                                         std::ios::openmode mode = {}) {
  if (path.empty()) return std::nullopt;
  std::ofstream out(path, std::ios::out | std::ios::trunc | mode);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  return out;
}

int run(const CliOptions& options) {
  sim::telemetry::set_enabled(options.telemetry ||
                              !options.telemetry_out.empty());

  sentry::ServiceConfig config;
  config.channels = options.channels;
  config.shards = options.shards;
  config.scheduler = options.scheduler;
  config.channel.ring_capacity = options.ring;
  config.channel.ingest_block = options.ingest_block;
  config.channel.drain_block = options.drain_block;
  config.channel.scanner.detector.threshold = options.threshold;
  config.channel.scanner.max_psdu_bytes = options.max_psdu;

  // Shared capture for replay mode (loaded once, reused by every channel);
  // tee sink for live --capture-out.
  std::shared_ptr<const cvec> capture;
  if (!options.live) {
    capture = std::make_shared<const cvec>(
        dsp::read_cf32(options.capture_path));
    std::fprintf(stderr, "ctc_sentry: replaying %zu samples x%zu across %zu "
                         "channel(s), %zu shard(s)\n",
                 capture->size(), options.repeat, options.channels,
                 options.shards);
  } else {
    std::fprintf(stderr, "ctc_sentry: live mix, %zu frame(s)/channel, attack "
                         "every %zu, %.1f dB SNR, %zu channel(s), %zu "
                         "shard(s)\n",
                 options.frames, options.attack_every, options.snr_db,
                 options.channels, options.shards);
  }
  auto capture_sink = std::make_shared<cvec>();
  const bool want_capture = options.live && !options.capture_out.empty();
  std::optional<std::ofstream> verdicts_file =
      open_output(options.verdicts_path);
  std::optional<std::ofstream> capture_file = open_output(
      want_capture ? options.capture_out : std::string(), std::ios::binary);
  std::optional<std::ofstream> telemetry_file =
      open_output(options.telemetry_out);

  sentry::LinkSourceConfig live_config;
  live_config.environment = channel::Environment::awgn(options.snr_db);
  live_config.frames = options.frames;
  live_config.attack_every = options.attack_every;
  live_config.gap_samples = options.gap;
  live_config.payload_bytes = options.payload;
  live_config.seed = options.seed;

  sentry::SentryService service(
      config,
      [&options, capture, live_config, capture_sink,
       want_capture](std::size_t channel)
          -> std::unique_ptr<sentry::SampleSource> {
        std::unique_ptr<sentry::SampleSource> source;
        if (capture) {
          source = std::make_unique<sentry::ReplaySource>(*capture,
                                                          options.repeat);
        } else {
          source = std::make_unique<sentry::LinkSource>(live_config, channel);
        }
        if (want_capture && channel == 0) {
          source = std::make_unique<TeeSource>(std::move(source),
                                               *capture_sink);
        }
        if (options.rate > 0.0) {
          source = std::make_unique<sentry::RateLimitedSource>(
              std::move(source), options.rate);
        }
        return source;
      });

  service.start();

  // Periodic live snapshot endpoint: one counters JSON line to stderr.
  std::thread snapshot_thread;
  std::mutex done_mutex;
  std::condition_variable done_cv;
  bool done = false;
  if (options.snapshot_every_ms > 0) {
    snapshot_thread = std::thread([&] {
      std::unique_lock<std::mutex> lock(done_mutex);
      while (!done_cv.wait_for(
          lock, std::chrono::milliseconds(options.snapshot_every_ms),
          [&] { return done; })) {
        std::fprintf(stderr, "%s\n",
                     service.counters().snapshot_json().c_str());
      }
    });
  }

  const sentry::ServiceReport report = service.join();
  if (snapshot_thread.joinable()) {
    {
      const std::lock_guard<std::mutex> lock(done_mutex);
      done = true;
    }
    done_cv.notify_all();
    snapshot_thread.join();
  }

  // Verdict stream: stdout by default, or --verdicts=FILE.
  if (verdicts_file) {
    if (!(*verdicts_file << report.verdicts_jsonl).flush()) {
      std::fprintf(stderr, "cannot write %s\n", options.verdicts_path.c_str());
      return 1;
    }
  } else {
    std::fputs(report.verdicts_jsonl.c_str(), stdout);
  }

  if (capture_file) {
    dsp::write_cf32(*capture_file, *capture_sink);
    std::fprintf(stderr, "capture written to %s (%zu samples)\n",
                 options.capture_out.c_str(), capture_sink->size());
  }

  std::fprintf(stderr,
               "%s\n"
               "ctc_sentry: %" PRIu64 " samples in, %" PRIu64 " dropped, %"
               PRIu64 " verdict(s), %" PRIu64 " attack(s)\n",
               service.counters().snapshot_json().c_str(),
               report.total_ingested(), report.total_dropped(),
               report.total_verdicts(), report.total_attacks());

  if (sim::telemetry::enabled()) {
    const auto metrics = sim::telemetry::collect();
    const std::string deterministic =
        sim::telemetry::to_json(metrics, /*include_timers=*/false);
    std::fprintf(stderr, "%s\n", deterministic.c_str());
    if (telemetry_file) {
      const std::string full =
          sim::telemetry::to_json(metrics, /*include_timers=*/true);
      if (!(*telemetry_file << full << '\n').flush()) {
        std::fprintf(stderr, "cannot write %s\n",
                     options.telemetry_out.c_str());
        return 1;
      }
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions options = parse_cli(argc, argv);
  // Whatever parse_cli cannot check, such as an unreadable or odd-length
  // capture, fails here with one line instead of an abort.
  try {
    return run(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ctc_sentry: %s\n", error.what());
    return 1;
  }
}
