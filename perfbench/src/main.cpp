// The repo benchmark binary (driven by perfbench/run.py).
//
//   ctc_perfbench --workload mc_awgn|mesh_fresh|sentry_stream --seed N
//                 --seconds S --trace 0|1 [--trace-file PATH]
//
// --trace 0 runs one workload with tracing off and reports its end-to-end
// metrics. --trace 1 runs the traced decomposition of every workload (each
// traced run reports every per-layer metric) and writes the spans to
// --trace-file. Stdout: a fingerprint line, then the result line
// {"correct":..,"attempted":..,"failed":..,"metrics":{..}}. Human-readable
// progress goes to stderr. Exit status 1 when any check failed, 2 on bad
// arguments.
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.h"
#include "dsp/kernels/kernels.h"
#include "workloads.h"

namespace {

using namespace perfbench;

constexpr const char* kWorkloads[] = {"mc_awgn", "mesh_fresh", "sentry_stream"};

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr,
               "ctc_perfbench: %s\nusage: ctc_perfbench --workload "
               "mc_awgn|mesh_fresh|sentry_stream --seed N --seconds S "
               "--trace 0|1 [--trace-file PATH]\n",
               message.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--trace-file") {
        options.trace_file = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  bool known = false;
  for (const char* name : kWorkloads) known = known || options.workload == name;
  if (!known) usage("unknown workload " + options.workload);
  if (!(options.seconds > 0.0 && options.seconds <= 120.0)) {
    usage("--seconds must be in (0, 120]");
  }
  return options;
}

#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

/// What a result depends on besides the code: results whose "comparable"
/// keys differ (kernel level, assertions) must not be compared.
void print_fingerprint(const Options& options) {
  const char* kernels = ctc::dsp::kernels::level_name(
      ctc::dsp::kernels::active_level());
  std::printf(
      "{\"fingerprint\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": "
      "%.17g, \"trace\": %d, \"kernels\": \"%s\", \"ndebug\": %s, \"nproc\": "
      "%u, \"threads\": {\"mc_awgn\": %zu, \"mesh_fresh\": %zu, "
      "\"sentry_stream\": %zu, \"sentry_shards\": %zu}, \"comparable\": "
      "\"kernels=%s;ndebug=%d\"}}\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0, kernels,
      kNdebug ? "true" : "false", std::thread::hardware_concurrency(),
      kMcThreads, kMeshThreads, kSentryChannels + 1, kSentryShards, kernels,
      kNdebug ? 1 : 0);
}

void print_result(const Report& report, bool correct) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& metric = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  print_fingerprint(options);
  std::fflush(stdout);

  Report report;
  if (options.trace) {
    TraceLog log;
    report.absorb(trace_mc_awgn(options, log));
    report.absorb(trace_mesh_fresh(options, log));
    report.absorb(trace_sentry_stream(options, log));
    if (!options.trace_file.empty()) {
      report.check(log.write(options.trace_file),
                   "cannot write spans to " + options.trace_file);
      std::fprintf(stderr, "perfbench: %zu spans written to %s\n",
                   log.span_count(), options.trace_file.c_str());
    }
  } else {
    if (options.workload == "mc_awgn") {
      report = run_mc_awgn(options);
    } else if (options.workload == "mesh_fresh") {
      report = run_mesh_fresh(options);
    } else {
      report = run_sentry_stream(options);
    }
    report.set("peak_rss_mb", peak_rss_mib(), "MiB");
  }
  if (report.failed > 0) {
    std::fprintf(stderr, "perfbench: %llu of %llu operations failed\n",
                 static_cast<unsigned long long>(report.failed),
                 static_cast<unsigned long long>(report.attempted));
  }
  const bool correct =
      report.checks_ok && report.failed == 0 && report.attempted > 0;
  print_result(report, correct);
  return correct ? 0 : 1;
}
