// Perf — the sentry service under load: sustained streaming throughput,
// verdict latency percentiles through a free-running SPSC producer/consumer
// pair, and the deterministic overload drop rate.
//
//   $ ./perf_sentry --json | tail -n1 > BENCH_perf_sentry.json
//
// Like perf_engine/perf_hotpath this JSON intentionally contains wall
// times — do not use it in the CI determinism diff (the deterministic
// verdict-stream property has its own gate, tools/sentry_determinism.sh).
// Reported fields:
//   * sustained_msamples_per_sec — lockstep replay rate of one channel
//     (ingest + ring + frame sync + detector, no pacing);
//   * sharded_msamples_per_sec   — aggregate rate of 4 channels sharded
//     across worker threads;
//     each is the median of kRateRuns back-to-back service runs (one run
//     can swing by a third on a busy host), with the extremes in
//     *_min / *_max;
//   * latency_p50_ms/latency_p99_ms — push-to-verdict latency with a
//     free-running producer thread paced to ~2/3 of the sustained rate,
//     measured from the ring push of the frame's last sample to the verdict
//     callback on the consumer thread;
//   * overload_drop_rate — fraction dropped when the drain rate is pinned
//     to 1/4 of the ingest rate (a pure function of the configuration: the
//     same run always drops the same samples).
#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "sentry/service.h"
#include "sim/telemetry.h"

using namespace ctc;

namespace {

using Clock = std::chrono::steady_clock;

sentry::LinkSourceConfig traffic_config(std::uint64_t seed) {
  sentry::LinkSourceConfig config;
  config.environment = channel::Environment::awgn(15.0);
  config.frames = 10;
  config.attack_every = 3;
  config.gap_samples = 700;
  config.seed = seed;
  return config;
}

cvec collect_capture(const sentry::LinkSourceConfig& config) {
  sentry::LinkSource source(config, 0);
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

/// Service runs per throughput section; the report takes their median.
constexpr std::size_t kRateRuns = 5;

/// Throughput of kRateRuns back-to-back runs of a service, sorted
/// ascending, in Msamples/s.
struct Rates {
  std::vector<double> msps;
  double samples = 0.0;

  double median() const { return msps[msps.size() / 2]; }
};

Rates service_rates(const sentry::ServiceConfig& config,
                    const sentry::SentryService::SourceFactory& factory) {
  Rates rates;
  for (std::size_t run = 0; run < kRateRuns; ++run) {
    sentry::SentryService service(config, factory);
    const auto start = Clock::now();
    const sentry::ServiceReport result = service.run();
    const double seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    rates.samples = static_cast<double>(result.total_ingested());
    rates.msps.push_back(rates.samples / seconds / 1e6);
  }
  std::sort(rates.msps.begin(), rates.msps.end());
  return rates;
}

/// Reports `key` as the median rate, with `key`_min and `key`_max, and
/// adds the table row.
void report_rates(bench::JsonReport& report, sim::Table& table,
                  const std::string& key, const std::string& label,
                  const Rates& rates) {
  report.set(key, rates.median());
  report.set(key + "_min", rates.msps.front());
  report.set(key + "_max", rates.msps.back());
  table.add_row({label, sim::Table::num(rates.samples, 0),
                 sim::Table::num(rates.samples / rates.median() / 1e3, 1) +
                     " ms (median of " + std::to_string(kRateRuns) + ")",
                 sim::Table::num(rates.median(), 2) + " Msamples/s [" +
                     sim::Table::num(rates.msps.front(), 2) + "-" +
                     sim::Table::num(rates.msps.back(), 2) + "]"});
}

double percentile(std::vector<double>& sorted_values, double p) {
  if (sorted_values.empty()) return 0.0;
  const std::size_t index = std::min(
      sorted_values.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(sorted_values.size())));
  return sorted_values[index];
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options options = bench::parse_options(argc, argv);
  bench::print_banner(options, "Perf: sentry streaming service (throughput / "
                               "latency / overload)");
  bench::JsonReport report(options, "perf_sentry");

  const cvec capture = collect_capture(traffic_config(options.seed));
  const std::size_t repeat = options.trials_or(40);
  report.set("capture_samples", static_cast<std::uint64_t>(capture.size()));
  report.set("replay_repeat", static_cast<std::uint64_t>(repeat));

  sim::Table table({"scenario", "samples", "wall", "rate / result"});

  // -- sustained lockstep throughput, one channel ---------------------------
  const auto replay_factory = [&capture, repeat](std::size_t) {
    return std::make_unique<sentry::ReplaySource>(capture, repeat);
  };
  const Rates sustained = service_rates({}, replay_factory);
  const double sustained_msps = sustained.median();
  report_rates(report, table, "sustained_msamples_per_sec",
               "sustained (1 channel)", sustained);

  // -- aggregate throughput, 4 channels sharded -----------------------------
  {
    sentry::ServiceConfig config;
    config.channels = 4;
    config.shards = options.threads != 0 ? options.threads : 4;
    report_rates(report, table, "sharded_msamples_per_sec",
                 "sharded (4 channels)", service_rates(config, replay_factory));
  }

  // -- verdict latency through a free-running producer/consumer pair --------
  // The producer pushes paced blocks (~2/3 of the sustained rate, so the
  // queue stays shallow and latency reflects processing, not saturation)
  // and stamps each block's push-completion time; the consumer's verdict
  // callback maps the frame's last sample back to its block and takes the
  // difference. Blocking retry on a full ring means no drops, so scanner
  // stream positions equal ingest positions.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::size_t latency_verdicts = 0;
  {
    const std::size_t block_size = 2048;
    const std::size_t latency_repeat = std::max<std::size_t>(repeat / 4, 4);
    const std::size_t total_samples = capture.size() * latency_repeat;
    const std::size_t num_blocks = (total_samples + block_size - 1) / block_size;
    const double pace_sps = sustained_msps * 1e6 * 2.0 / 3.0;

    sentry::SpscRing<cplx> ring(std::size_t{1} << 16);
    std::vector<Clock::time_point> push_done(num_blocks);
    std::vector<double> latencies_ms;

    std::thread producer([&] {
      sentry::ReplaySource source(capture, latency_repeat);
      cvec block(block_size);
      const auto start = Clock::now();
      std::uint64_t released = 0;
      std::size_t index = 0;
      while (true) {
        const std::size_t got = source.next_block(block);
        if (got == 0) break;
        released += got;
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(released) / pace_sps)));
        std::span<const cplx> rest(block.data(), got);
        while (!rest.empty()) {
          rest = rest.subspan(ring.try_push(rest));  // blocking retry
        }
        push_done[index++] = Clock::now();
      }
    });

    sentry::StreamScanner scanner(
        {}, 0, [&](const sentry::VerdictRecord& record) {
          const auto now = Clock::now();
          const std::size_t last_sample =
              record.stream_position + record.frame_samples - 1;
          const auto pushed = push_done[last_sample / block_size];
          latencies_ms.push_back(
              std::chrono::duration<double, std::milli>(now - pushed).count());
        });
    cvec drain(block_size);
    std::uint64_t consumed = 0;
    while (consumed < total_samples) {
      const std::size_t got = ring.try_pop(std::span<cplx>(drain));
      if (got == 0) continue;  // spin: the SPSC pair never sleeps on empty
      consumed += got;
      scanner.push(std::span<const cplx>(drain.data(), got), ring.size(), 0);
    }
    producer.join();
    scanner.flush();

    std::sort(latencies_ms.begin(), latencies_ms.end());
    latency_verdicts = latencies_ms.size();
    p50_ms = percentile(latencies_ms, 0.50);
    p99_ms = percentile(latencies_ms, 0.99);
    table.add_row({"latency (paced producer)",
                   sim::Table::num(static_cast<double>(total_samples), 0),
                   sim::Table::num(static_cast<double>(latency_verdicts), 0) +
                       " verdicts",
                   "p50 " + sim::Table::num(p50_ms, 3) + " ms, p99 " +
                       sim::Table::num(p99_ms, 3) + " ms"});
  }
  report.set("latency_verdicts", static_cast<std::uint64_t>(latency_verdicts));
  report.set("latency_p50_ms", p50_ms);
  report.set("latency_p99_ms", p99_ms);

  // -- deterministic overload drop rate -------------------------------------
  double drop_rate = 0.0;
  {
    sentry::ServiceConfig config;
    config.channel.ring_capacity = std::size_t{1} << 10;
    config.channel.ingest_block = 1024;
    config.channel.drain_block = 256;  // drain pinned to 1/4 of ingest
    const sentry::ServiceReport result =
        sentry::SentryService(config, replay_factory).run();
    const sentry::ChannelReport& channel = result.channels[0];
    drop_rate = static_cast<double>(channel.dropped) /
                static_cast<double>(channel.ingested);
    table.add_row({"overload (drain = ingest/4)",
                   sim::Table::num(static_cast<double>(channel.ingested), 0),
                   sim::Table::num(static_cast<double>(channel.dropped), 0) +
                       " dropped",
                   sim::Table::num(100.0 * drop_rate, 2) + " % drop rate"});
  }
  report.set("overload_drop_rate", drop_rate);

  // -- per-stage time breakdown ---------------------------------------------
  // Where an ingested sample's nanoseconds go: the sentry/{scan,decode,
  // classify,write}_ns telemetry timers (docs/TELEMETRY.md) over one more
  // single-channel replay, normalized per ingested sample. Telemetry is
  // force-enabled just for this run (its overhead stays out of the
  // throughput numbers above); sums are deltas against the collector's
  // prior state, so a --telemetry run's earlier sections don't bleed in.
  {
    const auto timer_sum = [](const std::vector<sim::telemetry::MetricValue>&
                                  metrics,
                              const char* name) {
      for (const sim::telemetry::MetricValue& metric : metrics) {
        if (metric.stage == "sentry" && metric.name == name) {
          return metric.cell.sum;
        }
      }
      return 0.0;
    };
    const bool was_enabled = sim::telemetry::enabled();
    sim::telemetry::set_enabled(true);
    const auto before = sim::telemetry::collect();
    sentry::ServiceConfig config;
    const sentry::ServiceReport result =
        sentry::SentryService(config, replay_factory).run();
    const auto after = sim::telemetry::collect();
    sim::telemetry::set_enabled(was_enabled);

    const double samples = static_cast<double>(result.total_ingested());
    for (const char* stage :
         {"scan_ns", "decode_ns", "classify_ns", "write_ns"}) {
      const double ns = timer_sum(after, stage) - timer_sum(before, stage);
      const double per_sample = samples > 0.0 ? ns / samples : 0.0;
      report.set(std::string("stage_") + stage + "_per_sample", per_sample);
      table.add_row({std::string("stage: sentry/") + stage,
                     sim::Table::num(samples, 0),
                     sim::Table::num(ns / 1e6, 1) + " ms",
                     sim::Table::num(per_sample, 2) + " ns/sample"});
    }
  }

  table.print();
  bench::finish(report, options);
  return 0;
}
