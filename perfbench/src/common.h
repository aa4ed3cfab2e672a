// Shared plumbing of the repo benchmark: the one clock, run options, the
// result record every workload fills, robust statistics, and the in-memory
// span log of the traced run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// -- Clock --------------------------------------------------------------------

/// Monotonic nanoseconds since an arbitrary epoch. Every timing in the
/// benchmark goes through this and sleep_until_ns().
std::int64_t now_ns();

/// Sleeps until now_ns() >= deadline_ns.
void sleep_until_ns(std::int64_t deadline_ns);

inline double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

// -- Inputs -------------------------------------------------------------------

/// SplitMix64: the benchmark's own input generator. Inputs come from the
/// --seed alone, never from the library's RNG, so two versions of the
/// library under comparison receive the same inputs.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound).
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

 private:
  std::uint64_t state_;
};

// -- Options and results ------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_file;  ///< where the traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced: operation counts, check status and
/// metrics, in the order they were set.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool checks_ok = true;  ///< bit-identity and bookkeeping checks
  std::vector<Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit);
  /// Records a failed check (printed to stderr) without aborting the run.
  void check(bool ok, const std::string& what);
  /// Adds another report's counts, check status and metrics.
  void absorb(const Report& other);
};

// -- Statistics -------------------------------------------------------------

double median(std::vector<double> values);
/// Nearest-rank percentile, p in [0, 1].
double percentile(std::vector<double> values, double p);

/// Rounds a run's throughput and call latency are taken from.
inline constexpr std::size_t kFastRounds = 3;

/// Median duration of the kFastRounds fastest rounds of equal work (all
/// rounds when there are fewer). Host contention only ever stretches a
/// round, and on a shared host it comes and goes in phases of seconds to
/// minutes, so the fastest rounds show the code's speed while the median
/// of all rounds mostly shows the phase the run fell in.
double fast_round_seconds(std::vector<double> round_seconds);

/// Verdicts per latency segment: a p99 over one segment has ten beyond it.
inline constexpr std::size_t kLatencySegment = 1000;

/// Verdict latencies in time order, summarized per segment of
/// kLatencySegment consecutive values: p50() and p99() are medians over
/// segments of each segment's percentile, so a burst of host stalls moves
/// one segment's tail, not the reported one. A trailing partial segment
/// counts only when no segment is complete. Memory stays constant however
/// long the run, so peak RSS does not depend on the host's speed.
class LatencySegments {
 public:
  void add(double ms);
  std::size_t count() const { return count_; }
  double p50() const;
  double p99() const;

 private:
  std::vector<double> open_;  ///< the segment being filled
  std::vector<double> p50s_, p99s_;
  std::size_t count_ = 0;
};

/// Peak resident set size of this process (VmHWM), MiB.
double peak_rss_mib();

/// The median over `samples` timings of `builds` back-to-back calls of
/// `build`, in wall seconds per call. Set-ups too short to time one by one
/// are timed in aggregate. The object built last is kept in `out`.
template <class T, class Build>
double median_setup_seconds(int samples, int builds, T& out, Build&& build) {
  std::vector<double> seconds;
  for (int i = 0; i < samples; ++i) {
    const std::int64_t start = now_ns();
    for (int b = 0; b < builds; ++b) out = build();
    seconds.push_back(seconds_between(start, now_ns()) / builds);
  }
  return median(std::move(seconds));
}

// -- Spans --------------------------------------------------------------------

/// One timed region of one operation (trial, frame, block). `parent` is the
/// index of the enclosing span within the same operation, -1 for a root.
struct Span {
  const char* name = "";
  std::int32_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// The spans of one operation, filled on whichever thread runs it.
struct SpanBuffer {
  std::uint64_t op = 0;
  std::vector<Span> spans;

  int open(const char* name, int parent = -1);
  void close(int index);
  void add(const char* name, int parent, std::int64_t start_ns,
           std::int64_t end_ns);
};

/// RAII span on an optional buffer: a null buffer records nothing, so the
/// staged pipelines run untraced in the self-checks.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, const char* name, int parent = -1)
      : buffer_(buffer), index_(buffer ? buffer->open(name, parent) : -1) {}
  ~ScopedSpan() {
    if (buffer_) buffer_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int index() const { return index_; }

 private:
  SpanBuffer* buffer_;
  int index_;
};

/// Inclusive and self (inclusive minus direct children) time per span name.
struct LayerTime {
  double total_ns = 0.0;
  double self_ns = 0.0;
  std::uint64_t count = 0;
};

using LayerTimes = std::map<std::string, LayerTime>;

/// Inclusive / self nanoseconds of one span name (0 when absent).
double total_ns(const LayerTimes& layers, const std::string& name);
double self_ns(const LayerTimes& layers, const std::string& name);

/// num / den, or 0 when den is 0.
inline double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Every operation's spans of one traced workload, kept in memory until
/// write() at exit.
class TraceLog {
 public:
  void append(const std::string& trace, SpanBuffer&& buffer);
  LayerTimes summarize(const std::string& trace) const;
  std::size_t span_count() const;
  /// One JSON line per span: trace, op id, span index, parent, name, start
  /// and end (ns, relative to the first span of the log).
  bool write(const std::string& path) const;

 private:
  std::map<std::string, std::vector<SpanBuffer>> traces_;
};

}  // namespace perfbench
