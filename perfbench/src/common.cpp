#include "common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <thread>

namespace perfbench {

// The benchmark measures wall time by design; these two functions are its
// only clock reads.
std::int64_t now_ns() {
  const auto now = std::chrono::steady_clock::now();  // ctc-lint: allow(clock)
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             now.time_since_epoch())
      .count();
}

void sleep_until_ns(std::int64_t deadline_ns) {
  std::this_thread::sleep_until(
      std::chrono::steady_clock::time_point(  // ctc-lint: allow(clock)
          std::chrono::nanoseconds(deadline_ns)));
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  metrics.push_back({name, value, unit});
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  checks_ok = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

void Report::absorb(const Report& other) {
  attempted += other.attempted;
  failed += other.failed;
  checks_ok = checks_ok && other.checks_ok;
  metrics.insert(metrics.end(), other.metrics.begin(), other.metrics.end());
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double fast_round_seconds(std::vector<double> round_seconds) {
  std::sort(round_seconds.begin(), round_seconds.end());
  round_seconds.resize(std::min(kFastRounds, round_seconds.size()));
  return median(std::move(round_seconds));
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0.0;
}

void LatencySegments::add(double ms) {
  open_.push_back(ms);
  ++count_;
  if (open_.size() < kLatencySegment) return;
  p50s_.push_back(percentile(open_, 0.50));
  p99s_.push_back(percentile(open_, 0.99));
  open_.clear();
}

double LatencySegments::p50() const {
  return p50s_.empty() ? percentile(open_, 0.50) : median(p50s_);
}

double LatencySegments::p99() const {
  return p99s_.empty() ? percentile(open_, 0.99) : median(p99s_);
}

int SpanBuffer::open(const char* name, int parent) {
  spans.push_back({name, parent, now_ns(), 0});
  return static_cast<int>(spans.size() - 1);
}

void SpanBuffer::close(int index) {
  spans[static_cast<std::size_t>(index)].end_ns = now_ns();
}

void SpanBuffer::add(const char* name, int parent, std::int64_t start_ns,
                     std::int64_t end_ns) {
  spans.push_back({name, parent, start_ns, end_ns});
}

double total_ns(const LayerTimes& layers, const std::string& name) {
  const auto it = layers.find(name);
  return it == layers.end() ? 0.0 : it->second.total_ns;
}

double self_ns(const LayerTimes& layers, const std::string& name) {
  const auto it = layers.find(name);
  return it == layers.end() ? 0.0 : it->second.self_ns;
}

void TraceLog::append(const std::string& trace, SpanBuffer&& buffer) {
  traces_[trace].push_back(std::move(buffer));
}

LayerTimes TraceLog::summarize(const std::string& trace) const {
  LayerTimes layers;
  const auto it = traces_.find(trace);
  if (it == traces_.end()) return layers;
  std::vector<double> child_ns;
  for (const SpanBuffer& buffer : it->second) {
    child_ns.assign(buffer.spans.size(), 0.0);
    for (const Span& span : buffer.spans) {
      if (span.parent >= 0) {
        child_ns[static_cast<std::size_t>(span.parent)] +=
            static_cast<double>(span.end_ns - span.start_ns);
      }
    }
    for (std::size_t i = 0; i < buffer.spans.size(); ++i) {
      const Span& span = buffer.spans[i];
      LayerTime& layer = layers[span.name];
      const double duration = static_cast<double>(span.end_ns - span.start_ns);
      layer.total_ns += duration;
      layer.self_ns += duration - child_ns[i];
      ++layer.count;
    }
  }
  return layers;
}

std::size_t TraceLog::span_count() const {
  std::size_t count = 0;
  for (const auto& [trace, buffers] : traces_) {
    for (const SpanBuffer& buffer : buffers) count += buffer.spans.size();
  }
  return count;
}

bool TraceLog::write(const std::string& path) const {
  std::int64_t origin = std::numeric_limits<std::int64_t>::max();
  for (const auto& [trace, buffers] : traces_) {
    for (const SpanBuffer& buffer : buffers) {
      for (const Span& span : buffer.spans) {
        origin = std::min(origin, span.start_ns);
      }
    }
  }
  const std::filesystem::path file(path);
  if (file.has_parent_path()) {
    std::error_code error;
    std::filesystem::create_directories(file.parent_path(), error);
  }
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const auto& [trace, buffers] : traces_) {
    for (const SpanBuffer& buffer : buffers) {
      for (std::size_t i = 0; i < buffer.spans.size(); ++i) {
        const Span& span = buffer.spans[i];
        std::fprintf(out,
                     "{\"trace\":\"%s\",\"op\":%llu,\"span\":%zu,\"parent\":%d,"
                     "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}\n",
                     trace.c_str(),
                     static_cast<unsigned long long>(buffer.op), i,
                     span.parent, span.name,
                     static_cast<long long>(span.start_ns - origin),
                     static_cast<long long>(span.end_ns - origin));
      }
    }
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
