// The benchmark's three workloads. Each has an end-to-end run (tracing off)
// and a traced run that decomposes the same work into per-layer spans.
//
//   mc_awgn        cache-hot Monte Carlo defense sweep (Sec. VII-B)
//   mesh_fresh     16-sensor field, every trial a never-seen frame
//   sentry_stream  two-channel streaming detector: real-time open loop (A)
//                  and closed-loop service replay (B)
//
// End-to-end runs report setup_s, msamples_per_s and verdict_latency_p50_ms
// (main adds peak_rss_mb). Traced runs report "<workload>.<layer>.<metric>"
// names plus "<workload>.trace_overhead".
#pragma once

#include "common.h"

namespace perfbench {

/// Worker threads per workload; at most 3 of a 4-core host.
inline constexpr std::size_t kMcThreads = 2;
inline constexpr std::size_t kMeshThreads = 2;
inline constexpr std::size_t kSentryChannels = 2;  ///< one consumer each
inline constexpr std::size_t kSentryShards = 2;

Report run_mc_awgn(const Options& options);
Report trace_mc_awgn(const Options& options, TraceLog& log);

Report run_mesh_fresh(const Options& options);
Report trace_mesh_fresh(const Options& options, TraceLog& log);

Report run_sentry_stream(const Options& options);
Report trace_sentry_stream(const Options& options, TraceLog& log);

}  // namespace perfbench
