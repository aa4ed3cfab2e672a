// Per-frame verdict records and their JSONL wire format.
//
// The sentry emits one record per decoded frame as a single JSON line
// (JSONL), so a long-running monitor can be tailed, grepped, and diffed.
// Like the telemetry JSON the schema is versioned and every double prints
// with %.17g, which makes two runs that compute identical verdicts emit
// byte-identical lines — the property the replay-determinism CI gate
// diffs (see docs/SENTRY.md).
#pragma once

#include <cstdint>
#include <string>

namespace ctc::sentry {

/// Bumped whenever the verdict JSONL layout changes shape.
inline constexpr int kVerdictSchemaVersion = 1;

/// One decoded frame's detection outcome plus the ingest-side context the
/// operator needs to interpret it (queue depth, drops so far).
struct VerdictRecord {
  std::size_t channel = 0;        ///< channel index within the service
  std::uint64_t frame_index = 0;  ///< per-channel decoded-frame counter
  /// Absolute sample index of the frame start within the *scanned* stream
  /// (i.e. after any ingest-side drops).
  std::uint64_t stream_position = 0;
  std::size_t frame_samples = 0;  ///< samples the decoded PPDU occupied
  bool frame_ok = false;          ///< SHR+PHR+DSSS+FCS all accepted
  std::size_t points = 0;         ///< constellation points the verdict used
  /// True when the feature fields below hold a cumulant verdict (zero
  /// otherwise). The scanner classifies every decoded frame with
  /// defense::Detector, and a decoded PHR carries at least one PSDU byte
  /// (32 points, where the estimator needs 4), so its records are always
  /// valid; the field stays in the wire format.
  bool valid = false;
  double de2 = 0.0;       ///< DE^2 distance to the QPSK anchor
  double c40 = 0.0;       ///< Chat40 (per detector C40 mode)
  double c42 = 0.0;       ///< Chat42
  bool is_attack = false; ///< H1: WiFi waveform emulation
  /// Ring-buffer depth observed when the frame's last sample was handed to
  /// the scanner. Deterministic in lockstep pipelines; a load signal in
  /// threaded ones.
  std::size_t queue_depth = 0;
  /// Total samples dropped at ingest on this channel before this verdict.
  std::uint64_t dropped_before = 0;

  /// Renders the record as one JSON line (no trailing newline).
  std::string to_jsonl() const;

  /// Appends the same line to `out` — the buffered-writer form: a channel's
  /// whole verdict stream accumulates into one growing string with no
  /// per-record temporary, and the bytes are identical to to_jsonl().
  void append_jsonl(std::string& out) const;
};

}  // namespace ctc::sentry
