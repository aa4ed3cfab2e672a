#!/usr/bin/env bash
# Startup gate for ctc_sentry. Each case must stop the run before any
# sample is processed:
#   - an unwritable --verdicts, --capture-out or --telemetry-out exits
#     non-zero with "cannot write PATH";
#   - an out-of-range flag value, a missing capture or an odd-length one
#     exits 1 or 2 (never an abort), names the flag or the file on stderr,
#     and leaves a pre-existing --verdicts file byte-for-byte unchanged.
# No case may print the end-of-run "samples in" summary.
#
# usage: sentry_output_paths.sh <build_dir> <source_dir>
set -euo pipefail

build_dir=${1:?usage: sentry_output_paths.sh <build_dir> <source_dir>}
cli="$build_dir/tools/ctc_sentry"
bad=/nonexistent/dir
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

for output in verdicts=v.jsonl capture-out=air.cf32 telemetry-out=t.json; do
  flag=${output%%=*}
  path="$bad/${output#*=}"
  status=0
  err=$("$cli" live --frames=2 "--$flag=$path" 2>&1 >/dev/null) || status=$?
  if [ "$status" -eq 0 ]; then
    echo "FAIL: --$flag=$path exited 0" >&2
    exit 1
  fi
  if ! grep -qF "cannot write $path" <<<"$err"; then
    echo "FAIL: --$flag=$path did not report 'cannot write $path':" >&2
    echo "$err" >&2
    exit 1
  fi
  if grep -qF "samples in" <<<"$err"; then
    echo "FAIL: --$flag=$path processed the stream before failing:" >&2
    echo "$err" >&2
    exit 1
  fi
done

"$cli" live --frames=2 --capture-out="$work/air.cf32" > /dev/null 2>&1
head -c 12 "$work/air.cf32" > "$work/odd.cf32"  # one and a half samples
printf '{"earlier":"run"}\n' > "$work/keep.jsonl"

# rejected <name> <mode> <args...>: the run fails cleanly, <name> (a flag
# or a file) appears on stderr, and --verdicts is left as it was.
rejected() {
  local name=$1 status=0 err
  shift
  cp "$work/keep.jsonl" "$work/v.jsonl"
  err=$("$cli" "$@" --verdicts="$work/v.jsonl" 2>&1 >/dev/null) || status=$?
  if [ "$status" -ne 1 ] && [ "$status" -ne 2 ]; then
    echo "FAIL: $* exited $status, wanted 1 or 2:" >&2
    echo "$err" >&2
    exit 1
  fi
  if ! grep -qF -- "$name" <<<"$err"; then
    echo "FAIL: $* did not name $name on stderr:" >&2
    echo "$err" >&2
    exit 1
  fi
  if grep -qF "samples in" <<<"$err"; then
    echo "FAIL: $* processed the stream before failing:" >&2
    echo "$err" >&2
    exit 1
  fi
  if ! cmp -s "$work/keep.jsonl" "$work/v.jsonl"; then
    echo "FAIL: $* changed the existing --verdicts file" >&2
    exit 1
  fi
}

cases=0
for arg in --ring=1000 --channels=0 --shards=0 --ingest-block=0 \
           --drain-block=0 --repeat=0 --max-psdu=0 --max-psdu=200 \
           --payload=200 --snr-db=nan --rate=inf --threshold=nan; do
  rejected "${arg%%=*}" live --frames=2 "$arg"
  cases=$((cases + 1))
done
rejected "--repeat" replay --capture="$work/air.cf32" --repeat=0
rejected "$work/missing.cf32" replay --capture="$work/missing.cf32"
rejected "$work/odd.cf32" replay --capture="$work/odd.cf32"
cases=$((cases + 3))

echo "sentry output paths: PASS (verdicts, capture-out, telemetry-out;" \
     "$cases rejected inputs)"
