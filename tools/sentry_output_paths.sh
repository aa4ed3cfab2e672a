#!/usr/bin/env bash
# Startup gate for ctc_sentry's output paths: an unwritable --verdicts,
# --capture-out or --telemetry-out must stop the run before any sample is
# processed — a non-zero exit with "cannot write PATH" and no end-of-run
# "samples in" summary.
#
# usage: sentry_output_paths.sh <build_dir> <source_dir>
set -euo pipefail

build_dir=${1:?usage: sentry_output_paths.sh <build_dir> <source_dir>}
cli="$build_dir/tools/ctc_sentry"
bad=/nonexistent/dir

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

echo "sentry output paths: PASS (verdicts, capture-out, telemetry-out)"
