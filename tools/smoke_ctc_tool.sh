#!/usr/bin/env bash
# End-to-end smoke for ctc_tool, the one-shot frame synchronizer's CLI: a
# generated HELLO frame and its WiFi emulation, each behind 300 zero
# samples, must sync at offset 300, pass the FCS and be classified H0 and
# H1 by the defense; `detect` on a missing capture must exit 1 with one
# message line that names the file. On silent captures of 1, 10 and 100
# zero samples `detect` must say that nothing synced and exit 1, and
# `attack` must exit 1 with one line naming the file and write no output.
#
# usage: smoke_ctc_tool.sh <build_dir> <source_dir>
set -euo pipefail

build_dir=${1:?usage: smoke_ctc_tool.sh <build_dir> <source_dir>}
tool="$build_dir/examples/ctc_tool"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# Prepends 300 zero samples (2400 bytes of cf32) to capture $1, into $2.
pad() { { head -c 2400 /dev/zero; cat "$1"; } > "$2"; }

# detect_expect <capture> <line>...: detect exits 0 and prints every line.
detect_expect() {
  local capture=$1 out status=0
  shift
  out=$("$tool" detect "$capture" 2>&1) || status=$?
  if [ "$status" -ne 0 ]; then
    echo "FAIL: detect $capture exited $status:" >&2
    echo "$out" >&2
    exit 1
  fi
  for want in "$@"; do
    if ! grep -qF -- "$want" <<<"$out"; then
      echo "FAIL: detect $capture did not print '$want':" >&2
      echo "$out" >&2
      exit 1
    fi
  done
}

"$tool" generate "$work/frame.cf32" HELLO > /dev/null
pad "$work/frame.cf32" "$work/frame_padded.cf32"
detect_expect "$work/frame_padded.cf32" "sync offset 300" "FCS ok" \
  'payload: "HELLO"' "H0:"

"$tool" attack "$work/frame.cf32" "$work/attack.cf32" > /dev/null
pad "$work/attack.cf32" "$work/attack_padded.cf32"
detect_expect "$work/attack_padded.cf32" "sync offset 300" "FCS ok" "H1:"

missing="$work/missing.cf32"
status=0
err=$("$tool" detect "$missing" 2>&1 >/dev/null) || status=$?
if [ "$status" -ne 1 ] || [ "$(printf '%s\n' "$err" | wc -l)" -ne 1 ] ||
   ! grep -qF "$missing" <<<"$err"; then
  echo "FAIL: detect on a missing capture exited $status, wanted 1 and one" \
       "line naming the file:" >&2
  echo "$err" >&2
  exit 1
fi

for samples in 1 10 100; do
  silent="$work/silent_$samples.cf32"
  head -c $((8 * samples)) /dev/zero > "$silent"
  status=0
  out=$("$tool" detect "$silent" 2>&1) || status=$?
  if [ "$status" -ne 1 ] || ! grep -qF "no SHR synced in $silent" <<<"$out" ||
     grep -qF "sync offset" <<<"$out"; then
    echo "FAIL: detect on $samples silent samples exited $status, wanted 1" \
         "and a line saying nothing synced:" >&2
    echo "$out" >&2
    exit 1
  fi
done

silent="$work/silent_100.cf32"
status=0
err=$("$tool" attack "$silent" "$work/silent_attack.cf32" 2>&1 >/dev/null) ||
  status=$?
if [ "$status" -ne 1 ] || [ "$(printf '%s\n' "$err" | wc -l)" -ne 1 ] ||
   ! grep -qF "$silent" <<<"$err" || [ -e "$work/silent_attack.cf32" ]; then
  echo "FAIL: attack on a silent capture exited $status, wanted 1, one line" \
       "naming the file and no output file:" >&2
  echo "$err" >&2
  exit 1
fi

echo "ctc_tool smoke: PASS (authentic H0, emulated H1, missing and silent" \
     "captures)"
