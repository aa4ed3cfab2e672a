#!/usr/bin/env python3
"""Builds and runs the repo benchmark (see perfbench/README.md).

Run from the root of a checkout:

  python3 perfbench/run.py --workload mc_awgn --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --selfcheck

The first call configures the repo's own CMake build into .bench_build/ctc
(only the library targets are built) and the benchmark package into
.bench_build/perfbench; later calls rebuild incrementally. Build output goes
to stderr. The benchmark's stdout is passed through; its last line is the
result object, whose metric names and units are checked against
BENCHMARK.json. Exit status: the benchmark's (0 = every check passed),
2 when the checkout cannot be built.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
LIB_BUILD = BUILD / "ctc"
BENCH_BUILD = BUILD / "perfbench"
JOBS = "3"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def step(command: list[str], timeout: float) -> None:
    """Runs a build command with its output on stderr."""
    try:
        result = subprocess.run(command, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as error:
        fail(f"{' '.join(command)}: {error}")
    if result.returncode != 0:
        fail(f"{' '.join(command)} exited with {result.returncode}")


def build(targets: list[str]) -> None:
    for needed in ("CMakeLists.txt", "src/CMakeLists.txt"):
        if not (ROOT / needed).is_file():
            fail(f"{needed} is missing: run from a full checkout of the repo")
    if not (LIB_BUILD / "CMakeCache.txt").is_file():
        step(["cmake", "-S", str(ROOT), "-B", str(LIB_BUILD)], BUILD_TIMEOUT_S)
    step(["cmake", "--build", str(LIB_BUILD), "--target", "ctc_mesh",
          "ctc_sentry", "-j", JOBS], BUILD_TIMEOUT_S)
    if not (BENCH_BUILD / "CMakeCache.txt").is_file():
        step(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BENCH_BUILD),
              f"-DCTC_BUILD={LIB_BUILD}"], BUILD_TIMEOUT_S)
    step(["cmake", "--build", str(BENCH_BUILD), "--target", *targets, "-j",
          JOBS], BUILD_TIMEOUT_S)


def expected_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {metric["name"]: metric["unit"] for metric in spec[key]}


def check_result(line: str, trace: bool) -> list[str]:
    """Problems with the result line, measured against BENCHMARK.json."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return ["last line is not JSON"]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return ["result keys differ from correct/attempted/failed/metrics"]
    problems = []
    metrics = result["metrics"]
    expected = expected_metrics(trace)
    for name, unit in expected.items():
        if name not in metrics:
            problems.append(f"metric {name} missing")
        elif metrics[name]["unit"] != unit:
            problems.append(f"metric {name} has unit {metrics[name]['unit']}, "
                            f"BENCHMARK.json says {unit}")
    for name in metrics:
        if name not in expected:
            problems.append(f"metric {name} is not in BENCHMARK.json")
    if result["attempted"] < 1:
        problems.append("nothing attempted")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.selfcheck:
        build(["perfbench_selfcheck"])
        return subprocess.run([str(BENCH_BUILD / "perfbench_selfcheck")],
                              cwd=ROOT).returncode
    if args.workload is None:
        parser.error("--workload is required")

    build(["ctc_perfbench"])
    trace_file = BUILD / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
    command = [str(BENCH_BUILD / "ctc_perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--trace-file", str(trace_file)]
    try:
        result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s", 1)
    lines = result.stdout.rstrip("\n").split("\n")
    problems = check_result(lines[-1], bool(args.trace))
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    if problems and lines[-1].startswith("{\"correct\": true"):
        lines[-1] = lines[-1].replace("true", "false", 1)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    return 1 if problems else result.returncode


if __name__ == "__main__":
    sys.exit(main())
