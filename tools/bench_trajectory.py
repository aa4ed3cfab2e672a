#!/usr/bin/env python3
"""Append bench JSON reports to a trajectory file and gate on regressions.

The bench binaries emit a one-line JSON report with ``--json`` (and a richer
telemetry document with ``--telemetry-out``).  This tool maintains the
machine-readable *trajectory* of those reports across CI runs so throughput
changes are visible over time, and fails the build when the latest
``perf_engine`` run regresses too far.

Subcommands
-----------
append   Read one run report (a file whose last non-empty line is the JSON
         object a bench printed) and append it to the trajectory file::

             ./build/bench/perf_engine --trials=120 --json | tail -n1 > run.json
             python3 tools/bench_trajectory.py append \
                 --run run.json --trajectory BENCH_telemetry.json --label "$SHA"

check    Gate: compute perf_engine throughput (trials / wall_ms_wide) for
         every run in the trajectory and compare the latest against the best
         earlier run.  Exits non-zero when the latest throughput dropped by
         more than ``--max-regression`` (default 0.25, i.e. >25% slower)::

             python3 tools/bench_trajectory.py check --trajectory BENCH_telemetry.json

         Wall-clock throughput is only comparable between runs recorded on
         the same machine, so ``append`` stamps each entry with a machine
         fingerprint and ``check`` compares the latest run only against
         earlier entries carrying the same fingerprint (entries without one,
         from older trajectories, match anything).

         Two machine-independent assertions complement the wall-clock gate
         (speedup *ratios* within one report, or between two runs of the
         same machine, transfer across hosts):

         ``--require BENCH:FIELD>=VALUE`` asserts a numeric field of the
         latest BENCH report (repeatable; ops ``>= <= > < ==``)::

             ... check --trajectory t.json --require 'perf_hotpath:noise_speedup>=2'

         ``--require-speedup BENCH>=FACTOR`` asserts that the latest BENCH
         run improved single-thread throughput by at least FACTOR over the
         *earliest* same-machine BENCH run — the committed pre/post pair
         that records an optimization PR's win.  ``BENCH@MACHINE>=FACTOR``
         does the same among the runs stamped MACHINE only, so pairs
         recorded on different hosts are each certified on their own.
         Unlike the regression check, this fails when no comparable pair
         exists: a gate that cannot find its baseline must not silently
         pass.

The trajectory file is a single JSON object ``{"trajectory_schema": 1,
"runs": [...]}``; each entry is ``{"label": ..., "machine": ...,
"report": {...}}`` where ``report`` is the bench's JSON verbatim.  Fewer
than two perf_engine entries (a fresh trajectory, or a cache miss in CI)
passes the regression check trivially.

Standard library only — no third-party imports.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import sys
from pathlib import Path

TRAJECTORY_SCHEMA = 1

_REQUIRE_RE = re.compile(
    r"^(?P<bench>[\w.-]+):(?P<field>[\w.]+)\s*(?P<op>>=|<=|==|>|<)\s*"
    r"(?P<value>[-+0-9.eE]+)$")
_SPEEDUP_RE = re.compile(r"^(?P<bench>[\w.-]+)(?:@(?P<machine>[\w.-]+))?"
                         r"\s*>=\s*(?P<factor>[-+0-9.eE]+)$")

_OPS = {
    ">=": lambda a, b: a >= b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    "<": lambda a, b: a < b,
    "==": lambda a, b: a == b,
}


def machine_fingerprint() -> str:
    """Coarse host fingerprint: wall-clock numbers are only comparable
    between runs that share it."""
    return f"{platform.system()}-{platform.machine()}-{os.cpu_count()}cpu"


def _same_machine(a: dict, b: dict) -> bool:
    """Entries without a fingerprint (older trajectories) match anything."""
    ma, mb = a.get("machine"), b.get("machine")
    return ma is None or mb is None or ma == mb


def _load_trajectory(path: Path) -> dict:
    if not path.exists():
        return {"trajectory_schema": TRAJECTORY_SCHEMA, "runs": []}
    with path.open(encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or "runs" not in data:
        raise SystemExit(f"{path}: not a trajectory file (missing 'runs')")
    schema = data.get("trajectory_schema")
    if schema != TRAJECTORY_SCHEMA:
        raise SystemExit(f"{path}: unsupported trajectory_schema {schema!r}")
    return data


def _load_run_report(path: Path) -> dict:
    """Parse the last non-empty line of ``path`` as a bench JSON report."""
    lines = [line for line in path.read_text(encoding="utf-8").splitlines()
             if line.strip()]
    if not lines:
        raise SystemExit(f"{path}: empty run file")
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError as error:
        raise SystemExit(f"{path}: last line is not JSON: {error}") from error
    if not isinstance(report, dict) or "bench" not in report:
        raise SystemExit(f"{path}: report has no 'bench' field")
    return report


def cmd_append(args: argparse.Namespace) -> int:
    trajectory_path = Path(args.trajectory)
    trajectory = _load_trajectory(trajectory_path)
    report = _load_run_report(Path(args.run))
    label = args.label if args.label else f"run-{len(trajectory['runs'])}"
    machine = args.machine if args.machine else machine_fingerprint()
    trajectory["runs"].append(
        {"label": label, "machine": machine, "report": report})
    trajectory_path.write_text(
        json.dumps(trajectory, indent=2, sort_keys=False) + "\n",
        encoding="utf-8")
    print(f"appended {report['bench']} run '{label}' "
          f"({len(trajectory['runs'])} total) to {trajectory_path}")
    return 0


def _perf_throughput(report: dict) -> float | None:
    """trials / wall_ms_wide for a perf_engine report, else None."""
    if report.get("bench") != "perf_engine":
        return None
    trials = report.get("trials")
    wall_ms = report.get("wall_ms_wide")
    if not isinstance(trials, (int, float)) or not isinstance(wall_ms, (int, float)):
        return None
    if wall_ms <= 0:
        return None
    return float(trials) / float(wall_ms)


def _single_thread_throughput(report: dict, bench: str) -> float | None:
    """Single-thread throughput for a report of ``bench``, else None.

    perf_sentry reports carry their single-channel rate directly as
    ``sustained_msamples_per_sec``; everything else derives
    trials / single-thread wall ms."""
    if report.get("bench") != bench:
        return None
    if bench == "perf_sentry":
        sustained = report.get("sustained_msamples_per_sec")
        if not isinstance(sustained, (int, float)) or sustained <= 0:
            return None
        return float(sustained)
    trials = report.get("trials")
    wall_ms = report.get("wall_ms_threads1", report.get("wall_ms_wide"))
    if not isinstance(trials, (int, float)) or not isinstance(wall_ms, (int, float)):
        return None
    if wall_ms <= 0:
        return None
    return float(trials) / float(wall_ms)


def _check_regression(runs: list[dict], max_regression: float) -> bool:
    """Wall-clock gate: latest perf_engine run vs the best earlier run on
    the same machine. Passes trivially without a comparable pair (a fresh
    trajectory, or the first run on a new machine)."""
    perf = [entry for entry in runs
            if _perf_throughput(entry.get("report", {})) is not None]
    if len(perf) < 2:
        print(f"only {len(perf)} perf_engine run(s) in trajectory; "
              "nothing to compare — pass")
        return True
    latest_entry = perf[-1]
    comparable = [entry for entry in perf[:-1]
                  if _same_machine(entry, latest_entry)]
    if not comparable:
        print("no earlier perf_engine run on this machine; "
              "wall-clock comparison skipped — pass")
        return True
    latest = _perf_throughput(latest_entry["report"])
    best_entry = max(comparable,
                     key=lambda entry: _perf_throughput(entry["report"]))
    best = _perf_throughput(best_entry["report"])
    drop = 1.0 - latest / best
    print(f"perf_engine throughput (trials/ms): latest "
          f"'{latest_entry.get('label', '?')}' = {latest:.3f}, best earlier "
          f"'{best_entry.get('label', '?')}' = {best:.3f} "
          f"({drop:+.1%} regression)")
    if drop > max_regression:
        print(f"FAIL: throughput dropped {drop:.1%} > "
              f"{max_regression:.0%} allowed", file=sys.stderr)
        return False
    return True


def _check_require(runs: list[dict], expr: str) -> bool:
    """--require BENCH:FIELD OP VALUE against the latest BENCH report.
    Missing bench or field fails: an unverifiable assertion is a failure,
    not a pass."""
    match = _REQUIRE_RE.match(expr)
    if not match:
        raise SystemExit(f"--require {expr!r}: expected BENCH:FIELD>=VALUE")
    bench, field = match["bench"], match["field"]
    op, bound = match["op"], float(match["value"])
    latest = None
    for entry in runs:
        if entry.get("report", {}).get("bench") == bench:
            latest = entry
    if latest is None:
        print(f"FAIL: --require {expr!r}: no {bench} run in trajectory",
              file=sys.stderr)
        return False
    value = latest["report"].get(field)
    if not isinstance(value, (int, float)):
        print(f"FAIL: --require {expr!r}: latest {bench} run "
              f"'{latest.get('label', '?')}' has no numeric field "
              f"{field!r}", file=sys.stderr)
        return False
    ok = _OPS[op](float(value), bound)
    status = "ok" if ok else "FAIL"
    print(f"{status}: {bench}:{field} = {value:g} (required {op} {bound:g})",
          file=sys.stdout if ok else sys.stderr)
    return ok


def _check_require_speedup(runs: list[dict], expr: str) -> bool:
    """--require-speedup BENCH[@MACHINE]>=FACTOR: latest vs earliest
    same-machine BENCH run by single-thread throughput, among the runs
    stamped MACHINE when one is named. Fails when the pair does not
    exist — this gate certifies a recorded pre/post win, so a missing
    baseline means the record is broken."""
    match = _SPEEDUP_RE.match(expr)
    if not match:
        raise SystemExit(
            f"--require-speedup {expr!r}: expected BENCH[@MACHINE]>=FACTOR")
    bench, factor = match["bench"], float(match["factor"])
    entries = [entry for entry in runs
               if _single_thread_throughput(entry.get("report", {}), bench)
               is not None]
    if match["machine"]:
        entries = [entry for entry in entries
                   if _same_machine(entry, {"machine": match["machine"]})]
    if not entries:
        print(f"FAIL: --require-speedup {expr!r}: no {bench} run in "
              "trajectory", file=sys.stderr)
        return False
    latest = entries[-1]
    baselines = [entry for entry in entries[:-1]
                 if _same_machine(entry, latest)]
    if not baselines:
        print(f"FAIL: --require-speedup {expr!r}: no earlier {bench} run "
              f"on machine {latest.get('machine', '?')!r} to compare "
              "against", file=sys.stderr)
        return False
    baseline = baselines[0]
    speedup = (_single_thread_throughput(latest["report"], bench)
               / _single_thread_throughput(baseline["report"], bench))
    ok = speedup >= factor
    status = "ok" if ok else "FAIL"
    print(f"{status}: {bench} single-thread speedup "
          f"'{baseline.get('label', '?')}' -> '{latest.get('label', '?')}' "
          f"= {speedup:.2f}x (required >= {factor:g}x)",
          file=sys.stdout if ok else sys.stderr)
    return ok


def cmd_check(args: argparse.Namespace) -> int:
    trajectory = _load_trajectory(Path(args.trajectory))
    runs = trajectory["runs"]
    ok = _check_regression(runs, args.max_regression)
    for expr in args.require:
        ok = _check_require(runs, expr) and ok
    for expr in args.require_speedup:
        ok = _check_require_speedup(runs, expr) and ok
    if not ok:
        return 1
    print("pass")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    append = sub.add_parser("append", help="append a run report to the trajectory")
    append.add_argument("--run", required=True,
                        help="file whose last line is the bench --json report")
    append.add_argument("--trajectory", required=True,
                        help="trajectory JSON file (created if missing)")
    append.add_argument("--label", default="",
                        help="label for this run (default: run-<index>)")
    append.add_argument("--machine", default="",
                        help="machine fingerprint for this run "
                             "(default: auto-detected)")
    append.set_defaults(func=cmd_append)

    check = sub.add_parser("check", help="fail on perf_engine throughput regression")
    check.add_argument("--trajectory", required=True)
    check.add_argument("--max-regression", type=float, default=0.25,
                       help="maximum tolerated fractional drop (default 0.25)")
    check.add_argument("--require", action="append", default=[],
                       metavar="BENCH:FIELD>=VALUE",
                       help="assert a numeric field of the latest BENCH "
                            "report (machine-independent; repeatable)")
    check.add_argument("--require-speedup", action="append", default=[],
                       metavar="BENCH[@MACHINE]>=FACTOR",
                       help="assert latest vs earliest same-machine BENCH "
                            "single-thread throughput ratio, optionally "
                            "among MACHINE's runs only (repeatable)")
    check.set_defaults(func=cmd_check)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
