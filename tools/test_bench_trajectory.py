#!/usr/bin/env python3
"""Unit tests for tools/bench_trajectory.py (run via ctest or directly)."""

from __future__ import annotations

import importlib.util
import json
import tempfile
import unittest
from pathlib import Path

MODULE_PATH = Path(__file__).resolve().parent / "bench_trajectory.py"
_spec = importlib.util.spec_from_file_location("bench_trajectory", MODULE_PATH)
bench_trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_trajectory)


def perf_report(trials: int, wall_ms: float) -> dict:
    return {"bench": "perf_engine", "seed": 20190707, "trials": trials,
            "wall_ms_wide": wall_ms}


class TrajectoryTestCase(unittest.TestCase):
    def setUp(self) -> None:
        self._tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self._tmp.cleanup)
        self.dir = Path(self._tmp.name)
        self.trajectory = self.dir / "trajectory.json"

    def write_run(self, report: dict, name: str = "run.json") -> Path:
        path = self.dir / name
        # Mimic `bench --json | tail` capture: banner noise above, report last.
        path.write_text("=== banner ===\n\n" + json.dumps(report) + "\n",
                        encoding="utf-8")
        return path

    def append(self, report: dict, label: str = "", machine: str = "") -> int:
        run = self.write_run(report)
        argv = ["append", "--run", str(run), "--trajectory",
                str(self.trajectory)]
        if label:
            argv += ["--label", label]
        if machine:
            argv += ["--machine", machine]
        return bench_trajectory.main(argv)

    def check(self, max_regression: float | None = None,
              require: list[str] | None = None,
              require_speedup: list[str] | None = None) -> int:
        argv = ["check", "--trajectory", str(self.trajectory)]
        if max_regression is not None:
            argv += ["--max-regression", str(max_regression)]
        for expr in require or []:
            argv += ["--require", expr]
        for expr in require_speedup or []:
            argv += ["--require-speedup", expr]
        return bench_trajectory.main(argv)

    # -- append ---------------------------------------------------------------

    def test_append_creates_trajectory_and_accumulates_runs(self) -> None:
        self.assertEqual(self.append(perf_report(100, 10.0), "first"), 0)
        self.assertEqual(self.append(perf_report(100, 11.0)), 0)
        data = json.loads(self.trajectory.read_text(encoding="utf-8"))
        self.assertEqual(data["trajectory_schema"], 1)
        self.assertEqual(len(data["runs"]), 2)
        self.assertEqual(data["runs"][0]["label"], "first")
        self.assertEqual(data["runs"][1]["label"], "run-1")  # default label
        self.assertEqual(data["runs"][0]["report"]["trials"], 100)

    def test_append_rejects_run_without_bench_field(self) -> None:
        run = self.write_run({"seed": 1})
        with self.assertRaises(SystemExit):
            bench_trajectory.main(["append", "--run", str(run),
                                   "--trajectory", str(self.trajectory)])

    def test_append_rejects_empty_and_non_json_runs(self) -> None:
        empty = self.dir / "empty.json"
        empty.write_text("\n\n", encoding="utf-8")
        with self.assertRaises(SystemExit):
            bench_trajectory.main(["append", "--run", str(empty),
                                   "--trajectory", str(self.trajectory)])
        garbage = self.dir / "garbage.json"
        garbage.write_text("not json\n", encoding="utf-8")
        with self.assertRaises(SystemExit):
            bench_trajectory.main(["append", "--run", str(garbage),
                                   "--trajectory", str(self.trajectory)])

    def test_rejects_wrong_schema_and_malformed_trajectory(self) -> None:
        self.trajectory.write_text(
            json.dumps({"trajectory_schema": 99, "runs": []}),
            encoding="utf-8")
        with self.assertRaises(SystemExit):
            self.append(perf_report(1, 1.0))
        self.trajectory.write_text(json.dumps({"no_runs": True}),
                                   encoding="utf-8")
        with self.assertRaises(SystemExit):
            self.check()

    # -- check ----------------------------------------------------------------

    def test_check_passes_trivially_with_fewer_than_two_perf_runs(self) -> None:
        self.assertEqual(self.check(), 0)  # missing file == empty trajectory
        self.append(perf_report(100, 10.0))
        self.append({"bench": "table2_attack_awgn", "seed": 1})  # not perf
        self.assertEqual(self.check(), 0)

    def test_check_passes_within_regression_budget(self) -> None:
        self.append(perf_report(100, 10.0), "base")     # 10 trials/ms
        self.append(perf_report(100, 12.0), "latest")   # -16.7%
        self.assertEqual(self.check(), 0)               # default budget 25%

    def test_check_fails_beyond_regression_budget(self) -> None:
        self.append(perf_report(100, 10.0), "base")
        self.append(perf_report(100, 20.0), "latest")   # -50%
        self.assertEqual(self.check(), 1)
        self.assertEqual(self.check(max_regression=0.6), 0)  # widened budget

    def test_check_compares_latest_against_best_earlier(self) -> None:
        self.append(perf_report(100, 20.0), "slow-start")   # 5 trials/ms
        self.append(perf_report(100, 10.0), "best")         # 10 trials/ms
        self.append(perf_report(100, 13.0), "latest")       # -23% vs best
        self.assertEqual(self.check(), 0)
        self.append(perf_report(100, 16.0), "regressed")    # -37.5% vs best
        self.assertEqual(self.check(), 1)

    def test_check_ignores_runs_without_usable_throughput(self) -> None:
        self.append({"bench": "perf_engine", "trials": 100})           # no wall
        self.append({"bench": "perf_engine", "trials": 100,
                     "wall_ms_wide": 0})                               # div by 0
        self.append(perf_report(100, 10.0))
        self.assertEqual(self.check(), 0)  # only one usable run -> pass

    # -- machine awareness ----------------------------------------------------

    def test_append_stamps_machine_fingerprint(self) -> None:
        self.append(perf_report(100, 10.0))
        self.append(perf_report(100, 10.0), machine="ci-runner")
        data = json.loads(self.trajectory.read_text(encoding="utf-8"))
        self.assertEqual(data["runs"][0]["machine"],
                         bench_trajectory.machine_fingerprint())
        self.assertEqual(data["runs"][1]["machine"], "ci-runner")

    def test_check_skips_wall_comparison_across_machines(self) -> None:
        # A 50% drop vs a *different* machine's run must not fail — wall
        # clock only compares within one fingerprint.
        self.append(perf_report(100, 10.0), "dev", machine="dev-box")
        self.append(perf_report(100, 20.0), "ci", machine="ci-runner")
        self.assertEqual(self.check(), 0)
        # Same drop on the same machine still fails.
        self.append(perf_report(100, 10.0), "ci-base", machine="ci-runner")
        self.append(perf_report(100, 20.0), "ci-slow", machine="ci-runner")
        self.assertEqual(self.check(), 1)

    def test_check_treats_untagged_legacy_entries_as_comparable(self) -> None:
        # Entries written before machine stamping (edited in by hand here)
        # must keep gating runs from any machine.
        data = {"trajectory_schema": 1, "runs": [
            {"label": "legacy", "report": perf_report(100, 10.0)},
        ]}
        self.trajectory.write_text(json.dumps(data), encoding="utf-8")
        self.append(perf_report(100, 20.0), "now", machine="ci-runner")
        self.assertEqual(self.check(), 1)

    # -- --require ------------------------------------------------------------

    def hotpath_report(self, noise: float, despread: float) -> dict:
        return {"bench": "perf_hotpath", "noise_speedup": noise,
                "despread_speedup": despread}

    def test_require_asserts_on_latest_report_of_bench(self) -> None:
        self.append(self.hotpath_report(0.5, 0.5), "old")
        self.append(self.hotpath_report(7.0, 1.3), "new")
        self.assertEqual(
            self.check(require=["perf_hotpath:noise_speedup>=1.5",
                                "perf_hotpath:despread_speedup>=1.0"]), 0)
        self.assertEqual(
            self.check(require=["perf_hotpath:noise_speedup>=10"]), 1)

    def test_require_fails_on_missing_bench_or_field(self) -> None:
        self.assertEqual(self.check(require=["perf_hotpath:x>=1"]), 1)
        self.append(self.hotpath_report(7.0, 1.3))
        self.assertEqual(self.check(require=["perf_hotpath:nope>=1"]), 1)

    def test_require_rejects_malformed_expression(self) -> None:
        self.append(self.hotpath_report(7.0, 1.3))
        with self.assertRaises(SystemExit):
            self.check(require=["not an expression"])

    # -- --require-speedup ----------------------------------------------------

    def test_require_speedup_certifies_pre_post_pair(self) -> None:
        # 10 -> 2.5 ms for the same trial count: 4x single-thread speedup.
        self.append(perf_report(100, 10.0), "pre", machine="dev-box")
        self.append(perf_report(100, 2.5), "post", machine="dev-box")
        self.assertEqual(self.check(require_speedup=["perf_engine>=2"]), 0)
        self.assertEqual(self.check(require_speedup=["perf_engine>=5"]), 1)

    def test_require_speedup_uses_threads1_wall_when_present(self) -> None:
        pre = dict(perf_report(100, 2.0), wall_ms_threads1=10.0)
        post = dict(perf_report(100, 2.0), wall_ms_threads1=4.0)
        self.append(pre, "pre", machine="m")
        self.append(post, "post", machine="m")
        # wall_ms_wide is identical; only the threads1 field shows the 2.5x.
        self.assertEqual(self.check(require_speedup=["perf_engine>=2.5"]), 0)
        self.assertEqual(self.check(require_speedup=["perf_engine>=3"]), 1)

    def test_require_speedup_reads_sentry_sustained_rate(self) -> None:
        # perf_sentry has no trials/wall fields; the gate reads the
        # sustained single-channel Msamples/s directly.
        pre = {"bench": "perf_sentry", "sustained_msamples_per_sec": 4.0}
        post = {"bench": "perf_sentry", "sustained_msamples_per_sec": 9.0}
        self.append(pre, "pre", machine="m")
        self.append(post, "post", machine="m")
        self.assertEqual(self.check(require_speedup=["perf_sentry>=2"]), 0)
        self.assertEqual(self.check(require_speedup=["perf_sentry>=3"]), 1)
        # A report with a missing or non-positive rate is not a usable run.
        self.assertIsNone(bench_trajectory._single_thread_throughput(
            {"bench": "perf_sentry"}, "perf_sentry"))
        self.assertIsNone(bench_trajectory._single_thread_throughput(
            {"bench": "perf_sentry", "sustained_msamples_per_sec": 0.0},
            "perf_sentry"))

    def test_require_speedup_can_pin_a_machine(self) -> None:
        # Pairs recorded on two hosts: the unqualified gate sees only the
        # latest host's pair, BENCH@MACHINE certifies each pair on its own.
        self.append(perf_report(100, 10.0), "pre", machine="old-box")
        self.append(perf_report(100, 2.0), "post", machine="old-box")
        self.append(perf_report(100, 3.0), "pre2", machine="new-box")
        self.append(perf_report(100, 2.0), "post2", machine="new-box")
        self.assertEqual(
            self.check(require_speedup=["perf_engine@old-box>=5"]), 0)
        self.assertEqual(
            self.check(require_speedup=["perf_engine@new-box>=1.5"]), 0)
        self.assertEqual(
            self.check(require_speedup=["perf_engine@new-box>=2"]), 1)
        self.assertEqual(self.check(require_speedup=["perf_engine>=2"]), 1)
        self.assertEqual(
            self.check(require_speedup=["perf_engine@no-box>=1"]), 1)

    def test_require_speedup_fails_without_a_baseline(self) -> None:
        # No run at all, then a run with no same-machine predecessor: both
        # must fail — the gate certifies a recorded pair.
        self.assertEqual(self.check(require_speedup=["perf_engine>=2"]), 1)
        self.append(perf_report(100, 10.0), "pre", machine="dev-box")
        self.assertEqual(self.check(require_speedup=["perf_engine>=2"]), 1)
        self.append(perf_report(100, 2.0), "ci", machine="ci-runner")
        self.assertEqual(self.check(require_speedup=["perf_engine>=2"]), 1)


if __name__ == "__main__":
    unittest.main()

