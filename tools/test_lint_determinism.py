#!/usr/bin/env python3
"""Unit tests for the determinism rules (tools/lint/determinism.py, run by
ctc_lint): every rule must fire on a seeded violation fixture and stay
silent on the idiomatic clean counterpart.

Run directly (python3 tools/test_lint_determinism.py) or via ctest
(tools.lint_determinism_py)."""

import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

TOOLS_DIR = Path(__file__).resolve().parent
LINT = TOOLS_DIR / "ctc_lint.py"
REPO_ROOT = TOOLS_DIR.parent

sys.path.insert(0, str(TOOLS_DIR))
from lint import determinism, framework  # noqa: E402


class LintFixtureTest(unittest.TestCase):
    """Runs the rules on in-memory fixture files."""

    def lint_source(self, source: str, rel: str = "src/foo/bar.cpp"):
        return determinism.lint_source(framework.SourceFile(rel, source))

    def assert_rules(self, source: str, expected_rules, rel="src/foo/bar.cpp"):
        violations = self.lint_source(source, rel=rel)
        self.assertEqual(sorted({v.rule for v in violations}),
                         sorted(set(expected_rules)),
                         msg="\n".join(str(v) for v in violations))

    # -- rng ----------------------------------------------------------------

    def test_rng_std_engine_fails(self):
        self.assert_rules("#include <random>\nstd::mt19937 gen(42);\n",
                          ["rng"])

    def test_rng_random_device_fails(self):
        self.assert_rules("std::random_device rd;\n", ["rng"])

    def test_rng_libc_rand_fails(self):
        self.assert_rules("int x = rand();\nsrand(7);\n", ["rng"])

    def test_rng_time_seed_fails(self):
        self.assert_rules("long t = time(NULL);\n", ["rng"])
        self.assert_rules("auto t = std::time(nullptr);\n", ["rng"])

    def test_rng_distribution_fails(self):
        self.assert_rules("std::uniform_int_distribution<int> d(0, 9);\n",
                          ["rng"])

    def test_rng_allowlisted_file_passes(self):
        self.assert_rules("std::mt19937 reference_stream;\n", [],
                          rel="src/dsp/rng.cpp")

    def test_rng_clean_dsp_rng_usage_passes(self):
        self.assert_rules(
            '#include "dsp/rng.h"\n'
            "double x = rng.uniform();\n"
            "auto r = ctc::dsp::Rng::for_stream(seed, 3);\n", [])

    def test_rng_globally_qualified_calls_fail(self):
        self.assert_rules("long pid = ::getpid();\n", ["rng"])
        self.assert_rules("auto t = ::time(nullptr);\n", ["rng"])

    def test_rng_identifier_suffix_no_false_positive(self):
        # run_time(, .time(, ->time(, obj.rand( must not trip the lint.
        self.assert_rules(
            "double run_time(int);\n"
            "double v = obj.time();\nint r = gen.rand();\n", [])

    def test_rng_comment_mention_passes(self):
        self.assert_rules("// avoids std::mt19937 seeding pitfalls\n", [])

    def test_rng_in_mesh_subsystem_fails(self):
        # The sensor fan-out must draw from dsp::Rng::for_stream, never from
        # a std engine — same rule as everywhere else, zero mesh waivers.
        self.assert_rules("std::mt19937 per_sensor(sensor_id);\n", ["rng"],
                          rel="src/mesh/sensor_field.cpp")

    def test_rng_retired_det_lint_spelling_no_longer_waives(self):
        # The det-lint alias is retired (docs/STATIC_ANALYSIS.md).
        self.assert_rules(
            "std::mt19937 legacy;  // det-lint: allow(rng)\n", ["rng"])

    def test_rng_ctc_lint_waiver_suppresses(self):
        self.assert_rules(
            "std::mt19937 legacy;  // ctc-lint: allow(rng)\n", [])

    # -- clock --------------------------------------------------------------

    def test_clock_steady_clock_fails(self):
        self.assert_rules(
            "auto t0 = std::chrono::steady_clock::now();\n", ["clock"])

    def test_clock_system_clock_fails(self):
        self.assert_rules(
            "auto wall = std::chrono::system_clock::now();\n", ["clock"])

    def test_clock_telemetry_layer_passes(self):
        self.assert_rules(
            "start_ = std::chrono::steady_clock::now();\n", [],
            rel="src/sim/telemetry.h")

    def test_clock_perf_bench_allowlisted(self):
        self.assert_rules(
            "const auto start = std::chrono::steady_clock::now();\n", [],
            rel="bench/perf_engine.cpp")

    def test_clock_in_mesh_subsystem_fails(self):
        # src/mesh/ gets no special treatment: a clock read in the fusion or
        # localization code is a determinism bug, not a measurement.
        self.assert_rules(
            "auto t0 = std::chrono::steady_clock::now();\n", ["clock"],
            rel="src/mesh/sensor_field.cpp")

    def test_clock_perf_mesh_bench_allowlisted(self):
        self.assert_rules(
            "const auto start = std::chrono::steady_clock::now();\n", [],
            rel="bench/perf_mesh.cpp")

    def test_clock_duration_types_pass(self):
        # Durations and chrono arithmetic are fine; only clock *reads* leak
        # nondeterminism.
        self.assert_rules(
            "std::chrono::nanoseconds budget{5};\n"
            "using ms = std::chrono::milliseconds;\n", [])

    # -- unordered-iter -----------------------------------------------------

    REPORTING_PREAMBLE = (
        '#include <unordered_map>\n'
        'static const char* kOut = "report.json";\n')

    def test_unordered_range_for_in_report_writer_fails(self):
        self.assert_rules(
            self.REPORTING_PREAMBLE +
            "std::unordered_map<int, int> cells;\n"
            "void dump() { for (const auto& kv : cells) { use(kv); } }\n",
            ["unordered-iter"])

    def test_unordered_begin_in_report_writer_fails(self):
        self.assert_rules(
            self.REPORTING_PREAMBLE +
            "std::unordered_set<int> seen;\n"
            "auto it = seen.begin();\n",
            ["unordered-iter"])

    def test_unordered_membership_only_passes(self):
        self.assert_rules(
            self.REPORTING_PREAMBLE +
            "std::unordered_set<int> seen;\n"
            "bool dup = seen.count(3) > 0;\n"
            "void mark(int i) { seen.insert(i); }\n", [])

    def test_unordered_iteration_outside_report_writer_passes(self):
        # No report markers: hash-order iteration is the caller's business.
        self.assert_rules(
            "#include <unordered_map>\n"
            "std::unordered_map<int, int> lut;\n"
            "void warm() { for (auto& kv : lut) { touch(kv); } }\n", [])

    def test_ordered_map_iteration_in_report_writer_passes(self):
        self.assert_rules(
            '#include <map>\nstatic const char* kOut = "cells.csv";\n'
            "std::map<int, int> rows;\n"
            "void dump() { for (const auto& kv : rows) { emit(kv); } }\n", [])

    # -- intrinsics ---------------------------------------------------------

    def test_intrinsics_include_fails(self):
        self.assert_rules("#include <immintrin.h>\n", ["intrinsics"])

    def test_intrinsics_vector_type_fails(self):
        self.assert_rules("__m256d acc = _mm256_setzero_pd();\n",
                          ["intrinsics"])

    def test_intrinsics_sse_call_fails(self):
        self.assert_rules("int bits = _mm_popcnt_u32(word);\n",
                          ["intrinsics"])

    def test_intrinsics_kernel_layer_passes(self):
        self.assert_rules(
            "#include <immintrin.h>\n"
            "__m256d v = _mm256_loadu_pd(p);\n", [],
            rel="src/dsp/kernels/kernels_avx2.cpp")

    def test_intrinsics_comment_mention_passes(self):
        self.assert_rules("// the AVX2 path uses _mm256_fmadd_pd()\n", [])

    def test_intrinsics_builtin_popcount_passes(self):
        # Compiler builtins are portable across the dispatch levels; only
        # vendor vector intrinsics are fenced into the kernel layer.
        self.assert_rules("int bits = __builtin_popcount(word);\n", [])

    def test_intrinsics_waiver_suppresses(self):
        self.assert_rules(
            "#include <immintrin.h>  // ctc-lint: allow(intrinsics)\n", [])

    def test_intrinsics_retired_det_lint_spelling_no_longer_waives(self):
        self.assert_rules(
            "#include <immintrin.h>  // det-lint: allow(intrinsics)\n",
            ["intrinsics"])

    # -- telem-mix ----------------------------------------------------------

    def test_record_timer_outside_telemetry_fails(self):
        self.assert_rules(
            "ctc::sim::telemetry::record_timer(id, 125);\n", ["telem-mix"])

    def test_scoped_timer_outside_telemetry_fails(self):
        self.assert_rules(
            "ctc::sim::telemetry::ScopedTimer t(id + 1);\n", ["telem-mix"])

    def test_clock_value_into_counter_macro_fails(self):
        violations = self.lint_source(
            'CTC_TELEM_COUNT("rx", "decode_ns", elapsed_ns);\n')
        self.assertEqual({v.rule for v in violations}, {"telem-mix"})

    def test_chrono_value_into_gauge_macro_fails(self):
        source = ('CTC_TELEM_GAUGE("rx", "lag",\n'
                  '    std::chrono::steady_clock::now()'
                  '.time_since_epoch().count());\n')
        rules = {v.rule for v in self.lint_source(source)}
        self.assertIn("telem-mix", rules)

    def test_plain_counter_macro_passes(self):
        self.assert_rules(
            'CTC_TELEM_COUNT("rx", "frames", 1);\n'
            'CTC_TELEM_HISTO("rx", "hamming", distance);\n'
            'CTC_TELEM_TIMER("rx", "decode");\n', [])

    def test_telemetry_layer_machinery_allowlisted(self):
        self.assert_rules("record_timer(id_, ns); Kind::timer;\n", [],
                          rel="src/sim/telemetry.cpp")


class LintCliTest(unittest.TestCase):
    """End-to-end through ctc_lint: the exit codes and the real tree."""

    def run_lint(self, *args):
        return subprocess.run(
            [sys.executable, str(LINT), *args],
            capture_output=True, text=True)

    def test_repo_tree_is_clean(self):
        result = self.run_lint("--root", str(REPO_ROOT))
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_seeded_violation_fails_cli(self):
        # A file outside the scanned directories, named explicitly, gets
        # the determinism rules (how perfbench/src is linted).
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "src").mkdir()
            bad = Path(tmp) / "perfbench" / "bad.cpp"
            bad.parent.mkdir()
            bad.write_text("std::mt19937 gen;\n")
            result = self.run_lint("--root", tmp, str(bad))
            self.assertEqual(result.returncode, 1,
                             result.stdout + result.stderr)
            self.assertIn("[rng]", result.stdout)

    def test_list_rules(self):
        result = self.run_lint("--list-rules")
        self.assertEqual(result.returncode, 0)
        for rule in determinism.RULES:
            self.assertIn(rule, result.stdout)
        self.assertIn("allowlist [clock]:", result.stdout)


if __name__ == "__main__":
    unittest.main()
