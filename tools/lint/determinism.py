"""Determinism rules: static checks for the reproducibility contract.

The repo's core contract is bit-identical simulation output for a fixed seed
at any thread count, shard partition, or kill/resume boundary. The CI diff
gates catch violations *dynamically* — but only when the scheduler happens
to expose them. These rules enforce the reproducibility rules *statically*:

  rng            All randomness flows through ctc::dsp::Rng. Standard-library
                 engines (std::mt19937, std::random_device, ...), libc
                 rand()/srand()/drand48(), and wall-clock seeds (time(),
                 clock(), getpid(), ...) are banned outside src/dsp/rng.{h,cpp}.

  clock          std::chrono clock reads are banned outside the telemetry
                 timer layer and the explicitly-allowlisted perf benches
                 whose *measurand* is wall time. Everything else must not
                 let a clock value near a report.

  unordered-iter Files that write report/manifest/CSV output must not
                 iterate std::unordered_map/std::unordered_set — hash-order
                 iteration silently reorders emitted rows between libstdc++
                 versions and ASLR runs. Membership tests are fine.

  telem-mix      Telemetry timer machinery (record_timer, ScopedTimer,
                 Kind::timer) stays inside the telemetry layer, and the
                 deterministic CTC_TELEM_COUNT/GAUGE/HISTO macros must never
                 be fed clock-derived values — wall time belongs in timer
                 metrics, which determinism-checked output excludes.

  intrinsics     Raw SIMD intrinsics (<immintrin.h>, __m128/__m256/__m512
                 vector types, _mm*_ calls) are banned outside
                 src/dsp/kernels/. Hand-vectorized code is only bitwise-safe
                 when it honors the kernel layer's lane/tail contracts and
                 ships with a scalar twin behind runtime dispatch — ad-hoc
                 intrinsics elsewhere fork numerics between build hosts.

A finding can be waived inline with `// ctc-lint: allow(<rule>)` on the
flagged line (see docs/STATIC_ANALYSIS.md); waivers are expected to be rare
and justified in an adjacent comment. Allowlisted files are enumerated
below WITH the reason they are exempt — extend the list only with a reason.
tools/ctc_lint.py runs these rules with its other families.
"""

from __future__ import annotations

import re

from . import framework

RULES = {
    "rng": "randomness outside dsp::Rng (std engines, libc rand, time seeds)",
    "clock": "std::chrono clock read outside telemetry and perf benches",
    "unordered-iter": "unordered container iterated in a report writer",
    "telem-mix": "timer machinery or clock values in deterministic telemetry",
    "intrinsics": "raw SIMD intrinsics outside src/dsp/kernels/",
}

# Files exempt from a rule, path (relative to --root, POSIX separators) ->
# justification. ctc_lint --list-rules prints the justifications so the
# policy stays reviewable.
RNG_ALLOWLIST = {
    "src/dsp/rng.h": "the one blessed randomness implementation",
    "src/dsp/rng.cpp": "the one blessed randomness implementation",
}
CLOCK_ALLOWLIST = {
    "src/sim/telemetry.h": "the telemetry timer layer (ScopedTimer)",
    "src/sim/telemetry.cpp": "the telemetry timer layer",
    "bench/perf_engine.cpp":
        "throughput bench: wall time IS the measurand (trajectory-gated, "
        "never diffed for determinism)",
    "bench/ablation_likelihood.cpp":
        "latency ablation: reports per-call wall time by design",
    "bench/perf_hotpath.cpp":
        "kernel micro-bench: wall time IS the measurand (trajectory-gated, "
        "never diffed for determinism)",
    "src/sentry/source.h":
        "RateLimitedSource pacing deadline: the clock throttles *when* "
        "samples are released, never *which* samples — verdict output stays "
        "clock-free (gated by tools/sentry_determinism.sh)",
    "src/sentry/source.cpp":
        "RateLimitedSource sleep_until pacing — same rationale as source.h",
    "bench/perf_sentry.cpp":
        "throughput/latency bench: wall time IS the measurand "
        "(trajectory-gated, never diffed for determinism)",
    "bench/perf_mesh.cpp":
        "sensor-field throughput bench: wall time IS the measurand "
        "(trajectory-gated, never diffed for determinism; the thread-"
        "replay equality bit is clock-free)",
}
TELEM_ALLOWLIST = {
    "src/sim/telemetry.h": "defines the timer machinery",
    "src/sim/telemetry.cpp": "implements the timer machinery",
    "bench/bench_common.h":
        "renders timer metrics in the human-readable summary table",
    "tests/sim/telemetry_test.cpp": "tests the timer machinery",
    "tests/sim/telemetry_disabled_test.cpp": "tests the compiled-out macros",
}

ALLOWLISTS = {
    "rng": RNG_ALLOWLIST,
    "clock": CLOCK_ALLOWLIST,
    "telem-mix": TELEM_ALLOWLIST,
}

# -- rule: rng ---------------------------------------------------------------

RNG_PATTERNS = [
    (re.compile(r"\bstd::mt19937(?:_64)?\b"), "std::mt19937 engine"),
    (re.compile(r"\bstd::minstd_rand0?\b"), "std::minstd_rand engine"),
    (re.compile(r"\bstd::default_random_engine\b"), "std::default_random_engine"),
    (re.compile(r"\bstd::ranlux\w+\b"), "std::ranlux engine"),
    (re.compile(r"\bstd::knuth_b\b"), "std::knuth_b engine"),
    (re.compile(r"\bstd::random_device\b"), "std::random_device (nondeterministic seed source)"),
    (re.compile(r"\bstd::(?:uniform_int|uniform_real|normal|bernoulli|poisson|exponential)_distribution\b"),
     "std <random> distribution (unspecified algorithm: values differ across standard libraries)"),
    (re.compile(r"(?<![\w.:>])s?rand\s*\("), "libc rand()/srand()"),
    (re.compile(r"(?<![\w.:>])[ljm]?rand48\s*\("), "libc *rand48()"),
    (re.compile(r"(?<![\w.:>])random\s*\("), "libc random()"),
    (re.compile(r"\bstd::time\s*\("), "std::time() wall clock"),
    (re.compile(r"(?<![\w.:>])time\s*\(\s*(?:NULL|nullptr|0|\))"), "time() wall clock"),
    (re.compile(r"(?<![\w.:>])clock\s*\(\s*\)"), "clock() processor time"),
    (re.compile(r"(?<![\w.:>])clock_gettime\s*\("), "clock_gettime()"),
    (re.compile(r"(?<![\w.:>])gettimeofday\s*\("), "gettimeofday()"),
    (re.compile(r"(?<![\w.:>])getpid\s*\(\s*\)"), "getpid() (process-dependent value)"),
    # Globally-qualified spellings (::getpid(), ::time(...)) must not slip
    # past the bare-name patterns above. The lookbehind keeps std::/other
    # namespace qualifications out (std::time has its own pattern).
    (re.compile(r"(?<![\w>])::(?:getpid|gettimeofday|clock_gettime|time|clock|rand|srand|random|drand48)\s*\("),
     "globally-qualified libc time/rand/pid call"),
]

# -- rule: clock -------------------------------------------------------------

CLOCK_RE = re.compile(
    r"\bstd::chrono::(?:steady_clock|system_clock|high_resolution_clock)\b")

# -- rule: unordered-iter ----------------------------------------------------

# A file counts as report-writing when it mentions any artifact it could be
# emitting ordered output into.
REPORT_MARKERS = (
    "report.json", "manifest.json", "cells.csv", "telemetry.json",
    "JsonReport", "to_json",
)
UNORDERED_DECL_RE = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<[^;{]*?>\s+(\w+)")
UNORDERED_DIRECT_ITER_RE = re.compile(
    r"for\s*\([^;)]*:\s*[^)]*\bstd::unordered_(?:map|set|multimap|multiset)\b")

# -- rule: intrinsics --------------------------------------------------------

# The one directory allowed to speak raw SIMD. Everyone else calls through
# the dispatched dsp::kernels::KernelTable, which carries the scalar twin
# and the lane/tail equivalence contracts.
INTRINSICS_ALLOWED_PREFIX = "src/dsp/kernels/"
INTRINSICS_PATTERNS = [
    (re.compile(r"#\s*include\s*[<\"](?:imm|x86|xmm|emm|pmm|tmm|smm|nmm|wmm|avx\w*)intrin\.h[>\"]"),
     "vendor intrinsics header"),
    (re.compile(r"\b__m(?:128|256|512)[di]?\b"), "raw SIMD vector type"),
    (re.compile(r"\b_mm(?:256|512)?_\w+\s*\("), "raw SIMD intrinsic call"),
]

# -- rule: telem-mix ---------------------------------------------------------

TELEM_MACHINERY_RE = re.compile(
    r"\b(?:record_timer\s*\(|ScopedTimer\b|Kind::timer\b)")
TELEM_DET_MACRO_RE = re.compile(r"\bCTC_TELEM_(?:COUNT|GAUGE|HISTO)\s*\(")
CLOCKISH_ARG_RE = re.compile(
    r"std::chrono|::now\s*\(|\belapsed\w*\b|\bnanoseconds\b|_ns\b")


def extract_macro_args(code: str, start: int) -> str:
    """Returns the balanced-paren argument text of a macro call whose
    opening paren is at/after `start` (capped scan; macros here are short)."""
    open_idx = code.find("(", start)
    if open_idx < 0:
        return ""
    depth = 0
    for i in range(open_idx, min(len(code), open_idx + 2000)):
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
            if depth == 0:
                return code[open_idx + 1:i]
    return code[open_idx + 1:open_idx + 2000]


def lint_source(source: framework.SourceFile) -> list:
    """All determinism rules over one loaded SourceFile."""
    rel = source.rel
    raw = source.raw
    code = source.code
    code_lines = source.code_lines
    violations = []

    def flag(line_no: int, rule: str, message: str) -> None:
        if source.waived(line_no, rule):
            return
        violations.append(framework.Finding(rel, line_no, rule, message))

    # rng -------------------------------------------------------------------
    if rel not in RNG_ALLOWLIST:
        for line_no, line in enumerate(code_lines, 1):
            for pattern, what in RNG_PATTERNS:
                if pattern.search(line):
                    flag(line_no, "rng",
                         f"{what} — all randomness must flow through "
                         "ctc::dsp::Rng (src/dsp/rng.h)")

    # clock -----------------------------------------------------------------
    if rel not in CLOCK_ALLOWLIST:
        for line_no, line in enumerate(code_lines, 1):
            if CLOCK_RE.search(line):
                flag(line_no, "clock",
                     "std::chrono clock read outside the telemetry timer "
                     "layer — wall time must never feed report output")

    # unordered-iter --------------------------------------------------------
    if any(marker in raw for marker in REPORT_MARKERS):
        unordered_vars = set(UNORDERED_DECL_RE.findall(code))
        iter_res = [
            (var, re.compile(r"for\s*\([^;)]*:\s*[^)]*\b" + re.escape(var) + r"\b"))
            for var in unordered_vars
        ] + [
            (var, re.compile(r"\b" + re.escape(var) + r"\s*\.\s*c?begin\s*\("))
            for var in unordered_vars
        ]
        for line_no, line in enumerate(code_lines, 1):
            if UNORDERED_DIRECT_ITER_RE.search(line):
                flag(line_no, "unordered-iter",
                     "iteration over an unordered container in a "
                     "report-writing file — hash order is not deterministic")
                continue
            for var, pattern in iter_res:
                if pattern.search(line):
                    flag(line_no, "unordered-iter",
                         f"iteration over unordered container '{var}' in a "
                         "report-writing file — hash order is not "
                         "deterministic")
                    break

    # intrinsics ------------------------------------------------------------
    if not rel.startswith(INTRINSICS_ALLOWED_PREFIX):
        for line_no, line in enumerate(code_lines, 1):
            for pattern, what in INTRINSICS_PATTERNS:
                if pattern.search(line):
                    flag(line_no, "intrinsics",
                         f"{what} outside {INTRINSICS_ALLOWED_PREFIX} — "
                         "hand-vectorized code belongs in the dispatched "
                         "kernel layer (dsp::kernels) next to its scalar "
                         "twin")
                    break

    # telem-mix -------------------------------------------------------------
    if rel not in TELEM_ALLOWLIST:
        for line_no, line in enumerate(code_lines, 1):
            if TELEM_MACHINERY_RE.search(line):
                flag(line_no, "telem-mix",
                     "telemetry timer machinery used outside the telemetry "
                     "layer — instrument with CTC_TELEM_TIMER instead")
    for match in TELEM_DET_MACRO_RE.finditer(code):
        args = extract_macro_args(code, match.start())
        if CLOCKISH_ARG_RE.search(args):
            line_no = code.count("\n", 0, match.start()) + 1
            flag(line_no, "telem-mix",
                 "clock-derived value fed into a deterministic telemetry "
                 "macro — wall time belongs in CTC_TELEM_TIMER metrics, "
                 "which determinism-checked output excludes")

    return violations


def run(tree) -> list:
    """Every determinism rule over every loaded SourceFile."""
    findings = []
    for source in tree:
        findings += lint_source(source)
    return findings
