#!/usr/bin/env python3
"""reach: every out-of-line function the ctc libraries export is linked by a
production binary, or allowlisted below with a reason.

The production binaries are every bench, every example, ctc_campaign and
ctc_sentry (the repo build's `ctc_production` target, which writes their
paths to production_binaries.txt) plus perfbench's ctc_perfbench and
perfbench_selfcheck. Tests do not count: an oracle belongs in tests/, not
in a library that only tests link.

The rule diffs `nm -C` of two things in one build: the global text symbols
of every libctc_*.a, and the text symbols left in the production binaries.
Names are demangled with their parameter lists, so two overloads stay
apart. The build is compiled at -O0 -ffunction-sections -fdata-sections and
linked with -Wl,--gc-sections: the linker then keeps exactly the functions
some binary can reach, and -O0 keeps every call out of line, so a function
whose every call was inlined still counts as reached. Header inlines and
templates are invisible to the rule (they export no global text symbol).

An allowlist entry that a binary links, or that no library defines any
more, is itself a finding, so the list cannot go stale.

Usage:
    tools/lint/reach.py [--root DIR] --work DIR

--work holds the rule's own build: DIR/ctc (the repo) and DIR/perfbench,
configured and built first (incrementally on reruns) with 4 jobs. Exit
0 = clean, 1 = findings, 2 = build or usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from lint import framework  # noqa: E402

RULE = "reach"
SELF = "tools/lint/reach.py"
COMPILE_FLAGS = "-O0 -ffunction-sections -fdata-sections"
LINK_FLAGS = "-Wl,--gc-sections"
BINARY_LIST = "production_binaries.txt"
JOBS = 4
PERFBENCH_BINARIES = ("ctc_perfbench", "perfbench_selfcheck")

# Exported functions no production binary links, kept on purpose: demangled
# symbol -> reason. Keep it short; an oracle belongs in tests/.
ALLOWLIST = {
    "ctc::dsp::kernels::gauss_log(double)":
        "add_gauss's log polynomial, exported for the accuracy tests that "
        "sweep it against libm",
    "ctc::dsp::kernels::gauss_sincos_2pi(double, double*, double*)":
        "add_gauss's sincos polynomials, exported for the accuracy tests "
        "that sweep them against libm",
    "ctc::sim::telemetry::reset()":
        "test hook: clears the process-wide registry between test cases",
    "ctc::attack::WaveformEmulator::emulate_symbol(std::span<std::complex"
    "<double> const, 18446744073709551615ul>, std::span<unsigned long const, "
    "18446744073709551615ul>, double, ctc::attack::SymbolDiagnostics*, "
    "std::vector<std::complex<double>, std::allocator<std::complex<double> > "
    ">*) const":
        "the per-slot step the slot-cache oracle compares emulate() against",
    "ctc::attack::Eavesdropper::Eavesdropper(ctc::attack::EavesdropConfig)":
        "the paper's Sec. IV-A listening stage; whether it gets a caller or "
        "goes is an open ROADMAP choice",
    "ctc::attack::Eavesdropper::listen(std::span<std::complex<double> const, "
    "18446744073709551615ul>, ctc::dsp::Rng&) const":
        "the paper's Sec. IV-A listening stage; whether it gets a caller or "
        "goes is an open ROADMAP choice",
    "ctc::channel::add_awgn(std::span<std::complex<double> const, "
    "18446744073709551615ul>, double, ctc::dsp::Rng&)":
        "the Eavesdropper's capture noise (its only caller)",
}

NM_LINE_RE = re.compile(r"^[0-9a-fA-F]*\s+([A-Za-z])\s+(.+)$")


def parse_nm(text: str, exported_only: bool) -> dict:
    """{demangled name: archive member} for the text symbols in `nm -C
    --defined-only` output. `exported_only` keeps global (T) symbols;
    otherwise any text symbol (T, t, W, w) counts."""
    kinds = "T" if exported_only else "TtWw"
    member = ""
    symbols = {}
    for line in text.splitlines():
        if line.endswith(":") and not line.startswith(" "):
            member = line[:-1]
            continue
        match = NM_LINE_RE.match(line)
        if match and match.group(1) in kinds:
            symbols.setdefault(match.group(2), member)
    return symbols


def run_nm(path: Path) -> str:
    return subprocess.run(["nm", "-C", "--defined-only", str(path)],
                          capture_output=True, text=True, check=True).stdout


def exported_functions(archives) -> dict:
    """{demangled name: (archive, member)} over every libctc_*.a."""
    exported = {}
    for archive in archives:
        for name, member in parse_nm(run_nm(archive), True).items():
            exported.setdefault(name, (Path(archive), member))
    return exported


def linked_functions(binaries) -> set:
    linked = set()
    for binary in binaries:
        linked.update(parse_nm(run_nm(binary), False))
    return linked


def _bare_name(symbol: str) -> str:
    """`ns::Class::fn(args) const` -> `Class::fn` (or `fn` when free)."""
    head = symbol.split("(", 1)[0]
    parts = head.split("::")
    return "::".join(parts[-2:]) if len(parts) > 1 else head


def _definition_line(text: str, symbol: str) -> int:
    """Line of `symbol`'s definition in its source, best effort (1 when
    the name is not found)."""
    qualified = _bare_name(symbol)
    for name in (qualified, qualified.split("::")[-1]):
        match = re.search(r"(?<![\w:])" + re.escape(name) + r"\s*\(", text)
        if match:
            return text.count("\n", 0, match.start()) + 1
    return 1


def _sources_by_object(root: Path, build: Path) -> dict:
    """{(target dir, object basename): root-relative source} from the
    build's compile_commands.json, so a symbol's archive member names the
    file that defines it."""
    database = build / "compile_commands.json"
    if not database.is_file():
        return {}
    sources = {}
    for entry in json.loads(database.read_text()):
        output = entry.get("output")
        if output is None:
            match = re.search(r"\s-o\s+(\S+)", entry.get("command", ""))
            output = match.group(1) if match else ""
        output = Path(output)
        source = Path(entry["file"]).resolve()
        try:
            rel = source.relative_to(root.resolve()).as_posix()
        except ValueError:
            continue
        sources[(output.parent.name, output.name)] = rel
    return sources


def check_reach(exported: dict, linked: set, allowlist=None, locate=None,
                self_text: str = "") -> list:
    """Findings for exported functions no production binary links and for
    stale allowlist entries. `locate(symbol, archive, member)` maps a
    symbol to its (path, line); `self_text` is this file's text, to point
    allowlist findings at their entry."""
    allowlist = ALLOWLIST if allowlist is None else allowlist
    findings = []
    for symbol in sorted(exported):
        if symbol in linked or symbol in allowlist:
            continue
        archive, member = exported[symbol]
        path, line = (locate(symbol, archive, member) if locate
                      else (f"{archive.name}({member})", 1))
        findings.append(framework.Finding(
            path, line, RULE,
            f"{symbol} is linked by no production binary — delete it, move "
            "it to tests/ as an oracle, or allowlist it with a reason"))
    for symbol in allowlist:
        line = 1
        head = symbol.split("(", 1)[0]
        index = self_text.find('"' + head)
        if index >= 0:
            line = self_text.count("\n", 0, index) + 1
        if symbol not in exported:
            findings.append(framework.Finding(
                SELF, line, RULE,
                f"allowlisted {symbol} is defined by no library — drop the "
                "stale entry"))
        elif symbol in linked:
            findings.append(framework.Finding(
                SELF, line, RULE,
                f"allowlisted {symbol} is linked by a production binary — "
                "drop the stale entry"))
    return findings


def _step(command, timeout=1800) -> None:
    print("reach: " + " ".join(str(part) for part in command),
          file=sys.stderr, flush=True)
    result = subprocess.run([str(part) for part in command],
                            stdout=sys.stderr, stderr=sys.stderr,
                            timeout=timeout)
    if result.returncode != 0:
        raise RuntimeError(f"{command[0]} exited with {result.returncode}")


def build(root: Path, work: Path) -> None:
    """Configures and builds the production binaries at the rule's flags:
    the repo into work/ctc, then perfbench against it (no perfbench file
    is edited)."""
    flags = [
        "-DCMAKE_BUILD_TYPE=Reach",
        f"-DCMAKE_CXX_FLAGS={COMPILE_FLAGS}",
        f"-DCMAKE_EXE_LINKER_FLAGS={LINK_FLAGS}",
    ]
    ctc = work / "ctc"
    _step(["cmake", "-S", root, "-B", ctc, *flags])
    _step(["cmake", "--build", ctc, "--target", "ctc_production",
           "--parallel", str(JOBS)])
    perfbench = work / "perfbench"
    _step(["cmake", "-S", root / "perfbench", "-B", perfbench,
           f"-DCTC_BUILD={ctc}", *flags])
    _step(["cmake", "--build", perfbench, "--target", *PERFBENCH_BINARIES,
           "--parallel", str(JOBS)])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="reach.py",
        description="library functions no production binary links")
    parser.add_argument("--root", default=None,
                        help="repo root (default: two levels above this file)")
    parser.add_argument("--work", required=True,
                        help="the rule's build directory")
    args = parser.parse_args(argv)

    root = (Path(args.root) if args.root
            else Path(__file__).resolve().parents[2]).resolve()
    work = Path(args.work).resolve()
    try:
        build(root, work)
        ctc = work / "ctc"
        listing = ctc / BINARY_LIST
        binaries = [Path(line) for line in
                    listing.read_text().splitlines() if line.strip()]
        binaries += [work / "perfbench" / name for name in PERFBENCH_BINARIES]
        archives = sorted((ctc / "src").rglob("libctc_*.a"))
        missing = [path for path in binaries + archives if not path.is_file()]
        if missing or not archives:
            raise RuntimeError("missing build outputs: " +
                               ", ".join(str(path) for path in missing[:5]))
        exported = exported_functions(archives)
        linked = linked_functions(binaries)
    except (OSError, RuntimeError, subprocess.SubprocessError) as error:
        print(f"reach.py: {error}", file=sys.stderr)
        return 2

    objects = _sources_by_object(root, ctc)
    texts = {}

    def locate(symbol, archive, member):
        target = archive.name[len("lib"):-len(".a")] + ".dir"
        rel = objects.get((target, member))
        if rel is None:
            return f"{archive.name}({member})", 1
        if rel not in texts:
            texts[rel] = (root / rel).read_text(encoding="utf-8",
                                                errors="replace")
        return rel, _definition_line(texts[rel], symbol)

    self_text = Path(__file__).read_text(encoding="utf-8")
    findings = check_reach(exported, linked, ALLOWLIST, locate, self_text)
    findings.sort(key=lambda f: (f.path, f.line, f.message))
    report = framework.render_report(findings, len(archives) + len(binaries),
                                     "reach")
    sys.stdout.write(report)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
