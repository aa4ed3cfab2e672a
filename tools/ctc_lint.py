#!/usr/bin/env python3
"""ctc_lint: architecture, contract and determinism lint for the ctc tree.

Three analyzer families, built on the tools/lint/ framework:

  layering    layer-dep / layer-cycle / layer-unmapped — the
              docs/ARCHITECTURE.md dependency table (machine-readable in
              tools/lint/layers.json) enforced over every #include in
              src/ bench/ tools/ examples/ tests/.

  registries  kernel-registry / schema-docs / telemetry-registry /
              stream-ids — cross-checks between the code's cross-cutting
              contracts (dsp::kernels dispatch table, emitted *_schema
              JSON, CTC_TELEM_* metric families, Rng::for_stream id
              namespaces) and the docs that promise them.

  determinism rng / clock / unordered-iter / telem-mix / intrinsics — the
              reproducibility rules (all randomness via dsp::Rng, no wall
              clocks outside telemetry and perf benches, no unordered
              iteration in report writers, no timer values in
              deterministic counters, raw SIMD only in the kernel layer).

The reach rule (tools/lint/reach.py, the lint.reach ctest) reads a build
rather than the sources, so it runs on its own.

Usage:
    tools/ctc_lint.py [--root DIR] [--build-dir DIR] [--report FILE]
                      [--list-rules] [files...]

With no files, scans the whole tree. Explicit files restrict the
per-file rules (layer-dep, telemetry-registry...) to those files; the
whole-tree registries still load the full tree so cross-checks stay
sound. An explicit file outside the scanned directories (perfbench/, say)
gets the determinism rules. Exit 0 = clean, 1 = findings, 2 = usage/spec
error.

Waive a finding with `// ctc-lint: allow(<rule>)` on the flagged line
(see docs/STATIC_ANALYSIS.md for the waiver policy).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from lint import determinism, framework, layering, registries  # noqa: E402

RULES = {
    "layer-dep": "include crosses layers not declared in layers.json",
    "layer-cycle": "cyclic includes, or a cyclic declared layer graph",
    "layer-unmapped": "src/ file belongs to no declared layer",
    "kernel-registry": "KernelTable entry missing impl/test/class docs",
    "schema-docs": "emitted *_schema version or field not documented",
    "telemetry-registry": "CTC_TELEM_* family missing from TELEMETRY.md",
    "stream-ids": "Rng::for_stream site unregistered or namespace collision",
    **determinism.RULES,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ctc_lint.py",
        description="architecture + contract conformance lint")
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of tools/)")
    parser.add_argument("--build-dir", default=None,
                        help="build tree holding compile_commands.json "
                             "(default: first build*/ under root)")
    parser.add_argument("--report", default=None, metavar="FILE",
                        help="also write the findings report to FILE")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    parser.add_argument("files", nargs="*",
                        help="restrict per-file rules to these files")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, blurb in RULES.items():
            print(f"{rule:20} {blurb}")
        for rule, allowlist in determinism.ALLOWLISTS.items():
            print(f"allowlist [{rule}]:")
            for path, reason in allowlist.items():
                print(f"  {path}: {reason}")
        print("allowlist [intrinsics]:")
        print(f"  {determinism.INTRINSICS_ALLOWED_PREFIX}*: the dispatched "
              "kernel layer (scalar twin + equivalence contracts)")
        return 0

    root = (Path(args.root) if args.root
            else Path(__file__).resolve().parent.parent).resolve()
    if not (root / "src").is_dir():
        print(f"ctc_lint.py: no src/ under root {root}", file=sys.stderr)
        return 2

    try:
        spec = layering.load_spec()
    except (OSError, ValueError) as error:
        print(f"ctc_lint.py: cannot load layer spec: {error}",
              file=sys.stderr)
        return 2

    tree = framework.load_tree(root)
    include_dirs = framework.include_dirs_from_compile_commands(
        root, args.build_dir)

    findings = []
    findings += layering.run(tree, root, include_dirs, spec)
    findings += registries.run(tree, root)
    findings += determinism.run(tree)

    if args.files:
        keep = set()
        scanned = {source.rel for source in tree}
        for name in args.files:
            path = Path(name)
            if not path.is_absolute():
                path = Path.cwd() / path
            try:
                rel = path.resolve().relative_to(root).as_posix()
            except ValueError:
                print(f"ctc_lint.py: {name} is outside root {root}",
                      file=sys.stderr)
                return 2
            keep.add(rel)
            if rel not in scanned:
                findings += determinism.lint_source(
                    framework.SourceFile.load(path, rel))
        findings = [finding for finding in findings if finding.path in keep]

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    report = framework.render_report(findings, len(tree), "ctc_lint")
    sys.stdout.write(report)
    if args.report:
        Path(args.report).write_text(report, encoding="utf-8")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
