"""Shared static-analysis framework for the ctc lint family.

Modules:
  framework   file walking, comment blanking, waiver parsing, findings,
              compile_commands-aware include resolution
  layering    architecture-layer conformance (layers.json)
  registries  contract-registry cross-checks (kernel table, JSON schemas,
              telemetry metric families, RNG stream-ID namespaces)
  determinism reproducibility rules (rng, clock, unordered-iter, telem-mix,
              intrinsics)
  reach       library functions no production binary links (reads a build)

The driver lives one directory up: tools/ctc_lint.py runs the source
families; reach.py runs on its own (the lint.reach ctest). See
docs/STATIC_ANALYSIS.md for the rule catalog.
"""
