"""Contract-registry cross-checks: the repo's cross-cutting contracts —
the dispatched kernel table, the versioned JSON schemas, the telemetry
metric families, the RNG stream-ID namespaces — extracted from the code
and verified against the documentation that promises them.

  kernel-registry   Every member of dsp::kernels::KernelTable (kernels.h)
                    must be registered in BOTH implementation tables
                    (kernels_scalar.cpp and kernels_avx2.cpp — explicitly
                    delegating an entry to scalar_impl counts), exercised
                    by tests/dsp/kernels_equivalence_test.cpp, carry an
                    equivalence-class annotation in its kernels.h section
                    header, and appear with the SAME class in the
                    docs/PERFORMANCE.md kernel table; every row of that
                    table must name a KernelTable member.

  schema-docs       Every `*_schema` version string emitted from src/ must
                    be documented: some docs/*.md file names the schema,
                    pins the same version number, and mentions every field
                    the emitter writes. (Docs may describe extra,
                    emitter-provided fields; the check is one-directional —
                    emitted ⊆ documented.)

  telemetry-registry  Every CTC_TELEM_{COUNT,GAUGE,HISTO,TIMER} site in
                    src/ must appear as `stage/name` in a
                    docs/TELEMETRY.md family table, and every family-table
                    row must name a metric some site in src/ emits.

  stream-ids        Every dsp::Rng::for_stream call site in src/ must be
                    registered below with the stream-ID namespace it owns
                    (the scheme documented in src/dsp/rng.h). Two sites
                    claiming one namespace — or an unregistered site, whose
                    separation nobody can prove — is a finding.
"""

from __future__ import annotations

import re
from pathlib import Path

from . import framework

KERNELS_HEADER = "src/dsp/kernels/kernels.h"
KERNEL_TABLES = ("src/dsp/kernels/kernels_scalar.cpp",
                 "src/dsp/kernels/kernels_avx2.cpp")
KERNEL_TEST = "tests/dsp/kernels_equivalence_test.cpp"
KERNEL_DOC = "docs/PERFORMANCE.md"
TELEMETRY_DOC = "docs/TELEMETRY.md"

# -- stream-ids registry ------------------------------------------------------
# dsp::Rng::for_stream namespace owners inside src/. Each entry records the
# id scheme its file implements — the schemes documented in src/dsp/rng.h.
# The seed column is what keeps the namespaces disjoint: two entries sharing
# a seed source would hand out colliding streams. Extend only together with
# the rng.h documentation block.
STREAM_ID_REGISTRY = {
    "src/dsp/rng.h": {
        "namespace": "definition",
        "scheme": "declares for_stream; owns no ids",
    },
    "src/dsp/rng.cpp": {
        "namespace": "definition",
        "scheme": "implements for_stream; owns no ids",
    },
    "src/sim/engine.h": {
        "namespace": "engine-trial",
        "scheme": "stream_id = run_index << 32 | trial_index on the engine "
                  "seed (sim::TrialEngine; campaign units inherit it via "
                  "unit.run_index)",
    },
    "src/sentry/source.cpp": {
        "namespace": "sentry-channel",
        "scheme": "stream_id = channel index on the sentry capture seed "
                  "(never an engine seed)",
    },
    "src/mesh/sensor_field.cpp": {
        "namespace": "mesh-sensor",
        "scheme": "stream_id = sensor index on a per-trial sensor_seed "
                  "drawn from the trial's engine stream",
    },
}

FOR_STREAM_RE = re.compile(r"\bfor_stream\s*\(")
TELEM_SITE_RE = re.compile(
    r'CTC_TELEM_(COUNT|GAUGE|HISTO|TIMER)\s*\(\s*"([^"]+)"\s*,\s*"([^"]+)"')
SCHEMA_NAME_RE = re.compile(r'\\?"([a-z][a-z0-9_]*_schema)\\?"')
ESCAPED_KEY_RE = re.compile(r'\\"([A-Za-z_][A-Za-z0-9_]*)\\"\s*:')
SET_KEY_RE = re.compile(r'\.\s*(?:set|at)\s*\(\s*"([A-Za-z_][A-Za-z0-9_]*)"')
DOC_TOKEN_RE = re.compile(r'[`"]([A-Za-z_][A-Za-z0-9_]*)[`"]')
DOC_KERNEL_ROW_RE = re.compile(r"^\|\s*`(\w+)`\s*\|\s*(bitwise|tolerance)\b")
DOC_FAMILY_ROW_RE = re.compile(
    r"^\|\s*`([a-z][a-z0-9_]*/[a-z][a-z0-9_]*)`\s*\|\s*"
    r"(?:counter|gauge|histo|timer)\s*\|")


def _tree_map(tree):
    return {source.rel: source for source in tree}


def _read_doc(root: Path, rel: str):
    path = root / rel
    if not path.is_file():
        return None
    return path.read_text(encoding="utf-8", errors="replace")


# -- kernel-registry ----------------------------------------------------------

def parse_kernel_table(header_source) -> list:
    """(name, line, equivalence_class) for every KernelTable member, the
    class taken from the most recent `// -- section (bitwise|tolerance)`
    comment above it (None when a member has no annotated section)."""
    members = []
    in_struct = False
    current_class = None
    # Annotations may carry a qualifier after the class: (bitwise,
    # lane-structured), (tolerance) ... — the class word is what binds.
    section_re = re.compile(r"//\s*--.*\((bitwise|tolerance)[^)]*\)")
    member_re = re.compile(r"\(\s*\*\s*(\w+)\s*\)\s*\(")
    for line_no, raw_line in enumerate(header_source.raw_lines, 1):
        if "struct KernelTable" in raw_line:
            in_struct = True
            current_class = None
            continue
        if not in_struct:
            continue
        if raw_line.strip().startswith("};"):
            break
        section = section_re.search(raw_line)
        if section:
            current_class = section.group(1)
        match = member_re.search(
            header_source.code_lines[line_no - 1]
            if line_no - 1 < len(header_source.code_lines) else "")
        if match:
            members.append((match.group(1), line_no, current_class))
    return members


def documented_kernels(doc_text: str) -> list:
    """(line, name, class) for every docs/PERFORMANCE.md class-table row
    (`| `name` | bitwise | ...`)."""
    rows = []
    for line_no, line in enumerate(doc_text.splitlines(), 1):
        match = DOC_KERNEL_ROW_RE.match(line)
        if match:
            rows.append((line_no, match.group(1), match.group(2)))
    return rows


def check_kernel_registry(tree, root: Path) -> list:
    findings = []
    sources = _tree_map(tree)
    header = sources.get(KERNELS_HEADER)
    if header is None:
        return [framework.Finding(
            KERNELS_HEADER, 1, "kernel-registry",
            "dispatch-table header not found — the kernel registry cannot "
            "be verified")]
    members = parse_kernel_table(header)
    if not members:
        return [framework.Finding(
            KERNELS_HEADER, 1, "kernel-registry",
            "no KernelTable members parsed — struct layout changed under "
            "the lint")]

    impl_sources = {rel: sources.get(rel) for rel in KERNEL_TABLES}
    test_source = sources.get(KERNEL_TEST)
    doc_text = _read_doc(root, KERNEL_DOC)
    doc_rows = documented_kernels(doc_text) if doc_text else []
    doc_classes = {name: cls for _, name, cls in doc_rows}

    for name, line, equivalence_class in members:
        if header.waived(line, "kernel-registry"):
            continue
        for rel, impl in impl_sources.items():
            if impl is None:
                findings.append(framework.Finding(
                    rel, 1, "kernel-registry",
                    f"kernel implementation table missing (needed for "
                    f"'{name}')"))
            elif not re.search(r"\.\s*" + name + r"\s*=", impl.code):
                findings.append(framework.Finding(
                    KERNELS_HEADER, line, "kernel-registry",
                    f"kernel '{name}' is not registered in {rel} — every "
                    "table entry needs scalar AND avx2 implementations "
                    "(delegating to scalar_impl explicitly is fine)"))
        if test_source is None or \
                not re.search(r"\b" + name + r"\s*\(", test_source.code):
            findings.append(framework.Finding(
                KERNELS_HEADER, line, "kernel-registry",
                f"kernel '{name}' has no reference in {KERNEL_TEST} — "
                "every kernel's equivalence class must be pinned by a test"))
        if equivalence_class is None:
            findings.append(framework.Finding(
                KERNELS_HEADER, line, "kernel-registry",
                f"kernel '{name}' sits in no annotated section — mark its "
                "section comment with (bitwise) or (tolerance)"))
        elif not doc_classes:
            findings.append(framework.Finding(
                KERNEL_DOC, 1, "kernel-registry",
                "no kernel class table found — document every kernel's "
                "equivalence class in a `| `name` | class |` table"))
            break
        elif name not in doc_classes:
            findings.append(framework.Finding(
                KERNELS_HEADER, line, "kernel-registry",
                f"kernel '{name}' missing from the {KERNEL_DOC} class "
                "table"))
        elif doc_classes[name] != equivalence_class:
            findings.append(framework.Finding(
                KERNELS_HEADER, line, "kernel-registry",
                f"kernel '{name}' is ({equivalence_class}) in kernels.h "
                f"but ({doc_classes[name]}) in {KERNEL_DOC} — the two "
                "registries must agree"))
    member_names = {name for name, _, _ in members}
    for line_no, name, _ in doc_rows:
        if name not in member_names:
            findings.append(framework.Finding(
                KERNEL_DOC, line_no, "kernel-registry",
                f"documented kernel `{name}` is no KernelTable member — "
                "drop the row (or restore the kernel) so the class table "
                "lists only dispatched kernels"))
    return findings


# -- schema-docs --------------------------------------------------------------

def _sibling_rels(rel: str):
    """The file itself plus its header/source twin — where version
    constants legitimately live."""
    rels = [rel]
    if rel.endswith(".cpp"):
        rels.append(rel[:-4] + ".h")
    elif rel.endswith(".h"):
        rels.append(rel[:-2] + ".cpp")
    return rels


def _schema_version_in_code(schema: str, rel: str, sources):
    """Version number the emitter pins: a literal `schema":N`, or a
    k*SchemaVersion constant in the file or its twin."""
    source = sources.get(rel)
    literal_re = re.compile(re.escape(schema) + r'\\?"\s*:\s*(\d+)')
    match = literal_re.search(source.code)
    if match:
        return int(match.group(1))
    const_re = re.compile(r"\bk\w*SchemaVersion\s*=\s*(\d+)")
    for candidate in _sibling_rels(rel):
        twin = sources.get(candidate)
        if twin is not None:
            match = const_re.search(twin.code)
            if match:
                return int(match.group(1))
    return None


def emitted_schema_fields(source) -> set:
    """JSON keys the file emits: escaped `\\"key\\":` string-literal keys
    plus `.set("key")`/`.at("key")` builder keys."""
    keys = set(ESCAPED_KEY_RE.findall(source.code))
    keys.update(SET_KEY_RE.findall(source.code))
    return keys


def check_schema_docs(tree, root: Path, doc_dir: str = "docs") -> list:
    findings = []
    sources = _tree_map(tree)
    docs = {}
    for path in sorted((root / doc_dir).glob("*.md")):
        docs[f"{doc_dir}/{path.name}"] = path.read_text(encoding="utf-8",
                                                        errors="replace")

    for source in tree:
        if not source.rel.startswith("src/"):
            continue
        schemas = sorted(set(SCHEMA_NAME_RE.findall(source.code)))
        if not schemas:
            continue
        fields = emitted_schema_fields(source)
        for schema in schemas:
            line_no = next(
                (no for no, text in enumerate(source.code_lines, 1)
                 if schema in text), 1)
            if source.waived(line_no, "schema-docs"):
                continue
            doc_rel = next((rel for rel, text in sorted(docs.items())
                            if schema in text), None)
            if doc_rel is None:
                findings.append(framework.Finding(
                    source.rel, line_no, "schema-docs",
                    f"emitted schema '{schema}' is documented nowhere under "
                    f"{doc_dir}/ — versioned output needs a field table"))
                continue
            doc_text = docs[doc_rel]
            code_version = _schema_version_in_code(schema, source.rel, sources)
            doc_version_match = re.search(
                re.escape(schema) + r'"?\s*:\s*(\d+)', doc_text)
            if code_version is not None and doc_version_match is None:
                findings.append(framework.Finding(
                    source.rel, line_no, "schema-docs",
                    f"'{schema}' version {code_version} is pinned in code "
                    f"but {doc_rel} never states a version"))
            elif (code_version is not None and
                  int(doc_version_match.group(1)) != code_version):
                findings.append(framework.Finding(
                    source.rel, line_no, "schema-docs",
                    f"'{schema}' is version {code_version} in code but "
                    f"{doc_version_match.group(1)} in {doc_rel} — bump the "
                    "doc with the emitter"))
            documented = set(DOC_TOKEN_RE.findall(doc_text))
            for field in sorted(fields):
                if field not in documented:
                    findings.append(framework.Finding(
                        source.rel, line_no, "schema-docs",
                        f"field '{field}' emitted next to '{schema}' is "
                        f"not documented in {doc_rel}"))
    return findings


# -- telemetry-registry -------------------------------------------------------

def telemetry_sites(tree) -> list:
    """(rel, line, kind, stage, name) for every macro site in src/."""
    sites = []
    for source in tree:
        if not source.rel.startswith("src/"):
            continue
        for line_no, line in enumerate(source.code_lines, 1):
            for match in TELEM_SITE_RE.finditer(line):
                sites.append((source.rel, line_no, match.group(1).lower(),
                              match.group(2), match.group(3)))
    return sites


def documented_families(doc_text: str) -> list:
    """(line, `stage/name`) for every docs/TELEMETRY.md family-table row
    (`| `stage/name` | kind | meaning |`)."""
    rows = []
    for line_no, line in enumerate(doc_text.splitlines(), 1):
        match = DOC_FAMILY_ROW_RE.match(line)
        if match:
            rows.append((line_no, match.group(1)))
    return rows


def check_telemetry_registry(tree, root: Path) -> list:
    doc_text = _read_doc(root, TELEMETRY_DOC)
    findings = []
    tree_map = _tree_map(tree)
    sites = telemetry_sites(tree)
    for rel, line_no, kind, stage, name in sites:
        if tree_map[rel].waived(line_no, "telemetry-registry"):
            continue
        family = f"{stage}/{name}"
        if doc_text is None or family not in doc_text:
            findings.append(framework.Finding(
                rel, line_no, "telemetry-registry",
                f"{kind} metric `{family}` is missing from the "
                f"{TELEMETRY_DOC} family tables — document it (stage, "
                "name, kind, meaning) where consumers look first"))
    if doc_text is None:
        return findings
    emitted = {f"{stage}/{name}" for _, _, _, stage, name in sites}
    for line_no, family in documented_families(doc_text):
        if family not in emitted:
            findings.append(framework.Finding(
                TELEMETRY_DOC, line_no, "telemetry-registry",
                f"documented metric `{family}` is emitted by no "
                "CTC_TELEM_* site in src/ — drop the row (or restore the "
                "metric) so the tables list only what a run can report"))
    return findings


# -- stream-ids ---------------------------------------------------------------

def check_stream_ids(tree, registry=None) -> list:
    if registry is None:
        registry = STREAM_ID_REGISTRY
    findings = []
    call_sites = {}
    for source in tree:
        if not source.rel.startswith("src/"):
            continue
        for line_no, line in enumerate(source.code_lines, 1):
            if FOR_STREAM_RE.search(line):
                call_sites.setdefault(source.rel, line_no)

    owners = {}
    for rel, entry in sorted(registry.items()):
        namespace = entry["namespace"]
        if namespace == "definition":
            continue
        if namespace in owners:
            findings.append(framework.Finding(
                rel, call_sites.get(rel, 1), "stream-ids",
                f"stream-ID namespace '{namespace}' is claimed by both "
                f"{owners[namespace]} and {rel} — two owners of one id "
                "space collide; derive a sub-seed (rng.h documents the "
                "sanctioned schemes) or merge the registry entries"))
        else:
            owners[namespace] = rel

    for rel, line_no in sorted(call_sites.items()):
        source = _tree_map(tree)[rel]
        if source.waived(line_no, "stream-ids"):
            continue
        if rel not in registry:
            findings.append(framework.Finding(
                rel, line_no, "stream-ids",
                "unregistered Rng::for_stream call site — nobody can prove "
                "its stream ids miss the engine/sentry/mesh namespaces. "
                "Register it in tools/lint/registries.py "
                "STREAM_ID_REGISTRY with the scheme it implements (see the "
                "stream-ID section of src/dsp/rng.h)"))
    for rel in sorted(registry):
        if registry[rel]["namespace"] != "definition" and rel not in call_sites:
            findings.append(framework.Finding(
                rel, 1, "stream-ids",
                "stale STREAM_ID_REGISTRY entry: file no longer calls "
                "for_stream — drop the entry so the registry stays an "
                "exact map of the id-space owners"))
    return findings


def run(tree, root: Path) -> list:
    findings = []
    findings += check_kernel_registry(tree, root)
    findings += check_schema_docs(tree, root)
    findings += check_telemetry_registry(tree, root)
    findings += check_stream_ids(tree)
    return findings
