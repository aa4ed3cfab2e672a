#!/usr/bin/env python3
"""Unit tests for ctc_lint.py: every rule must fire on a seeded violation
fixture and stay silent on the idiomatic clean counterpart, and the real
tree must lint clean.

Run directly (python3 tools/test_ctc_lint.py) or via ctest
(tools.ctc_lint_py)."""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

TOOLS_DIR = Path(__file__).resolve().parent
REPO_ROOT = TOOLS_DIR.parent
CTC_LINT = TOOLS_DIR / "ctc_lint.py"
GEN_HEADER_CHECKS = TOOLS_DIR / "lint" / "gen_header_checks.py"

sys.path.insert(0, str(TOOLS_DIR))
from lint import framework, layering, reach, registries  # noqa: E402


def make_tree(files):
    """{rel: source} -> [SourceFile], sorted like load_tree would."""
    return [framework.SourceFile(rel, text)
            for rel, text in sorted(files.items())]


def rules_of(findings):
    return sorted({f.rule for f in findings})


SPEC_FIXTURE = {
    "layers": {
        "telemetry": {"paths": ["src/sim/telemetry.h"], "deps": []},
        "dsp": {"paths": ["src/dsp/"], "deps": []},
        "zigbee": {"paths": ["src/zigbee/"], "deps": ["dsp"]},
        "sim": {"paths": ["src/sim/"], "deps": ["dsp", "zigbee", "telemetry"]},
    },
    "consumers": {"paths": ["tests/"]},
}


def load_fixture_spec(spec=None):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "layers.json"
        path.write_text(json.dumps(spec or SPEC_FIXTURE))
        return layering.load_spec(path)


class LayerDepTest(unittest.TestCase):
    def setUp(self):
        self.spec = load_fixture_spec()

    def deps(self, files):
        return layering.check_layer_deps(make_tree(files), self.spec)

    def test_declared_edge_passes(self):
        findings = self.deps(
            {"src/zigbee/receiver.cpp": '#include "dsp/fft.h"\n'})
        self.assertEqual(findings, [])

    def test_undeclared_edge_fires(self):
        findings = self.deps(
            {"src/zigbee/receiver.cpp": '#include "sim/link.h"\n'})
        self.assertEqual(rules_of(findings), ["layer-dep"])
        self.assertIn("UPWARD", findings[0].message)

    def test_sideways_undeclared_edge_is_not_upward(self):
        findings = self.deps(
            {"src/dsp/fft.cpp": '#include "sim/telemetry.h"\n'})
        self.assertEqual(rules_of(findings), ["layer-dep"])
        self.assertIn("undeclared cross-layer edge", findings[0].message)

    def test_carved_out_telemetry_wins_longest_prefix(self):
        # telemetry is declared for sim but carved out of it: a zigbee file
        # including telemetry is a finding (zigbee declares only dsp), while
        # a sim file including it is fine.
        findings = self.deps(
            {"src/zigbee/mod.cpp": '#include "sim/telemetry.h"\n',
             "src/sim/engine.h": '#include "sim/telemetry.h"\n'})
        self.assertEqual(len(findings), 1)
        self.assertEqual(findings[0].path, "src/zigbee/mod.cpp")

    def test_intra_layer_and_system_includes_pass(self):
        findings = self.deps(
            {"src/dsp/fft.cpp":
             '#include <vector>\n#include "dsp/types.h"\n'})
        self.assertEqual(findings, [])

    def test_consumer_may_include_any_layer(self):
        findings = self.deps(
            {"tests/sim/engine_test.cpp":
             '#include "sim/link.h"\n#include "dsp/fft.h"\n'})
        self.assertEqual(findings, [])

    def test_unmapped_src_file_fires(self):
        findings = self.deps({"src/newthing/widget.cpp": "int x;\n"})
        self.assertEqual(rules_of(findings), ["layer-unmapped"])

    def test_waiver_suppresses_only_the_ctc_lint_spelling(self):
        # det-lint: was a deprecated alias and is retired.
        for spelling, expected in (("ctc-lint", []),
                                   ("det-lint", ["layer-dep"])):
            findings = self.deps(
                {"src/zigbee/receiver.cpp":
                 f'#include "sim/link.h"  // {spelling}: allow(layer-dep)\n'})
            self.assertEqual(rules_of(findings), expected, msg=spelling)


class LayerCycleTest(unittest.TestCase):
    def test_cyclic_spec_fires(self):
        spec = load_fixture_spec({
            "layers": {
                "a": {"paths": ["src/a/"], "deps": ["b"]},
                "b": {"paths": ["src/b/"], "deps": ["a"]},
            },
            "consumers": {"paths": []},
        })
        findings = layering.check_spec_acyclic(spec)
        self.assertEqual(rules_of(findings), ["layer-cycle"])

    def test_real_spec_is_acyclic(self):
        self.assertEqual(layering.check_spec_acyclic(layering.load_spec()), [])

    def cycle_findings(self, files):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for rel, text in files.items():
                path = root / rel
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(text)
            tree = framework.load_tree(root)
            return layering.check_include_cycles(
                tree, root, [root / "src"])

    def test_include_cycle_fires_once(self):
        findings = self.cycle_findings({
            "src/dsp/a.h": '#include "dsp/b.h"\n',
            "src/dsp/b.h": '#include "dsp/a.h"\n',
        })
        self.assertEqual(rules_of(findings), ["layer-cycle"])
        self.assertEqual(len(findings), 1)
        self.assertIn("src/dsp/a.h -> src/dsp/b.h -> src/dsp/a.h",
                      findings[0].message)

    def test_acyclic_includes_pass(self):
        findings = self.cycle_findings({
            "src/dsp/a.h": '#include "dsp/b.h"\n',
            "src/dsp/b.h": "#pragma once\n",
        })
        self.assertEqual(findings, [])


KERNELS_H = """\
struct KernelTable {
  // -- FIR (tolerance) --
  void (*fir_mac)(int);
  // -- packed (bitwise, integer) --
  int (*match16)(int);
};
"""
KERNELS_SCALAR = ".fir_mac = scalar_fir,\n.match16 = scalar_match,\n"
KERNELS_AVX2 = ".fir_mac = avx2_fir,\n.match16 = scalar_impl::match16,\n"
KERNELS_TEST = "fir_mac(1); match16(2);\n"
KERNELS_DOC = "| `fir_mac` | tolerance | FIR |\n| `match16` | bitwise | corr |\n"


class KernelRegistryTest(unittest.TestCase):
    def findings(self, header=KERNELS_H, scalar=KERNELS_SCALAR,
                 avx2=KERNELS_AVX2, test=KERNELS_TEST, doc=KERNELS_DOC):
        tree = make_tree({
            registries.KERNELS_HEADER: header,
            registries.KERNEL_TABLES[0]: scalar,
            registries.KERNEL_TABLES[1]: avx2,
            registries.KERNEL_TEST: test,
        })
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "docs").mkdir()
            (root / "docs" / "PERFORMANCE.md").write_text(doc)
            return registries.check_kernel_registry(tree, root)

    def test_complete_registry_passes(self):
        self.assertEqual(self.findings(), [])

    def test_missing_avx2_registration_fires(self):
        findings = self.findings(avx2=".fir_mac = avx2_fir,\n")
        self.assertEqual(rules_of(findings), ["kernel-registry"])
        self.assertIn("match16", findings[0].message)
        self.assertIn("kernels_avx2", findings[0].message)

    def test_missing_test_reference_fires(self):
        findings = self.findings(test="fir_mac(1);\n")
        self.assertEqual(rules_of(findings), ["kernel-registry"])
        self.assertIn("no reference", findings[0].message)

    def test_unannotated_section_fires(self):
        header = ("struct KernelTable {\n"
                  "  // -- mystery section --\n"
                  "  void (*fir_mac)(int);\n};\n")
        findings = self.findings(
            header=header, scalar=".fir_mac = a,\n", avx2=".fir_mac = b,\n",
            test="fir_mac(1);\n", doc="| `fir_mac` | tolerance | FIR |\n")
        self.assertEqual(rules_of(findings), ["kernel-registry"])
        self.assertIn("no annotated section", findings[0].message)

    def test_doc_class_mismatch_fires(self):
        doc = "| `fir_mac` | bitwise | FIR |\n| `match16` | bitwise | c |\n"
        findings = self.findings(doc=doc)
        self.assertEqual(rules_of(findings), ["kernel-registry"])
        self.assertIn("must agree", findings[0].message)

    def test_missing_doc_table_fires(self):
        findings = self.findings(doc="prose, no table\n")
        self.assertEqual(rules_of(findings), ["kernel-registry"])

    def test_doc_row_naming_no_member_fires(self):
        doc = KERNELS_DOC + "| `old_kernel` | bitwise | retired |\n"
        findings = self.findings(doc=doc)
        self.assertEqual(rules_of(findings), ["kernel-registry"])
        self.assertEqual((findings[0].path, findings[0].line),
                         ("docs/PERFORMANCE.md", 3))
        self.assertIn("old_kernel", findings[0].message)

    def test_real_kernels_header_parses_fully(self):
        header = framework.SourceFile.load(
            REPO_ROOT / registries.KERNELS_HEADER, registries.KERNELS_HEADER)
        members = registries.parse_kernel_table(header)
        self.assertGreaterEqual(len(members), 18)
        self.assertTrue(all(cls in ("bitwise", "tolerance")
                            for _, _, cls in members))


class SchemaDocsTest(unittest.TestCase):
    EMITTER = ('constexpr int kSchemaVersion = 2;\n'
               'void dump() {\n'
               '  out += "\\"widget_schema\\":2,";\n'
               '  out += "\\"frames\\":" + n;\n'
               '}\n')
    DOC = ('The widget stream (`"widget_schema": 2`) emits `frames`\n'
           'per record.\n')

    def findings(self, emitter=EMITTER, doc=DOC):
        tree = make_tree({"src/sim/widget.cpp": emitter})
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "docs").mkdir()
            (root / "docs" / "WIDGET.md").write_text(doc)
            return registries.check_schema_docs(tree, root)

    def test_documented_schema_passes(self):
        self.assertEqual(self.findings(), [])

    def test_undocumented_schema_fires(self):
        findings = self.findings(doc="nothing relevant\n")
        self.assertEqual(rules_of(findings), ["schema-docs"])
        self.assertIn("documented nowhere", findings[0].message)

    def test_version_mismatch_fires(self):
        doc = self.DOC.replace(": 2", ": 1")
        findings = self.findings(doc=doc)
        self.assertEqual(rules_of(findings), ["schema-docs"])
        self.assertIn("version 2 in code but 1", findings[0].message)

    def test_missing_field_fires(self):
        doc = 'The widget stream (`"widget_schema": 2`), fields vary.\n'
        findings = self.findings(doc=doc)
        self.assertEqual(rules_of(findings), ["schema-docs"])
        self.assertIn("'frames'", findings[0].message)

    def test_set_call_keys_are_extracted(self):
        emitter = ('out.set("widget_schema", Json(kSchemaVersion));\n'
                   'out.set("frames", Json(n));\n'
                   'constexpr int kSchemaVersion = 2;\n')
        self.assertEqual(self.findings(emitter=emitter), [])


class TelemetryRegistryTest(unittest.TestCase):
    def findings(self, source, doc):
        tree = make_tree({"src/zigbee/mod.cpp": source})
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "docs").mkdir()
            (root / "docs" / "TELEMETRY.md").write_text(doc)
            return registries.check_telemetry_registry(tree, root)

    def test_documented_family_passes(self):
        findings = self.findings(
            'CTC_TELEM_COUNT("zigbee_tx", "frames", 1);\n',
            "| `zigbee_tx/frames` | counter | frames |\n")
        self.assertEqual(findings, [])

    def test_undocumented_family_fires(self):
        findings = self.findings(
            'CTC_TELEM_GAUGE("zigbee_tx", "mystery", v);\n',
            "| `zigbee_tx/frames` | counter | frames |\n")
        self.assertEqual(rules_of(findings), ["telemetry-registry"])
        self.assertIn("zigbee_tx/mystery", findings[0].message)

    def test_waiver_suppresses(self):
        findings = self.findings(
            'CTC_TELEM_COUNT("zigbee_tx", "tmp", 1);'
            "  // ctc-lint: allow(telemetry-registry)\n",
            "unrelated\n")
        self.assertEqual(findings, [])

    def test_row_no_site_emits_fires(self):
        findings = self.findings(
            'CTC_TELEM_COUNT("zigbee_tx", "frames", 1);\n',
            "| `zigbee_tx/frames` | counter | frames |\n"
            "| `zigbee_tx/retired` | timer | gone |\n")
        self.assertEqual(rules_of(findings), ["telemetry-registry"])
        self.assertEqual((findings[0].path, findings[0].line),
                         ("docs/TELEMETRY.md", 2))
        self.assertIn("zigbee_tx/retired", findings[0].message)


class StreamIdsTest(unittest.TestCase):
    REGISTRY = {
        "src/sim/engine.h": {"namespace": "engine-trial", "scheme": "x"},
    }

    def test_registered_site_passes(self):
        tree = make_tree({"src/sim/engine.h": "rng.for_stream(seed, i);\n"})
        self.assertEqual(
            registries.check_stream_ids(tree, self.REGISTRY), [])

    def test_unregistered_site_fires(self):
        tree = make_tree({"src/mesh/field.cpp": "for_stream(seed, s);\n",
                          "src/sim/engine.h": "for_stream(seed, i);\n"})
        findings = registries.check_stream_ids(tree, self.REGISTRY)
        self.assertEqual(rules_of(findings), ["stream-ids"])
        self.assertEqual(findings[0].path, "src/mesh/field.cpp")

    def test_namespace_collision_fires(self):
        registry = {
            "src/sim/engine.h": {"namespace": "engine-trial", "scheme": "x"},
            "src/mesh/field.cpp": {"namespace": "engine-trial", "scheme": "y"},
        }
        tree = make_tree({"src/sim/engine.h": "for_stream(seed, i);\n",
                          "src/mesh/field.cpp": "for_stream(seed, s);\n"})
        findings = registries.check_stream_ids(tree, registry)
        self.assertEqual(rules_of(findings), ["stream-ids"])
        self.assertTrue(any("collide" in f.message for f in findings))

    def test_stale_registry_entry_fires(self):
        tree = make_tree({"src/sim/engine.h": "no rng here\n"})
        findings = registries.check_stream_ids(tree, self.REGISTRY)
        self.assertEqual(rules_of(findings), ["stream-ids"])
        self.assertIn("stale", findings[0].message)

    def test_real_registry_matches_real_call_sites(self):
        tree = framework.load_tree(REPO_ROOT)
        self.assertEqual(registries.check_stream_ids(tree), [])


class ReachTest(unittest.TestCase):
    """The reach rule on canned `nm -C --defined-only` output."""

    ARCHIVE = (
        "fft.cpp.o:\n"
        "0000000000000000 T ctc::dsp::used(double)\n"
        "0000000000000010 T ctc::dsp::unused(double)\n"
        "0000000000000020 T ctc::dsp::scale(int)\n"
        "0000000000000030 T ctc::dsp::scale(double)\n"
        "0000000000000040 W ctc::dsp::inline_helper()\n"
        "0000000000000050 t ctc::dsp::(anonymous namespace)::local()\n")
    BINARY = (
        "0000000000001000 T ctc::dsp::used(double)\n"
        "0000000000001010 T ctc::dsp::scale(int)\n"
        "0000000000001020 T main\n")

    def findings(self, allowlist):
        exported = {
            name: (Path("libctc_dsp.a"), member)
            for name, member in reach.parse_nm(self.ARCHIVE, True).items()}
        linked = set(reach.parse_nm(self.BINARY, False))
        return reach.check_reach(exported, linked, allowlist)

    def flagged(self, findings):
        return sorted(f.message.split(" is ")[0] for f in findings)

    def test_unlinked_exported_function_fires(self):
        findings = self.findings({"ctc::dsp::scale(double)": "reason"})
        self.assertEqual(rules_of(findings), ["reach"])
        self.assertEqual(self.flagged(findings), ["ctc::dsp::unused(double)"])
        self.assertEqual(findings[0].path, "libctc_dsp.a(fft.cpp.o)")

    def test_stale_allowlist_entries_fire(self):
        findings = self.findings({
            "ctc::dsp::unused(double)": "kept",
            "ctc::dsp::scale(double)": "kept",
            "ctc::dsp::used(double)": "reached by a binary",
            "ctc::dsp::gone()": "no longer defined",
        })
        self.assertEqual(rules_of(findings), ["reach"])
        self.assertEqual(len(findings), 2)
        self.assertTrue(all(f.path == reach.SELF for f in findings))
        messages = " ".join(f.message for f in findings)
        self.assertIn("used(double) is linked by a production binary",
                      messages)
        self.assertIn("gone() is defined by no library", messages)

    def test_overloads_stay_apart(self):
        findings = self.findings({"ctc::dsp::unused(double)": "kept"})
        self.assertEqual(self.flagged(findings), ["ctc::dsp::scale(double)"])

    def test_real_allowlist_is_short_and_reasoned(self):
        self.assertLessEqual(len(reach.ALLOWLIST), 8)
        self.assertTrue(all(reason.strip()
                            for reason in reach.ALLOWLIST.values()))


class HeaderSelfcheckTest(unittest.TestCase):
    def run_gen(self, headers):
        if shutil.which("c++") is None:
            self.skipTest("no c++ compiler on PATH")
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "src"
            for rel, text in headers.items():
                path = src / rel
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(text)
            return subprocess.run(
                [sys.executable, str(GEN_HEADER_CHECKS),
                 "--src", str(src), "--compile"],
                capture_output=True, text=True)

    def test_self_sufficient_header_passes(self):
        result = self.run_gen({
            "dsp/good.h":
            "#pragma once\n#include <vector>\n"
            "inline std::vector<int> v() { return {}; }\n"})
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_non_self_sufficient_header_fires(self):
        result = self.run_gen({
            "dsp/bad.h":
            "#pragma once\ninline std::vector<int> v() { return {}; }\n"})
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("header-selfcheck", result.stdout)

    def test_missing_include_guard_fires(self):
        result = self.run_gen({
            "dsp/unguarded.h": "struct Twice {};\n"})
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)


class CliTest(unittest.TestCase):
    def test_repo_tree_is_clean(self):
        result = subprocess.run(
            [sys.executable, str(CTC_LINT), "--root", str(REPO_ROOT)],
            capture_output=True, text=True)
        self.assertEqual(result.returncode, 0,
                         msg=result.stdout + result.stderr)
        self.assertIn("OK", result.stdout)

    def test_list_rules(self):
        result = subprocess.run(
            [sys.executable, str(CTC_LINT), "--list-rules"],
            capture_output=True, text=True)
        self.assertEqual(result.returncode, 0)
        for rule in ("layer-dep", "kernel-registry", "schema-docs",
                     "telemetry-registry", "stream-ids", "rng", "clock",
                     "unordered-iter", "telem-mix", "intrinsics"):
            self.assertIn(rule, result.stdout)

    def test_report_file_and_file_filter(self):
        with tempfile.TemporaryDirectory() as tmp:
            report = Path(tmp) / "findings.txt"
            result = subprocess.run(
                [sys.executable, str(CTC_LINT), "--root", str(REPO_ROOT),
                 "--report", str(report),
                 str(REPO_ROOT / "src/dsp/fft.h")],
                capture_output=True, text=True)
            self.assertEqual(result.returncode, 0,
                             msg=result.stdout + result.stderr)
            self.assertTrue(report.is_file())
            self.assertIn("ctc_lint", report.read_text())


if __name__ == "__main__":
    unittest.main()
