#!/usr/bin/env python3
"""Fixture unit tests for tools/check_docs.py."""

from __future__ import annotations

import io
import sys
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check_docs  # noqa: E402


class CheckDocsFixture(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = Path(self._tmp.name)
        (self.root / "docs").mkdir()
        (self.root / "src" / "alpha").mkdir(parents=True)
        (self.root / "src" / "alpha" / "alpha.h").write_text("// alpha\n")

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, rel: str, text: str) -> None:
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)

    def run_check(self):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            status = check_docs.main(["--root", str(self.root)])
        return status, out.getvalue() + err.getvalue()

    def base_readme(self, extra: str = "") -> str:
        return "# fixture\n\nThe `alpha/` subsystem (src/alpha).\n\n" + extra


class LinkRule(CheckDocsFixture):
    def test_resolving_link_passes(self):
        self.write("docs/GUIDE.md", "see [readme](../README.md)\n")
        self.write("README.md", self.base_readme("[guide](docs/GUIDE.md)\n"))
        status, output = self.run_check()
        self.assertEqual(status, 0, output)

    def test_broken_link_flagged(self):
        self.write("README.md", self.base_readme("[gone](docs/MISSING.md)\n"))
        status, output = self.run_check()
        self.assertEqual(status, 1)
        self.assertIn("[link]", output)
        self.assertIn("MISSING.md", output)

    def test_link_escaping_repo_flagged(self):
        self.write("README.md", self.base_readme("[out](../../etc/passwd)\n"))
        status, output = self.run_check()
        self.assertEqual(status, 1)
        self.assertIn("escapes the repo", output)

    def test_external_and_anchor_links_skipped(self):
        self.write("README.md", self.base_readme(
            "[web](https://example.com/x) [mail](mailto:a@b.c) [top](#head)\n"))
        status, output = self.run_check()
        self.assertEqual(status, 0, output)

    def test_anchor_suffix_stripped_before_resolving(self):
        self.write("docs/GUIDE.md", "# head\n")
        self.write("README.md",
                   self.base_readme("[sec](docs/GUIDE.md#head)\n"))
        status, output = self.run_check()
        self.assertEqual(status, 0, output)

    def test_links_inside_fences_ignored(self):
        self.write("README.md", self.base_readme(
            "```\n[not a link](nowhere.md)\n```\n"))
        status, output = self.run_check()
        self.assertEqual(status, 0, output)


class PathRule(CheckDocsFixture):
    def test_existing_paths_pass(self):
        self.write("src/alpha/alpha.cpp", "// alpha\n")
        self.write("README.md", self.base_readme(
            "`src/alpha/alpha.h`, include-style `alpha/alpha.h`, the twin "
            "`src/alpha/alpha.h/.cpp` and `docs/GUIDE.md`.\n"))
        self.write("docs/GUIDE.md", "# guide\n")
        status, output = self.run_check()
        self.assertEqual(status, 0, output)

    def test_missing_path_flagged(self):
        self.write("docs/GUIDE.md",
                   "`src/alpha/gone.cpp` and `src/alpha/alpha.h/.cpp`\n")
        self.write("README.md", self.base_readme())
        status, output = self.run_check()
        self.assertEqual(status, 1)
        self.assertIn("docs/GUIDE.md:1: [path] `src/alpha/gone.cpp`", output)
        self.assertIn("`src/alpha/alpha.cpp`", output)
        self.assertNotIn("`src/alpha/alpha.h`", output)

    def test_non_paths_skipped(self):
        self.write("README.md", self.base_readme(
            "`BENCH_<bench>.json` `src/alpha/*.cpp` `alpha/{a,b}.h` "
            "`python3 tools/x.py` `stage/name` `https://x.org/a.md`\n"
            "```\n`src/alpha/fenced.cpp`\n```\n"))
        status, output = self.run_check()
        self.assertEqual(status, 0, output)


class JsonRule(CheckDocsFixture):
    def test_valid_json_fence_passes(self):
        self.write("README.md", self.base_readme(
            '```json\n{"a": 1, "b": [true, null]}\n```\n'))
        status, output = self.run_check()
        self.assertEqual(status, 0, output)

    def test_invalid_json_fence_flagged(self):
        self.write("README.md", self.base_readme(
            '```json\n{"a": 1,}\n```\n'))
        status, output = self.run_check()
        self.assertEqual(status, 1)
        self.assertIn("[json]", output)

    def test_jsonc_comments_stripped(self):
        self.write("README.md", self.base_readme(
            '```jsonc\n{\n  "a": 1,  // a comment\n  "url": "http://x/y"\n}\n```\n'))
        status, output = self.run_check()
        self.assertEqual(status, 0, output)

    def test_invalid_jsonc_still_flagged(self):
        self.write("README.md", self.base_readme(
            '```jsonc\n{"a": }  // nope\n```\n'))
        status, output = self.run_check()
        self.assertEqual(status, 1)
        self.assertIn("[json]", output)


class ShellRule(CheckDocsFixture):
    def test_allowlisted_commands_pass(self):
        self.write("README.md", self.base_readme(
            "```sh\ncmake -B build -G Ninja\nctest --test-dir build\n"
            "python3 tools/x.py --root .\n```\n"))
        status, output = self.run_check()
        self.assertEqual(status, 0, output)

    def test_unknown_command_flagged(self):
        self.write("README.md", self.base_readme(
            "```sh\nnetcat -l 8080\n```\n"))
        status, output = self.run_check()
        self.assertEqual(status, 1)
        self.assertIn("'netcat'", output)

    def test_relative_path_and_variable_heads_allowed(self):
        self.write("README.md", self.base_readme(
            "```sh\n./build/bench/perf_engine --json | tail -n1\n"
            "$bench --dry-run\n```\n"))
        status, output = self.run_check()
        self.assertEqual(status, 0, output)

    def test_absolute_path_head_flagged(self):
        self.write("README.md", self.base_readme(
            "```sh\n/usr/bin/evil --now\n```\n"))
        status, output = self.run_check()
        self.assertEqual(status, 1)
        self.assertIn("[shell]", output)

    def test_every_pipeline_stage_checked(self):
        self.write("README.md", self.base_readme(
            "```sh\ncat log | badfilter | tail -n1\n```\n"))
        status, output = self.run_check()
        self.assertEqual(status, 1)
        self.assertIn("'badfilter'", output)

    def test_for_loop_variable_is_not_a_head(self):
        self.write("README.md", self.base_readme(
            "```sh\nfor b in build/bench/*; do $b; done\n```\n"))
        status, output = self.run_check()
        self.assertEqual(status, 0, output)

    def test_transcript_output_lines_ignored(self):
        self.write("README.md", self.base_readme(
            "```sh\n$ ctest --test-dir build\n100% tests passed\n"
            "definitely not a command!\n```\n"))
        status, output = self.run_check()
        self.assertEqual(status, 0, output)

    def test_transcript_command_lines_still_checked(self):
        self.write("README.md", self.base_readme(
            "```sh\n$ netcat -l 8080\nlistening...\n```\n"))
        status, output = self.run_check()
        self.assertEqual(status, 1)
        self.assertIn("'netcat'", output)

    def test_skip_marker_exempts_block(self):
        self.write("README.md", self.base_readme(
            "<!-- check-docs: skip -->\n```sh\nnetcat -l 8080\n```\n"))
        status, output = self.run_check()
        self.assertEqual(status, 0, output)

    def test_comment_lines_ignored(self):
        self.write("README.md", self.base_readme(
            "```sh\n# not run: netcat\ncmake --build build\n```\n"))
        status, output = self.run_check()
        self.assertEqual(status, 0, output)

    def test_env_prefix_assignment_skipped(self):
        self.write("README.md", self.base_readme(
            "```sh\nCTC_SIMD=scalar ctest --test-dir build\n```\n"))
        status, output = self.run_check()
        self.assertEqual(status, 0, output)

    def test_redirect_target_is_not_a_head(self):
        self.write("README.md", self.base_readme(
            "```sh\nctest > out.txt 2> err.txt\ncmake --build build\n```\n"))
        status, output = self.run_check()
        self.assertEqual(status, 0, output)

    def test_syntax_error_flagged(self):
        self.write("README.md", self.base_readme(
            "```sh\nfor b in; do\n```\n"))
        status, output = self.run_check()
        self.assertEqual(status, 1)
        self.assertIn("[shell]", output)

    def test_untagged_fence_ignored(self):
        self.write("README.md", self.base_readme(
            "```\ntotally --free ==form== text\n```\n"))
        status, output = self.run_check()
        self.assertEqual(status, 0, output)


class CoverageRule(CheckDocsFixture):
    def test_unmentioned_subsystem_flagged(self):
        (self.root / "src" / "beta").mkdir()
        (self.root / "src" / "beta" / "beta.h").write_text("// beta\n")
        self.write("README.md", self.base_readme())
        status, output = self.run_check()
        self.assertEqual(status, 1)
        self.assertIn("src/beta/", output)

    def test_mention_in_any_doc_suffices(self):
        (self.root / "src" / "beta").mkdir()
        (self.root / "src" / "beta" / "beta.h").write_text("// beta\n")
        self.write("README.md", self.base_readme())
        self.write("docs/BETA.md", "The beta/ layer does things.\n")
        status, output = self.run_check()
        self.assertEqual(status, 0, output)

    def test_empty_directory_not_required(self):
        (self.root / "src" / "gamma").mkdir()
        self.write("README.md", self.base_readme())
        status, output = self.run_check()
        self.assertEqual(status, 0, output)


class Heads(unittest.TestCase):
    def test_command_heads_splits_operators(self):
        self.assertEqual(
            check_docs.command_heads("a --x && b | c; d"),
            ["a", "b", "c", "d"])

    def test_quoted_arguments_not_heads(self):
        self.assertEqual(
            check_docs.command_heads('diff "a b.json" other.json'), ["diff"])


if __name__ == "__main__":
    unittest.main(verbosity=2)
