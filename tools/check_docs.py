#!/usr/bin/env python3
"""Docs consistency check: keep the documentation in lockstep with the tree.

Documentation rots silently — a renamed bench, a moved doc, a new subsystem
nobody wrote up. This check makes the common rot modes loud, as static
validation over README.md and docs/*.md:

  link       Every intra-repo markdown link ([text](path), path not a URL)
             must resolve to an existing file or directory, relative to the
             linking document. Pure #anchor links and external URLs are
             skipped.

  path       Every inline-code repo path with a file extension
             (`src/sim/link.h`, or include-style `sim/link.h` under src/)
             must exist. The `x.h/.cpp` shorthand names both files; spans
             with whitespace or a `<`, `*` or `{` (placeholders, globs,
             brace lists) are not paths.

  json       Every ```json fence must strictly json.loads(). Annotated
             examples belong in ```jsonc fences, which are validated after
             stripping //-comments — so schema examples stay readable AND
             parseable.

  shell      Every ```sh / ```bash fence must survive a static dry-run:
             the block must parse (`bash -n`) and the head of every simple
             command must come from the command allowlist (or be a
             $variable / repo-relative path). Transcript blocks — where
             command lines start with "$ " — validate only the command
             lines; output lines are ignored. A block preceded by
             <!-- check-docs: skip --> is exempt.

  coverage   Every src/<subsystem>/ directory must be mentioned in at
             least one scanned document ("<subsystem>/" or
             "src/<subsystem>") — a new subsystem cannot land undocumented.

Usage:
  check_docs.py [--root DIR]
Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

DOC_GLOBS = ("README.md", "docs/*.md")

# Heads a documented shell command may start with. Extend with a reason in
# the adjacent comment; repo-relative paths (contain "/", not absolute) and
# $variables are always allowed.
ALLOWED_COMMANDS = {
    # build + test drivers the docs teach
    "cmake", "ctest", "ninja", "make",
    # repo tooling is always invoked through python3
    "python3",
    # portable shell used in transcripts and loops
    "cd", "cp", "mv", "rm", "mkdir", "echo", "cat", "head", "tail",
    "diff", "cmp", "grep", "wc", "ls", "export", "set",
    # version control shown in contribution docs
    "git",
}
SHELL_KEYWORDS = {
    "if", "then", "else", "elif", "fi", "for", "while", "until", "do",
    "done", "case", "esac", "in", "function", "time", "!", "{", "}",
}
OPERATOR_TOKENS = {"|", "||", "&&", ";", ";;", "&", "(", ")"}
REDIRECT_RE = re.compile(r"^\d*(?:>>?|<<?<?)(?:&\d*)?$")

LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
FILE_NAME_RE = re.compile(r"\.[A-Za-z0-9]+$")
# `dir/name.h/.cpp`: one span naming a header and its source twin.
TWIN_PATH_RE = re.compile(r"^(.+)\.([A-Za-z0-9]+)/\.([A-Za-z0-9]+)$")
FENCE_RE = re.compile(r"^\s*```\s*([A-Za-z0-9_+-]*)\s*$")
SKIP_MARKER = "<!-- check-docs: skip -->"


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_jsonc_comments(text: str) -> str:
    """Removes //-comments from a jsonc block, preserving string contents."""
    out = []
    in_string = False
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if in_string:
            out.append(c)
            if c == "\\" and i + 1 < n:
                out.append(text[i + 1])
                i += 2
                continue
            if c == '"':
                in_string = False
        else:
            if c == '"':
                in_string = True
                out.append(c)
            elif c == "/" and i + 1 < n and text[i + 1] == "/":
                while i < n and text[i] != "\n":
                    i += 1
                continue
            else:
                out.append(c)
        i += 1
    return "".join(out)


def iter_fences(lines: list):
    """Yields (language, start_line_1idx, [block lines], skipped) per fence."""
    i = 0
    pending_skip = False
    while i < len(lines):
        stripped = lines[i].strip()
        if stripped == SKIP_MARKER:
            pending_skip = True
            i += 1
            continue
        match = FENCE_RE.match(lines[i])
        if not match:
            if stripped:
                pending_skip = False
            i += 1
            continue
        language = match.group(1).lower()
        start = i + 1
        block = []
        i += 1
        while i < len(lines) and not lines[i].strip().startswith("```"):
            block.append(lines[i])
            i += 1
        i += 1  # closing fence
        yield language, start, block, pending_skip
        pending_skip = False


def transcript_commands(block: list):
    """Extracts (line_offset, command) pairs. In transcript blocks (any line
    starting with '$ ') only prompt lines are commands; otherwise every
    non-comment line is. Backslash continuations join onto the command."""
    is_transcript = any(line.lstrip().startswith("$ ") for line in block)
    commands = []
    i = 0
    while i < len(block):
        line = block[i]
        text = line.strip()
        start = i
        if is_transcript:
            if not text.startswith("$ "):
                i += 1
                continue
            text = text[2:]
        if not text or text.startswith("#"):
            i += 1
            continue
        while text.endswith("\\") and i + 1 < len(block):
            i += 1
            text = text[:-1] + " " + block[i].strip()
        commands.append((start, text))
        i += 1
    return commands


def command_heads(command: str) -> list:
    """Returns the head token of every simple command in `command`.
    Raises ValueError on unbalanced quoting."""
    lex = shlex.shlex(command, posix=True, punctuation_chars=True)
    lex.whitespace_split = True
    tokens = list(lex)
    heads = []
    expect_head = True
    skip_next = False
    in_loop_header = False  # between `for`/`case` and its `do`/`in` word list
    for token in tokens:
        if skip_next:
            skip_next = False
            continue
        if in_loop_header:
            if token == "do":
                in_loop_header = False
                expect_head = True
            continue
        if token in OPERATOR_TOKENS:
            expect_head = True
            continue
        if REDIRECT_RE.match(token):
            skip_next = True
            continue
        if not expect_head:
            continue
        if token in ("for", "case"):
            in_loop_header = True
            continue
        if token in SHELL_KEYWORDS:
            continue
        if "=" in token and re.match(r"^[A-Za-z_][A-Za-z0-9_]*=", token):
            continue  # FOO=bar prefix assignment
        heads.append(token)
        expect_head = False
    return heads


def head_allowed(head: str) -> bool:
    if head in ALLOWED_COMMANDS:
        return True
    if head.startswith("$"):
        return True  # shell variable — expansion target unknowable statically
    if "/" in head and not head.startswith("/"):
        return True  # repo-relative path (./build/bench/..., tools/x.sh)
    return False


def bash_parses(script: str):
    """Returns (ok, message) from `bash -n`. Skips quietly if bash is
    missing (the allowlist walk still runs)."""
    try:
        proc = subprocess.run(
            ["bash", "-n"], input=script, capture_output=True, text=True,
            timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return True, ""
    if proc.returncode != 0:
        return False, proc.stderr.strip().splitlines()[-1] if proc.stderr else "syntax error"
    return True, ""


def prose_lines(lines: list):
    """Yields (line_no, line) for every line outside ``` fences."""
    in_fence = False
    for line_no, line in enumerate(lines, 1):
        if FENCE_RE.match(line):
            in_fence = not in_fence
        elif not in_fence:
            yield line_no, line


def check_links(rel: str, path: Path, root: Path, lines: list,
                findings: list) -> None:
    for line_no, line in prose_lines(lines):
        for match in LINK_RE.finditer(line):
            target = match.group(1)
            if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # http:, mailto:, …
                continue
            if target.startswith("#"):
                continue
            target_path = target.split("#", 1)[0]
            if not target_path:
                continue
            resolved = (path.parent / target_path).resolve()
            try:
                resolved.relative_to(root)
            except ValueError:
                findings.append(Finding(
                    rel, line_no, "link",
                    f"link target escapes the repo: {target}"))
                continue
            if not resolved.exists():
                findings.append(Finding(
                    rel, line_no, "link",
                    f"broken link: {target} (resolved {resolved.relative_to(root)})"))


def span_paths(span: str) -> list:
    """The repo paths an inline code span names: [] unless the span is one
    slash-separated token ending in a file extension."""
    if re.search(r"[\s<*{]", span) or "/" not in span or "://" in span:
        return []
    twin = TWIN_PATH_RE.match(span)
    if twin:
        stem = twin.group(1)
        return [f"{stem}.{twin.group(2)}", f"{stem}.{twin.group(3)}"]
    return [span] if FILE_NAME_RE.search(span.rsplit("/", 1)[-1]) else []


def check_paths(rel: str, root: Path, lines: list, findings: list) -> None:
    for line_no, line in prose_lines(lines):
        for match in CODE_SPAN_RE.finditer(line):
            for path in span_paths(match.group(1)):
                if (root / path).exists() or (root / "src" / path).exists():
                    continue
                findings.append(Finding(
                    rel, line_no, "path",
                    f"`{path}` names no file in the repo (checked from the "
                    "root and from src/) — fix or drop the reference"))


def check_fences(rel: str, lines: list, findings: list) -> None:
    for language, start, block, skipped in iter_fences(lines):
        if skipped:
            continue
        text = "\n".join(block)
        if language in ("json", "jsonc"):
            payload = strip_jsonc_comments(text) if language == "jsonc" else text
            try:
                json.loads(payload)
            except json.JSONDecodeError as error:
                findings.append(Finding(
                    rel, start + error.lineno, "json",
                    f"fenced {language} does not parse: {error.msg}"))
        elif language in ("sh", "bash", "shell"):
            commands = transcript_commands(block)
            script = "\n".join(command for _, command in commands)
            ok, message = bash_parses(script)
            if not ok:
                findings.append(Finding(
                    rel, start + 1, "shell",
                    f"fenced shell does not parse: {message}"))
                continue
            for offset, command in commands:
                try:
                    heads = command_heads(command)
                except ValueError as error:
                    findings.append(Finding(
                        rel, start + offset + 1, "shell",
                        f"unparseable command: {error}"))
                    continue
                for head in heads:
                    if not head_allowed(head):
                        findings.append(Finding(
                            rel, start + offset + 1, "shell",
                            f"command '{head}' is not in the docs allowlist "
                            "(tools/check_docs.py ALLOWED_COMMANDS)"))


def check_coverage(root: Path, corpus: str, findings: list) -> None:
    src = root / "src"
    if not src.is_dir():
        return
    for sub in sorted(src.iterdir()):
        if not sub.is_dir():
            continue
        if not any(sub.glob("*")):
            continue
        name = sub.name
        if re.search(rf"\b{re.escape(name)}/|src/{re.escape(name)}\b", corpus):
            continue
        findings.append(Finding(
            "docs/", 0, "coverage",
            f"src/{name}/ is never mentioned in README.md or docs/*.md — "
            "document the subsystem (docs/ARCHITECTURE.md at minimum)"))


def collect_docs(root: Path) -> list:
    docs = []
    for pattern in DOC_GLOBS:
        docs.extend(sorted(root.glob(pattern)))
    return [d for d in docs if d.is_file()]


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".", help="repo root (default: cwd)")
    args = parser.parse_args(argv)

    root = Path(args.root).resolve()
    docs = collect_docs(root)
    if not docs:
        print(f"check_docs: no documents found under {root}", file=sys.stderr)
        return 2

    findings = []
    corpus_parts = []
    for path in docs:
        rel = path.relative_to(root).as_posix()
        text = path.read_text(encoding="utf-8")
        corpus_parts.append(text)
        lines = text.splitlines()
        check_links(rel, path, root, lines, findings)
        check_paths(rel, root, lines, findings)
        check_fences(rel, lines, findings)
    check_coverage(root, "\n".join(corpus_parts), findings)

    for finding in findings:
        print(finding)
    if findings:
        print(f"\ncheck_docs: {len(findings)} finding(s) in {len(docs)} "
              "document(s)", file=sys.stderr)
        return 1
    print(f"check_docs: OK ({len(docs)} documents clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
