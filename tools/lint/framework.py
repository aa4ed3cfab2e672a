"""Shared plumbing for the ctc lint family.

Everything a rule needs that is not the rule itself: walking the scanned
tree, stripping comments without disturbing line numbers, parsing inline
waivers, resolving #include targets the way the compiler would (via
compile_commands.json when a build tree is available), and formatting
findings uniformly across drivers.

Waiver syntax (one spelling, all lints):

    // ctc-lint: allow(<rule>[, <rule>...])

on the flagged line suppresses those rules for that line. Waivers are
expected to be rare and justified by an adjacent comment.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

SOURCE_EXTENSIONS = {".h", ".hpp", ".cc", ".cpp", ".cxx"}
SCAN_DIRS = ("src", "bench", "tools", "examples", "tests")

# The waiver takes a comma-separated rule list; rule names are lowercase
# kebab-case.
WAIVER_RE = re.compile(
    r"//\s*ctc-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*([<"])([^">]+)[">]', re.MULTILINE)


class Finding:
    """One lint violation: a (path, line, rule, message) tuple that prints
    in the compiler-style `path:line: [rule] message` format every driver
    shares."""

    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def blank_comments(text: str) -> str:
    """Returns `text` with //- and /* */-comments replaced by spaces,
    preserving line structure so reported line numbers stay exact. String
    literals are left intact (banned tokens never legitimately hide in
    them, and report markers must stay visible)."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "str"
            elif c == "'":
                state = "chr"
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("str", "chr"):
            quote = '"' if state == "str" else "'"
            if c == "\\":
                out.append(c)
                if nxt:
                    out.append(nxt)
                    i += 2
                    continue
            elif c == quote:
                state = "code"
            out.append(c)
        i += 1
    return "".join(out)


def line_waivers(raw_line: str) -> set:
    """Rules waived on this raw (unblanked) source line."""
    match = WAIVER_RE.search(raw_line)
    if not match:
        return set()
    return {rule.strip() for rule in match.group(1).split(",")}


class SourceFile:
    """A scanned file: raw text, comment-blanked text, and waiver lookup.
    `rel` is the path relative to the lint root in POSIX form — the key
    every allowlist and registry uses."""

    def __init__(self, rel: str, raw: str):
        self.rel = rel
        self.raw = raw
        self.code = blank_comments(raw)
        self.raw_lines = raw.splitlines()
        self.code_lines = self.code.splitlines()

    @classmethod
    def load(cls, path: Path, rel: str) -> "SourceFile":
        return cls(rel, path.read_text(encoding="utf-8", errors="replace"))

    def waived(self, line_no: int, rule: str) -> bool:
        if 0 < line_no <= len(self.raw_lines):
            return rule in line_waivers(self.raw_lines[line_no - 1])
        return False

    def includes(self):
        """Yields (line_no, quoted: bool, target) for every #include in the
        comment-blanked text (commented-out includes never count)."""
        for line_no, line in enumerate(self.code_lines, 1):
            match = INCLUDE_RE.match(line)
            if match:
                yield line_no, match.group(1) == '"', match.group(2)


def collect_files(root: Path, dirs=SCAN_DIRS) -> list:
    """C++ sources under root/{dirs}, sorted for stable finding order."""
    files = []
    for sub in dirs:
        base = root / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in SOURCE_EXTENSIONS and path.is_file():
                files.append(path)
    return files


def load_tree(root: Path, dirs=SCAN_DIRS) -> list:
    """Loads every scanned file as a SourceFile keyed by root-relative
    POSIX path."""
    tree = []
    for path in collect_files(root, dirs):
        rel = path.resolve().relative_to(root.resolve()).as_posix()
        tree.append(SourceFile.load(path, rel))
    return tree


def include_dirs_from_compile_commands(root: Path, build_dir=None) -> list:
    """Quoted-include search directories, the way the build resolves them.

    Reads -I/-isystem flags from compile_commands.json when a build tree is
    available (`build_dir`, or the first build*/ directory under root that
    has one); falls back to the canonical [root/src] — every first-party
    quoted include is rooted there, so the fallback keeps the lint exact on
    checkouts that have never configured."""
    candidates = []
    if build_dir is not None:
        candidates.append(Path(build_dir))
    candidates.extend(sorted(root.glob("build*")))
    database = None
    for candidate in candidates:
        path = candidate / "compile_commands.json"
        if path.is_file():
            database = path
            break
    dirs = []
    if database is not None:
        try:
            entries = json.loads(database.read_text())
        except (OSError, json.JSONDecodeError):
            entries = []
        seen = set()
        flag_re = re.compile(r"-(?:I|isystem)\s*(\S+)")
        for entry in entries:
            command = entry.get("command") or " ".join(entry.get("arguments", []))
            base = Path(entry.get("directory", "."))
            for flag in flag_re.findall(command):
                directory = Path(flag)
                if not directory.is_absolute():
                    directory = base / directory
                key = directory.resolve().as_posix()
                if key not in seen and directory.is_dir():
                    seen.add(key)
                    dirs.append(directory.resolve())
    root_src = (root / "src").resolve()
    if root_src.is_dir() and root_src not in dirs:
        dirs.append(root_src)
    return dirs


def resolve_include(target: str, includer: Path, include_dirs) -> Path:
    """Resolves a quoted #include the way the preprocessor would: first
    relative to the including file's directory, then across the -I search
    path. Returns None for system/third-party headers."""
    local = includer.parent / target
    if local.is_file():
        return local.resolve()
    for directory in include_dirs:
        candidate = Path(directory) / target
        if candidate.is_file():
            return candidate.resolve()
    return None


def render_report(findings, files_scanned: int, tool: str) -> str:
    """The shared findings report: one finding per line, then a summary —
    identical shape across drivers so CI artifacts and humans read one
    format."""
    lines = [str(finding) for finding in findings]
    if findings:
        lines.append("")
        lines.append(f"{tool}: {len(findings)} finding(s) in "
                     f"{files_scanned} file(s) scanned")
    else:
        lines.append(f"{tool}: OK ({files_scanned} files clean)")
    return "\n".join(lines) + "\n"
