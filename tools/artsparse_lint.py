#!/usr/bin/env python3
"""artsparse project-rule linter.

Enforces the codebase's layering contracts that neither the compiler nor
clang-tidy can see -- which layer is allowed to touch which OS facility,
and the thread-safety annotation discipline for headers:

  ASL001 raw-getenv        std::getenv outside core/env. Every knob reads
                           through env_u64/env_flag/env_string so the
                           hardened parsing contract stays in one place.
  ASL002 raw-file-op       ::unlink/::rename/std::rename/fopen outside
                           storage/file_io. The file_io layer owns fault
                           injection hooks and errno mapping; raw calls
                           bypass both. std::filesystem::* is fine -- the
                           rule targets the bare C API only.
  ASL003 naked-thread      std::thread construction outside core/parallel.
                           parallel_for owns worker-count policy, error
                           funnelling, and the test-only thread spawner
                           hook; ad-hoc threads escape all three.
  ASL004 obs-macro-header  ARTSPARSE_COUNT/OBSERVE/GAUGE_ADD in a header
                           outside an #if region mentioning ARTSPARSE_OBS.
                           Headers are included everywhere; unguarded obs
                           macros drag the metrics registry into every TU
                           even for obs-disabled builds.
  ASL005 unguarded-mutex   A mutex member in a header without an
                           ARTSPARSE_GUARDED_BY(that_mutex) sibling, or a
                           raw std::mutex/std::shared_mutex member instead
                           of the annotated core/thread_safety wrappers.
                           A mutex that guards nothing it can name is a
                           lock the thread-safety analysis cannot check.
  ASL006 raw-sleep         std::this_thread::sleep_for/sleep_until outside
                           core/deadline and storage/throttle. Raw sleeps
                           ignore the ambient deadline and cancel token;
                           wait through core/deadline's interruptible_sleep
                           so every block is budget-aware.
  ASL007 require-message   A detail::require whose message argument (its
                           last top-level argument) builds a std::string:
                           `+` concatenation, std::to_string or
                           std::string(. require copies its message only on
                           failure, so a literal costs a passing check
                           nothing; a built message allocates on every
                           pass. Cold sites justify it with an allow.

Suppression: a comment `artsparse-lint: allow(ASL003)` suppresses that
rule on its own line and the line directly below. Suppressions are for
deliberate, justified exceptions -- pair them with a why.

Exit codes: 0 clean, 1 violations found, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass

SOURCE_EXTENSIONS = (".cpp", ".hpp")
HEADER_EXTENSIONS = (".hpp",)

# Paths (suffix-matched against the /-normalized relative path) where a
# rule's restricted construct is the sanctioned implementation site.
EXEMPT_SUFFIXES = {
    "ASL001": ("core/env.cpp",),
    "ASL002": ("storage/file_io.cpp", "storage/file_io.hpp"),
    "ASL003": ("core/parallel.cpp", "core/parallel.hpp"),
    "ASL004": ("obs/metrics.hpp",),  # the macros' definition site
    "ASL005": ("core/thread_safety.hpp",),  # the annotated wrappers
    # interruptible_sleep's implementation, and the throttle's modeled
    # device-time charge (whose wait already routes through it).
    "ASL006": ("core/deadline.cpp", "core/deadline.hpp",
               "storage/throttle.cpp"),
    # The CLI checks its arguments once per run, never per point.
    "ASL007": ("tools/artsparse_cli.cpp", "tools/cli_support.cpp"),
}

ALLOW_RE = re.compile(r"artsparse-lint:\s*allow\(\s*(ASL\d{3})\s*\)")

GETENV_RE = re.compile(r"(?<![\w:])(?:std::)?getenv\s*\(")
# Bare C file API: `::rename(`, `std::rename(`, `::unlink(`, `unlink(`,
# `fopen(`. Deliberately does NOT match std::filesystem::rename (the
# lookbehind rejects `filesystem::rename` and member calls like
# `ec.rename`).
RAW_FILE_OP_RE = re.compile(
    r"(?:(?<![\w:])(?:std::|::)rename\s*\()"
    r"|(?:(?<![\w:])(?:std::|::)?unlink\s*\()"
    r"|(?:(?<![\w:])(?:std::|::)?fopen\s*\()"
)
THREAD_RE = re.compile(r"\bstd::thread\b(?!::hardware_concurrency)")
OBS_MACRO_RE = re.compile(
    r"\bARTSPARSE_(?:COUNT|COUNT_L|OBSERVE|OBSERVE_L|GAUGE_ADD)\s*\("
)
RAW_SLEEP_RE = re.compile(r"\bstd::this_thread::sleep_(?:for|until)\s*\(")
MUTEX_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?"
    r"(?P<type>(?:artsparse::)?(?:Mutex|SharedMutex)|"
    r"std::(?:mutex|shared_mutex|recursive_mutex|timed_mutex))\s+"
    r"(?P<name>\w+)\s*(?:;|ARTSPARSE_GUARDED_BY)"
)
GUARDED_BY_RE = re.compile(r"ARTSPARSE_(?:PT_)?GUARDED_BY\(\s*(\w+)")
REQUIRE_RE = re.compile(r"\b(?:detail::)?require\s*\(")
# Both match code whose literals are blanked, so a literal's text never
# counts.
STRING_BUILD_RE = re.compile(r"\+|\bstd::to_string\b|\bstd::string\s*\(")
PP_IF_RE = re.compile(r"^\s*#\s*(if|ifdef|ifndef)\b(.*)")
PP_ELSE_RE = re.compile(r"^\s*#\s*(else|elif)\b(.*)")
PP_ENDIF_RE = re.compile(r"^\s*#\s*endif\b")
PP_DEFINE_RE = re.compile(r"^\s*#\s*(define|undef)\b")


@dataclass
class Violation:
    rule: str
    path: str
    line: int
    message: str
    snippet: str

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "snippet": self.snippet,
        }


def strip_comments(lines: list[str]) -> list[str]:
    """Blanks out // and /* */ comment text (preserving line count) so the
    rules match code, not prose. String literals are left alone: none of
    the restricted constructs is plausible inside one with the trailing
    `(` the regexes require."""
    stripped: list[str] = []
    in_block = False
    for line in lines:
        out: list[str] = []
        i = 0
        while i < len(line):
            if in_block:
                end = line.find("*/", i)
                if end < 0:
                    i = len(line)
                else:
                    in_block = False
                    i = end + 2
                continue
            if line.startswith("//", i):
                break
            if line.startswith("/*", i):
                in_block = True
                i += 2
                continue
            out.append(line[i])
            i += 1
        stripped.append("".join(out))
    return stripped


def opens_literal(text: str, i: int) -> bool:
    """True when text[i] starts a string or char literal: a quote that is
    not a digit separator (as in 100'000)."""
    if text[i] == '"':
        return True
    return (text[i] == "'"
            and not (i > 0 and text[i - 1].isalnum()
                     and i + 1 < len(text) and text[i + 1].isalnum()))


def skip_literal(text: str, start: int) -> int:
    """Index just past the string or char literal opening at text[start]
    (or just past its line's newline, for an unterminated one)."""
    quote = text[start]
    i = start + 1
    while i < len(text) and text[i] not in (quote, "\n"):
        i += 2 if text[i] == "\\" else 1
    return i + 1


def blank_literals(code: str) -> str:
    """`code` with every string and char literal reduced to its quotes
    (newlines kept, so line numbers hold)."""
    out: list[str] = []
    i = 0
    while i < len(code):
        if opens_literal(code, i):
            end = min(skip_literal(code, i), len(code))
            out.append(code[i] + code[end - 1])
            i = end
        else:
            out.append(code[i])
            i += 1
    return "".join(out)


def call_arguments(text: str, open_paren: int) -> list[str] | None:
    """Top-level arguments of the call whose `(` is text[open_paren], in
    literal-blanked text: commas split only at depth 1 and brackets nest,
    since conditions make calls and do arithmetic. None when the call
    never closes."""
    args: list[str] = []
    depth = 0
    start = open_paren + 1
    for i in range(open_paren, len(text)):
        char = text[i]
        if char in "([{":
            depth += 1
        elif char in ")]}":
            depth -= 1
            if depth == 0:
                args.append(text[start:i])
                return args
        elif char == "," and depth == 1:
            args.append(text[start:i])
            start = i + 1
    return None


def require_message_lines(code_lines: list[str]) -> list[int]:
    """Lines (0-based) of detail::require calls whose message argument
    builds a std::string (ASL007)."""
    text = blank_literals("\n".join(code_lines))
    flagged: list[int] = []
    for match in REQUIRE_RE.finditer(text):
        args = call_arguments(text, match.end() - 1)
        if args and STRING_BUILD_RE.search(args[-1]):
            flagged.append(text.count("\n", 0, match.start()))
    return flagged


def allowed_rules_by_line(lines: list[str]) -> dict[int, set[str]]:
    """Lines (0-based) each allow-comment suppresses: its own and the
    next, so the comment can sit above the flagged line or trail it."""
    allowed: dict[int, set[str]] = {}
    for idx, line in enumerate(lines):
        for match in ALLOW_RE.finditer(line):
            for target in (idx, idx + 1):
                allowed.setdefault(target, set()).add(match.group(1))
    return allowed


def exempt(rule: str, rel_path: str) -> bool:
    return rel_path.endswith(EXEMPT_SUFFIXES[rule])


class PreprocessorTracker:
    """Tracks the active #if nesting so ASL004 can ask whether a line is
    inside a region whose condition mentions ARTSPARSE_OBS. An #else
    flips the region's condition out of scope (the obs-disabled branch of
    the guard is not obs-guarded code)."""

    def __init__(self) -> None:
        self._stack: list[bool] = []

    def feed(self, line: str) -> None:
        if match := PP_IF_RE.match(line):
            self._stack.append("ARTSPARSE_OBS" in match.group(2))
        elif match := PP_ELSE_RE.match(line):
            if self._stack:
                self._stack[-1] = "ARTSPARSE_OBS" in match.group(2)
        elif PP_ENDIF_RE.match(line):
            if self._stack:
                self._stack.pop()

    def in_obs_guard(self) -> bool:
        return any(self._stack)


def lint_file(path: str, rel_path: str) -> list[Violation]:
    try:
        with open(path, encoding="utf-8", errors="replace") as handle:
            raw_lines = handle.read().splitlines()
    except OSError as error:
        raise SystemExit(f"artsparse_lint: cannot read {path}: {error}")

    code_lines = strip_comments(raw_lines)
    allowed = allowed_rules_by_line(raw_lines)
    is_header = rel_path.endswith(HEADER_EXTENSIONS)
    violations: list[Violation] = []

    def report(rule: str, idx: int, message: str) -> None:
        if rule in allowed.get(idx, set()):
            return
        violations.append(
            Violation(rule, rel_path, idx + 1, message,
                      raw_lines[idx].strip()))

    # ASL005 needs the file-wide set of guarded mutex names first.
    guarded_names = set()
    for line in code_lines:
        guarded_names.update(GUARDED_BY_RE.findall(line))

    tracker = PreprocessorTracker()
    for idx, line in enumerate(code_lines):
        tracker.feed(line)
        is_pp_define = bool(PP_DEFINE_RE.match(line))

        if not exempt("ASL001", rel_path) and GETENV_RE.search(line):
            report("ASL001", idx,
                   "raw std::getenv; read knobs through core/env "
                   "(env_u64 / env_flag / env_string)")
        if not exempt("ASL002", rel_path) and RAW_FILE_OP_RE.search(line):
            report("ASL002", idx,
                   "raw C file API; route through storage/file_io so "
                   "fault injection and errno mapping apply")
        if not exempt("ASL003", rel_path) and THREAD_RE.search(line):
            report("ASL003", idx,
                   "naked std::thread; use core/parallel (parallel_for / "
                   "parallel_for_each) or justify with an allow comment")
        if not exempt("ASL006", rel_path) and RAW_SLEEP_RE.search(line):
            report("ASL006", idx,
                   "raw std::this_thread sleep; wait through core/deadline"
                   "'s interruptible_sleep so the deadline and cancel "
                   "token are observed")
        if (is_header and not is_pp_define
                and not exempt("ASL004", rel_path)
                and OBS_MACRO_RE.search(line)
                and not tracker.in_obs_guard()):
            report("ASL004", idx,
                   "obs macro in a header outside an ARTSPARSE_OBS "
                   "preprocessor guard")
        if is_header and not exempt("ASL005", rel_path):
            if match := MUTEX_MEMBER_RE.match(line):
                mutex_type = match.group("type")
                name = match.group("name")
                if mutex_type.startswith("std::"):
                    report("ASL005", idx,
                           f"raw {mutex_type} member; use the annotated "
                           "Mutex/SharedMutex from core/thread_safety.hpp")
                elif name not in guarded_names:
                    report("ASL005", idx,
                           f"mutex member '{name}' has no "
                           f"ARTSPARSE_GUARDED_BY({name}) sibling; "
                           "annotate what it protects")
    if not exempt("ASL007", rel_path):
        for idx in require_message_lines(code_lines):
            report("ASL007", idx,
                   "require message builds a std::string on every passing "
                   "check; pass a literal, or justify a cold site with an "
                   "allow comment")
    return violations


def collect_files(root: str, paths: list[str]) -> list[tuple[str, str]]:
    """(absolute, root-relative) pairs to lint. Explicit paths are taken
    as given (fixture trees included); the default scan walks src/ and
    tools/, skipping fixture and build directories."""
    pairs: list[tuple[str, str]] = []
    if paths:
        for path in paths:
            absolute = os.path.abspath(path)
            if os.path.isdir(absolute):
                pairs.extend(walk(root, absolute, skip_fixtures=False))
            else:
                pairs.append((absolute, relativize(root, absolute)))
        return pairs
    for scan_dir in ("src", "tools"):
        pairs.extend(
            walk(root, os.path.join(root, scan_dir), skip_fixtures=True))
    return pairs


def walk(root: str, directory: str,
         skip_fixtures: bool) -> list[tuple[str, str]]:
    pairs: list[tuple[str, str]] = []
    for dirpath, dirnames, filenames in os.walk(directory):
        dirnames[:] = sorted(
            d for d in dirnames
            if not d.startswith("build")
            and not (skip_fixtures and d == "lint_fixtures"))
        for filename in sorted(filenames):
            if filename.endswith(SOURCE_EXTENSIONS):
                absolute = os.path.join(dirpath, filename)
                pairs.append((absolute, relativize(root, absolute)))
    return pairs


def relativize(root: str, absolute: str) -> str:
    relative = os.path.relpath(absolute, root)
    return relative.replace(os.sep, "/")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="artsparse_lint",
        description="artsparse project-rule linter (rules ASL001-ASL007)")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint "
                             "(default: src/ and tools/ under --root)")
    parser.add_argument("--root", default=None,
                        help="repository root for rule path scoping "
                             "(default: the directory above this script)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit a JSON report on stdout")
    options = parser.parse_args(argv)

    root = os.path.abspath(options.root) if options.root else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))

    violations: list[Violation] = []
    files = collect_files(root, options.paths)
    for absolute, relative in files:
        violations.extend(lint_file(absolute, relative))
    violations.sort(key=lambda v: (v.path, v.line, v.rule))

    if options.as_json:
        print(json.dumps({
            "checked_files": len(files),
            "violations": [v.as_dict() for v in violations],
        }, indent=2))
    else:
        for violation in violations:
            print(f"{violation.path}:{violation.line}: "
                  f"[{violation.rule}] {violation.message}\n"
                  f"    {violation.snippet}")
        print(f"artsparse_lint: {len(files)} files checked, "
              f"{len(violations)} violation(s)")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
