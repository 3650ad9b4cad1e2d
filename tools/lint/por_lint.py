#!/usr/bin/env python3
"""por_lint — project-specific static analysis for the por codebase.

Tier B of the correctness tooling (see DESIGN.md §8).  Enforces the
rules generic tools cannot express:

  naked-subscript   No naked operator[] into spectrum/lattice buffers
                    (``.re[``, ``.im[``, ``data()[``) outside the
                    accessor header (em/grid.hpp) and the contracts
                    header itself.  Computed subscripts belong behind
                    Image/Volume::operator(), the por::simd kernels'
                    POR_BOUNDS-checked lattice fetches, or
                    por::contracts::checked_span, where POR_BOUNDS can
                    see them.

  float-eq          No floating-point == / != against float literals
                    outside tests.  Exact comparisons that are
                    *intentional* (sentinel values, exact-zero weight
                    skips) carry a ``por-lint: allow(float-eq)`` waiver
                    with a rationale.

  reinterpret-cast  No reinterpret_cast outside em/grid.hpp and fft/
                    (lattice layout internals).
                    Casts to char* / unsigned char* / std::byte* /
                    uintptr_t (stream-I/O and madvise idioms, no
                    type-punned reads) are exempt everywhere.

  contract-comment  Every header that declares a ``// CONTRACT:`` must
                    be backed by at least one POR_EXPECT / POR_ENSURE /
                    POR_BOUNDS / POR_FINITE in the header itself or its
                    sibling .cpp — a contract that is only prose is not
                    machine-checked.

  orphan-header     Every src/por/**/*.hpp must be reached by the
                    #include closure of bench/, examples/ and
                    perfbench/, where a reached header also pulls in
                    its sibling .cpp.  A module no workload reaches is
                    deleted, not kept alive by its own tests.  A header
                    that is deliberately off that graph (a build-time
                    tool) carries the waiver in its leading comment
                    block.

  thread-spawn      No std::thread / std::jthread / serve::Scheduler
                    construction and no std::async call in src/por/
                    outside serve/ and vmpi/: the scheduler is the one
                    worker pool and vmpi ranks are the one other source
                    of threads.  A deliberate extra thread (a rank's
                    refine pool, a server loop) carries a waiver with
                    its rationale.

  hot-path-alloc    Files marked ``// POR_HOT_PATH`` (first lines) carry
                    the zero-allocation steady-state contract
                    (DESIGN.md §12): no raw ``new`` expressions and no
                    ``std::vector`` — vector growth is flagged at its
                    source, the declaration.  Each allocation is waived
                    with a rationale: construction-time tables (plan
                    building) and ``thread_local`` scratch vectors that
                    only grow, so a warmed call never reaches the heap.

  durable-io        No ``::fsync(``, ``std::rename(`` / ``::rename(``,
                    ``renameat2(`` or ``F_SETLEASE`` outside
                    src/por/resilience/atomic_file.cpp: every durable
                    write, the spare recycling and the fsync of a
                    journal segment go through atomic_write_file and
                    fsync_path there, so one file holds the
                    crash-safety protocol.

Waivers: append ``// por-lint: allow(<rule>) <reason>`` to the
offending line, or place it on one of the two lines above.  A waiver
without a reason is itself an error.

Output dialects (shared with ast_lint via lint_common): ``--format
text|github|json`` plus ``--json-out <path>`` for a machine-readable
report alongside any format.

Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from lint_common import Finding, add_output_args, emit  # noqa: E402

SOURCE_DIRS = ("src", "bench", "examples")
# The workloads: the orphan-header closure starts from every file here.
WORKLOAD_DIRS = ("bench", "examples", "perfbench")
TEST_DIRS = ("tests",)
CPP_SUFFIXES = {".cpp", ".hpp", ".h", ".cc", ".cxx"}

# Files allowed to do raw subscripts into lattice storage: the
# accessor definitions themselves.
NAKED_SUBSCRIPT_ALLOWED = {
    "src/por/em/grid.hpp",
    "src/por/util/contracts.hpp",
}

# Files allowed to use reinterpret_cast for lattice/FFT layout tricks.
REINTERPRET_ALLOWED_FILES = {
    "src/por/em/grid.hpp",
}
REINTERPRET_ALLOWED_DIRS = ("src/por/fft/",)

WAIVER_RE = re.compile(r"por-lint:\s*allow\(([a-z-]+)\)\s*(.*)")

NAKED_SUBSCRIPT_RE = re.compile(r"(\.\s*(?:re|im)\s*\[|data\(\)\s*\[)")
FLOAT_LITERAL = r"[0-9]+\.[0-9]*(?:[eE][+-]?[0-9]+)?[fF]?"
FLOAT_EQ_RE = re.compile(
    r"(?:[=!]=\s*" + FLOAT_LITERAL + r")|(?:" + FLOAT_LITERAL + r"\s*[=!]=)"
)
REINTERPRET_RE = re.compile(r"\breinterpret_cast\s*<\s*([^>]+)>")
REINTERPRET_EXEMPT_TARGET_RE = re.compile(
    r"^\s*(?:const\s+)?(?:char|unsigned\s+char|std::byte|std::uintptr_t|"
    r"uintptr_t)\s*(?:\*|\s*$)"
)
CONTRACT_COMMENT_RE = re.compile(r"//[/!]?\s*CONTRACT\b")
HOT_PATH_MARKER_RE = re.compile(r"^//\s*POR_HOT_PATH\b")
# Raw new expressions; `new` in identifiers or comments does not match.
HOT_NEW_RE = re.compile(r"\bnew\b(?!\s*[;,)\]])")
HOT_VECTOR_RE = re.compile(r"\bstd::vector\s*<")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')
# Thread spawns: a std::thread / std::jthread / serve::Scheduler
# temporary, named object or make_unique/make_shared, and std::async.
# A declaration without an initializer (a default-constructed member)
# and a pointer or unique_ptr type start nothing.
THREAD_TYPE = r"(?:std::j?thread|\b(?:serve::)?Scheduler)\b"
THREAD_SPAWN_RE = re.compile(
    r"(?:" + THREAD_TYPE + r"\s*(?:\w+\s*)?[({])"
    r"|(?:\bmake_(?:unique|shared)\s*<\s*" + THREAD_TYPE + r"\s*>)"
    r"|(?:\bstd::async\s*\()"
)
THREAD_SPAWN_ALLOWED_DIRS = ("src/por/serve/", "src/por/vmpi/")
# Durable-I/O syscalls: only the atomic-write module makes them.
DURABLE_IO_RE = re.compile(
    r"::fsync\s*\(|(?:\bstd)?::rename\s*\(|\brenameat2\s*\(|\bF_SETLEASE\b"
)
DURABLE_IO_ALLOWED = {"src/por/resilience/atomic_file.cpp"}
CONTRACT_MACRO_RE = re.compile(
    r"\b(POR_EXPECT|POR_ENSURE|POR_BOUNDS|POR_FINITE)\s*\("
)


def strip_line_comment(line: str) -> str:
    """Code portion of a line (drops // comments; keeps string bodies —
    good enough for these token-level rules)."""
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def waivers_for(lines: list[str], idx: int) -> dict[int, str]:
    """Waivers covering line `idx`: on the line itself or on one of the
    two preceding comment lines.  Maps rule name -> reason."""
    found: dict[str, str] = {}
    for j in range(max(0, idx - 2), idx + 1):
        candidate = lines[j]
        if j < idx and not candidate.lstrip().startswith("//"):
            continue
        for match in WAIVER_RE.finditer(candidate):
            found[match.group(1)] = match.group(2).strip()
    return found


def is_test_path(rel: str) -> bool:
    return any(rel.startswith(d + "/") for d in TEST_DIRS)


def check_file(root: Path, path: Path) -> list[Finding]:
    rel = path.relative_to(root).as_posix()
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        return [Finding(rel, 1, "encoding", "file is not valid UTF-8")]
    lines = text.splitlines()
    findings: list[Finding] = []

    # A POR_HOT_PATH marker in the first lines opts the whole file into
    # the zero-allocation rule.
    hot_path = any(HOT_PATH_MARKER_RE.match(line) for line in lines[:3])

    for i, raw in enumerate(lines):
        code = strip_line_comment(raw)
        waivers = waivers_for(lines, i)

        def report(rule: str, message: str) -> None:
            if rule in waivers:
                if not waivers[rule]:
                    findings.append(
                        Finding(rel, i + 1, rule,
                                "waiver without a reason — justify it"))
                return
            findings.append(Finding(rel, i + 1, rule, message))

        # Rule: naked-subscript -------------------------------------------
        if rel not in NAKED_SUBSCRIPT_ALLOWED and not is_test_path(rel):
            if NAKED_SUBSCRIPT_RE.search(code):
                report(
                    "naked-subscript",
                    "raw operator[] into a spectrum/lattice buffer; go "
                    "through Image/Volume::operator(), the simd lattice fetch "
                    "helpers, or por::contracts::checked_span",
                )

        # Rule: float-eq ---------------------------------------------------
        if not is_test_path(rel):
            if FLOAT_EQ_RE.search(code):
                report(
                    "float-eq",
                    "floating-point ==/!= against a float literal; use a "
                    "tolerance, or waive with a rationale if the exact "
                    "comparison is intentional",
                )

        # Rule: hot-path-alloc --------------------------------------------
        if hot_path and not is_test_path(rel):
            if HOT_NEW_RE.search(code):
                report(
                    "hot-path-alloc",
                    "raw `new` in a POR_HOT_PATH file; steady-state "
                    "scratch must be a thread_local vector that only "
                    "grows (waive construction-time allocations with a "
                    "rationale)",
                )
            if HOT_VECTOR_RE.search(code):
                report(
                    "hot-path-alloc",
                    "std::vector in a POR_HOT_PATH file (its growth hits "
                    "the general heap); waive a thread_local scratch "
                    "vector that only grows, or a construction-time "
                    "table, with a rationale",
                )

        # Rule: thread-spawn ----------------------------------------------
        if (rel.startswith("src/por/")
                and not rel.startswith(THREAD_SPAWN_ALLOWED_DIRS)):
            if THREAD_SPAWN_RE.search(code):
                report(
                    "thread-spawn",
                    "thread spawned outside serve/ and vmpi/; run the work "
                    "on the caller's serve::Scheduler, or waive with the "
                    "reason this one needs its own thread",
                )

        # Rule: durable-io ------------------------------------------------
        if rel not in DURABLE_IO_ALLOWED and not is_test_path(rel):
            if DURABLE_IO_RE.search(code):
                report(
                    "durable-io",
                    "fsync/rename/lease syscall outside the atomic-write "
                    "module; write through resilience::atomic_write_file "
                    "or fsync_path",
                )

        # Rule: reinterpret-cast ------------------------------------------
        allowed_rc = (rel in REINTERPRET_ALLOWED_FILES
                      or any(rel.startswith(d) for d in REINTERPRET_ALLOWED_DIRS)
                      or is_test_path(rel))
        if not allowed_rc:
            for match in REINTERPRET_RE.finditer(code):
                target = match.group(1)
                if REINTERPRET_EXEMPT_TARGET_RE.match(target):
                    continue  # char/byte/uintptr casts: stream-I/O idiom
                report(
                    "reinterpret-cast",
                    f"reinterpret_cast<{target.strip()}> outside the lattice/"
                    "FFT internals; only char*/std::byte*/uintptr_t casts "
                    "are allowed here",
                )

    return findings


def check_contract_comments(root: Path, files: list[Path]) -> list[Finding]:
    findings: list[Finding] = []
    by_rel = {p.relative_to(root).as_posix(): p for p in files}
    for rel, path in by_rel.items():
        if not rel.endswith((".hpp", ".h")) or is_test_path(rel):
            continue
        text = path.read_text(encoding="utf-8", errors="replace")
        contract_lines = [
            i + 1 for i, line in enumerate(text.splitlines())
            if CONTRACT_COMMENT_RE.search(line)
        ]
        if not contract_lines:
            continue
        # The backing implementation: the header itself or its sibling .cpp.
        bodies = [text]
        sibling = rel[: rel.rfind(".")] + ".cpp"
        if sibling in by_rel:
            bodies.append(by_rel[sibling].read_text(encoding="utf-8",
                                                    errors="replace"))
        if not any(CONTRACT_MACRO_RE.search(body) for body in bodies):
            findings.append(
                Finding(rel, contract_lines[0], "contract-comment",
                        "header declares a CONTRACT: but neither it nor its "
                        "sibling .cpp contains a POR_EXPECT/POR_ENSURE/"
                        "POR_BOUNDS/POR_FINITE backing it"))
    return findings


def resolve_include(root: Path, includer: Path, target: str) -> Path | None:
    """A quoted include, searched next to the includer, then under src/."""
    for base in (includer.parent, root / "src"):
        candidate = (base / target).resolve()
        if candidate.is_file():
            return candidate
    return None


def workload_closure(root: Path) -> set[Path]:
    """Every file the workloads reach: the quoted-#include closure of
    WORKLOAD_DIRS, where a reached header also brings its sibling .cpp
    (the definitions the workload links)."""
    todo = [p.resolve() for d in WORKLOAD_DIRS if (root / d).is_dir()
            for p in sorted((root / d).rglob("*"))
            if p.suffix in CPP_SUFFIXES and p.is_file()]
    reached: set[Path] = set()
    while todo:
        path = todo.pop()
        if path in reached:
            continue
        reached.add(path)
        sibling = path.with_suffix(".cpp")
        if path.suffix != ".cpp" and sibling.is_file():
            todo.append(sibling)
        for line in path.read_text(encoding="utf-8",
                                   errors="replace").splitlines():
            match = INCLUDE_RE.match(line)
            if match:
                target = resolve_include(root, path, match.group(1))
                if target is not None:
                    todo.append(target)
    return reached


def check_orphan_headers(root: Path, files: list[Path]) -> list[Finding]:
    reached = workload_closure(root)
    findings: list[Finding] = []
    for path in files:
        rel = path.relative_to(root).as_posix()
        if (not rel.startswith("src/por/") or path.suffix != ".hpp"
                or path.resolve() in reached):
            continue
        lines = path.read_text(encoding="utf-8", errors="replace").splitlines()
        leading = []
        for line in lines:
            if not line.lstrip().startswith("//"):
                break
            leading.append(line)
        reasons = [m.group(2).strip() for line in leading
                   for m in WAIVER_RE.finditer(line)
                   if m.group(1) == "orphan-header"]
        if reasons and all(reasons):
            continue
        findings.append(
            Finding(rel, 1, "orphan-header",
                    "waiver without a reason — justify it" if reasons else
                    "no bench, example or perfbench file reaches this header "
                    "through #include; delete the module (and its tests) or "
                    "give it a caller"))
    return findings


def collect_files(root: Path) -> list[Path]:
    files: list[Path] = []
    for d in SOURCE_DIRS + TEST_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        files.extend(
            p for p in sorted(base.rglob("*"))
            if p.suffix in CPP_SUFFIXES and p.is_file()
        )
    return files


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path("."),
                        help="repository root (default: cwd)")
    parser.add_argument("paths", nargs="*", type=Path,
                        help="restrict to these files (default: whole tree)")
    add_output_args(parser)
    args = parser.parse_args()

    root = args.root.resolve()
    if not (root / "src").is_dir():
        print(f"por_lint: {root} does not look like the repo root",
              file=sys.stderr)
        return 2

    files = [p.resolve() for p in args.paths] if args.paths else \
        collect_files(root)

    findings: list[Finding] = []
    for path in files:
        findings.extend(check_file(root, path))
    findings.extend(check_contract_comments(root, files))
    findings.extend(check_orphan_headers(root, files))

    return emit("por_lint", findings, len(files),
                fmt=args.format, json_out=args.json_out)


if __name__ == "__main__":
    sys.exit(main())
