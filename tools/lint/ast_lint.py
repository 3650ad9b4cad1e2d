#!/usr/bin/env python3
"""ast_lint — atomics-policy and vmpi-protocol analysis for por.

Tier B.2 of the correctness tooling (DESIGN.md §13).  Where por_lint.py
enforces single-line style rules, this tool checks cross-line protocol
properties over the translation units listed in compile_commands.json:

  atomics-policy      Every `std::memory_order_relaxed` site carries a
                      `// por-atomic: <policy> — <reason>` annotation
                      (same line, the comment lines above the
                      statement, or a file-scope `// por-atomic-file:
                      <policy>`), and the policy exists in
                      tools/lint/atomics_policies.json.  Policies
                      marked tests_only (none is registered today)
                      are illegal under src/.

  atomics-downgrade   The annotated policy must COVER the operation at
                      the site: the registry restricts each policy to
                      operation kinds (load/store/rmw/cas/cas-failure).
                      A relaxed store annotated `monitor`, or a relaxed
                      CAS annotated `pre-claim`, is a silent downgrade
                      hiding under an unrelated rationale.

  vmpi-unmatched-tag  Message tags are file-local constants; a tag that
                      is declared but only ever sent (or only ever
                      received) in its file is a protocol hole, as is a
                      duplicate tag value or a negative tag (negative
                      values are reserved for the collectives, see
                      vmpi/comm.hpp).

  vmpi-recv-timeout   In fault-tolerant code (src/por/resilience/, or
                      any file that handles RankKilled / fault_point),
                      a blocking recv can hang on a dead peer; such
                      sites must use try_recv_any_* with a timeout, or
                      carry a waiver explaining which deadline bounds
                      the wait.

  vmpi-collective-paths  A collective (barrier/bcast/allreduce/
                      allgather/reduce/scatter/alltoall) inside a
                      rank-conditioned branch is reached by some ranks
                      and not others — the classic MPI deadlock.

  mmap-escape         A pointer derived from a function-local
                      stream::ShardMapping's data() that is returned or
                      stored into a member outlives the mapping: the
                      destructor munmaps (or frees the read-path
                      buffer) at end of scope and the pointer dangles.
                      Long-lived mappings belong in members (see
                      stream::ShardedStack's per-shard Shard::map),
                      not locals.

Waivers use the same grammar as por_lint.py: append
``// por-lint: allow(<rule>) <reason>`` to the offending line or one of
the two lines above.  A waiver without a reason is itself an error.

Frontends: the default token frontend is dependency-free.  When the
python clang bindings are importable (`clang.cindex` — NOT shipped in
the CI container, so this is opt-in) `--frontend clang` re-parses each
TU with the flags from compile_commands.json and drops sites that are
not genuine call expressions; `--frontend auto` uses clang when
available and silently falls back otherwise.  The rule logic is
frontend-independent.

With --build-dir, compile_commands.json selects the TU set (plus all
headers under src/ and tests/, which no compile database lists); a
missing database is a hard error (exit 2) so CI cannot silently lint
nothing.  Without --build-dir the tool walks the tree.

Exit status: 0 clean, 1 findings, 2 usage/environment error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from lint_common import Finding, add_output_args, emit  # noqa: E402

SOURCE_DIRS = ("src", "bench", "examples")
TEST_DIRS = ("tests",)
CPP_SUFFIXES = {".cpp", ".hpp", ".h", ".cc", ".cxx"}

RELAXED_RE = re.compile(r"\bmemory_order_relaxed\b")
ANNOT_RE = re.compile(r"por-atomic:\s*([a-z-]+)")
FILE_ANNOT_RE = re.compile(r"por-atomic-file:\s*([a-z-]+)")
WAIVER_RE = re.compile(r"por-lint:\s*allow\(([a-z-]+)\)\s*(.*)")

# `memory_order_relaxed` used as data, not as an operation's order:
# switch labels and comparisons, which inspect an order rather than
# apply one.
NON_OP_RES = (
    re.compile(r"^\s*case\b"),
    re.compile(r"[=!]=\s*(?:std::)?memory_order_relaxed"),
    re.compile(r"memory_order_relaxed\s*[=!]="),
)

ATOMIC_METHOD_RE = re.compile(
    r"\.\s*(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|"
    r"fetch_xor|compare_exchange_weak|compare_exchange_strong)\s*\(")
ATOMIC_HELPER_RE = re.compile(r"\b(atomic_add|atomic_max\w*)\s*\(")
ORDER_ARG_RE = re.compile(r"\bmemory_order_\w+")

TAG_DECL_RE = re.compile(
    r"(?:constexpr\s+)?(?:por::)?(?:vmpi::)?Tag\s+(k\w+)\s*=\s*(-?\d+)")
SEND_RE = re.compile(r"\b(?:send|send_value|send_bytes)\s*(?:<[^<>]*>)?\s*\(")
RECV_RE = re.compile(
    r"\b(?:try_)?recv(?:_value|_bytes|_any_bytes|_any_value)?"
    r"\s*(?:<[^<>]*>)?\s*\(")
BLOCKING_RECV_RE = re.compile(
    r"(?:\.|->)\s*(recv(?:_value|_bytes)?)\s*[<(]")
FAULT_MARKER_RE = re.compile(r"\bRankKilled\b|\bfault_point\s*\(")
COLLECTIVE_RE = re.compile(
    r"(?:\.|->)\s*(barrier|bcast|allreduce|allgather|reduce|scatter|"
    r"alltoall)\s*\(")
RANK_COND_RE = re.compile(
    r"\brank\s*\(\s*\)|\brank_?\b\s*[=!<>]|\bis_(?:master|root)\b")
IF_RE = re.compile(r"\bif\s*\(")

# A by-value ShardMapping declaration: type then a bare name (no & / *
# between them — references and pointers alias a mapping that someone
# else owns).  Names with a trailing underscore are members by the
# repo's naming convention and legitimately outlive the enclosing
# scope.
MMAP_DECL_RE = re.compile(
    r"\b(?:por::)?(?:stream::)?ShardMapping\s+(\w+)\s*[;({=]")
# `<something>* p = ...` / `auto p = ...` — candidate derived pointer.
DERIVED_DECL_RE = re.compile(r"(?:[*&]\s*|\bauto\s+)(\w+)\s*=[^=]")
MEMBER_STORE_RE = re.compile(r"(?:this\s*->\s*\w+|(?<![\w.])\w+_)\s*=[^=]")
RETURN_RE = re.compile(r"\breturn\b")


def strip_line_comment(line: str) -> str:
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def rel_path(root: Path, path: Path) -> str:
    try:
        return path.relative_to(root).as_posix()
    except ValueError:
        return path.as_posix()


def is_test_path(rel: str) -> bool:
    return any(rel.startswith(d + "/") for d in TEST_DIRS)


def waivers_for(lines: list[str], idx: int) -> dict[int, str]:
    found: dict[str, str] = {}
    for j in range(max(0, idx - 2), idx + 1):
        candidate = lines[j]
        if j < idx and not candidate.lstrip().startswith("//"):
            continue
        for match in WAIVER_RE.finditer(candidate):
            found[match.group(1)] = match.group(2).strip()
    return found


# ---- atomics: site discovery and classification ----------------------------


def statement_text(lines: list[str], idx: int) -> str:
    """The (approximate) full statement containing line `idx`: joined
    code portions, back to the previous ; { } boundary and forward to
    the next ;, both within a small window."""
    begin = idx
    for _ in range(8):
        if begin == 0:
            break
        prev = strip_line_comment(lines[begin - 1]).rstrip()
        if prev.endswith((";", "{", "}")):
            break
        begin -= 1
    end = idx
    for _ in range(4):
        code = strip_line_comment(lines[end]).rstrip()
        if code.endswith(";") or end + 1 >= len(lines):
            break
        end += 1
    return " ".join(strip_line_comment(lines[j]) for j in range(begin, end + 1))


def classify_site(lines: list[str], idx: int) -> str:
    """Operation kind at a relaxed site: load/store/rmw/cas/cas-failure,
    or `unknown` when the statement shape is unrecognized."""
    stmt = statement_text(lines, idx)
    methods = ATOMIC_METHOD_RE.findall(stmt)
    if not methods:
        return "rmw" if ATOMIC_HELPER_RE.search(stmt) else "unknown"
    method = methods[-1]
    if method == "load":
        return "load"
    if method == "store":
        return "store"
    if method.startswith("compare_exchange"):
        # Two memory_order arguments: the last one is the failure order.
        orders = ORDER_ARG_RE.findall(stmt)
        site_code = strip_line_comment(lines[idx])
        if len(orders) >= 2 and orders[-1] == "memory_order_relaxed" \
                and RELAXED_RE.search(site_code):
            # Is THIS site the last order argument?  On a single-line
            # call compare the position; across lines, the failure
            # order is on the last order-bearing line of the statement.
            last_order_pos = stmt.rfind("memory_order_relaxed")
            tail = stmt[last_order_pos:]
            if site_code.rstrip().rstrip(";").rstrip().endswith(")") or \
                    tail.lstrip("memory_order_relaxed").lstrip().startswith(")"):
                return "cas-failure"
        return "cas"
    return "rmw"


def site_annotations(lines: list[str]) -> dict[int, str]:
    """Map line index -> annotated policy, honoring same-line
    annotations and comment annotations that cover the statement below
    them (through its terminating ; { })."""
    covered: dict[int, str] = {}
    pending: str | None = None
    for i, raw in enumerate(lines):
        code = strip_line_comment(raw)
        match = ANNOT_RE.search(raw)
        if match and not code.strip():
            pending = match.group(1)  # comment-only line: covers below
            continue
        policy = match.group(1) if match else pending
        if policy is not None:
            covered[i] = policy
        # Only a statement terminator consumes the annotation — an
        # opening `{` mid-statement (braced init, if-with-CAS) does
        # not, so one comment covers a whole multi-line statement.
        if code.strip() and code.rstrip().endswith((";", "}")):
            pending = None
    return covered


def check_atomics(rel: str, lines: list[str], registry: dict,
                  findings: list[Finding]) -> None:
    text = "\n".join(lines)
    file_match = FILE_ANNOT_RE.search(text)
    file_policy = file_match.group(1) if file_match else None
    per_site = site_annotations(lines)
    policies = registry["policies"]

    for i, raw in enumerate(lines):
        code = strip_line_comment(raw)
        if not RELAXED_RE.search(code):
            continue
        if any(pattern.search(code) for pattern in NON_OP_RES):
            continue  # order used as data (switch label / comparison)
        waivers = waivers_for(lines, i)

        def report(rule: str, message: str, line: int = i) -> None:
            if rule in waivers:
                if not waivers[rule]:
                    findings.append(Finding(rel, line + 1, rule,
                                            "waiver without a reason — "
                                            "justify it"))
                return
            findings.append(Finding(rel, line + 1, rule, message))

        policy = per_site.get(i, file_policy)
        if policy is None:
            report("atomics-policy",
                   "memory_order_relaxed without a `// por-atomic: "
                   "<policy> — <reason>` annotation (see "
                   "tools/lint/atomics_policies.json)")
            continue
        entry = policies.get(policy)
        if entry is None:
            report("atomics-policy",
                   f"unknown relaxed-atomics policy '{policy}' — register "
                   "it in tools/lint/atomics_policies.json or fix the typo")
            continue
        if entry.get("tests_only") and not is_test_path(rel):
            report("atomics-policy",
                   f"policy '{policy}' is tests-only (negative fixtures / "
                   "litmus subjects) and cannot justify a production "
                   "relaxed site")
            continue
        op = classify_site(lines, i)
        if op != "unknown" and op not in entry["ops"]:
            allowed = "/".join(entry["ops"])
            report("atomics-downgrade",
                   f"relaxed {op} annotated '{policy}', which only covers "
                   f"{allowed} — the operation outgrew its rationale "
                   "(silent downgrade); re-derive the required order")


# ---- vmpi protocol rules ----------------------------------------------------


def check_vmpi_tags(rel: str, lines: list[str],
                    findings: list[Finding]) -> None:
    # The runtime itself defines the reserved tags; tests build
    # deliberately broken protocols (that is what they test).
    if rel.startswith("src/por/vmpi/") or is_test_path(rel):
        return
    decls: list[tuple[int, str, int]] = []  # (line idx, name, value)
    for i, raw in enumerate(lines):
        code = strip_line_comment(raw)
        for match in TAG_DECL_RE.finditer(code):
            decls.append((i, match.group(1), int(match.group(2))))
    if not decls:
        return

    sent: set[str] = set()
    received: set[str] = set()
    for raw in lines:
        code = strip_line_comment(raw)
        for _, name, _ in decls:
            if name not in code:
                continue
            if SEND_RE.search(code):
                sent.add(name)
            if RECV_RE.search(code):
                received.add(name)

    seen_values: dict[int, str] = {}
    for i, name, value in decls:
        waivers = waivers_for(lines, i)
        if "vmpi-unmatched-tag" in waivers:
            if not waivers["vmpi-unmatched-tag"]:
                findings.append(Finding(rel, i + 1, "vmpi-unmatched-tag",
                                        "waiver without a reason — "
                                        "justify it"))
            continue
        if value < 0:
            findings.append(Finding(
                rel, i + 1, "vmpi-unmatched-tag",
                f"tag {name} = {value}: negative tags are reserved for the "
                "vmpi collectives (comm.hpp); pick a non-negative value"))
        if value in seen_values:
            findings.append(Finding(
                rel, i + 1, "vmpi-unmatched-tag",
                f"tag {name} duplicates the value {value} of "
                f"{seen_values[value]} in the same file — messages on one "
                "channel would satisfy the other's recv"))
        else:
            seen_values[value] = name
        if name in sent and name not in received:
            findings.append(Finding(
                rel, i + 1, "vmpi-unmatched-tag",
                f"tag {name} is sent but never received in this file — "
                "either dead traffic or the recv lives out of protocol "
                "scope (waive with the pairing site if so)"))
        elif name in received and name not in sent:
            findings.append(Finding(
                rel, i + 1, "vmpi-unmatched-tag",
                f"tag {name} is received but never sent in this file — "
                "the recv can only ever time out"))
        elif name not in sent:
            findings.append(Finding(
                rel, i + 1, "vmpi-unmatched-tag",
                f"tag {name} is declared but never used in a send or recv"))


def check_vmpi_recv_timeout(rel: str, lines: list[str],
                            findings: list[Finding]) -> None:
    text = "\n".join(lines)
    fault_tolerant = (rel.startswith("src/por/resilience/")
                      or FAULT_MARKER_RE.search(text) is not None)
    if not fault_tolerant or rel.startswith("src/por/vmpi/") \
            or is_test_path(rel):
        return
    for i, raw in enumerate(lines):
        code = strip_line_comment(raw)
        match = BLOCKING_RECV_RE.search(code)
        if match is None:
            continue
        waivers = waivers_for(lines, i)
        if "vmpi-recv-timeout" in waivers:
            if not waivers["vmpi-recv-timeout"]:
                findings.append(Finding(rel, i + 1, "vmpi-recv-timeout",
                                        "waiver without a reason — "
                                        "justify it"))
            continue
        findings.append(Finding(
            rel, i + 1, "vmpi-recv-timeout",
            f"blocking {match.group(1)}() in a fault-tolerant path can "
            "hang forever on a dead peer; use try_recv_any_* with a "
            "timeout, or waive naming the deadline that bounds this wait"))


def check_vmpi_collectives(rel: str, lines: list[str],
                           findings: list[Finding]) -> None:
    if rel.startswith("src/por/vmpi/") or is_test_path(rel):
        return  # the collectives' own implementations / fault tests
    depth = 0
    rank_blocks: list[int] = []  # brace depth at which a rank-if opened
    pending_rank_if = False
    for i, raw in enumerate(lines):
        code = strip_line_comment(raw)
        if IF_RE.search(code) and RANK_COND_RE.search(code):
            pending_rank_if = True
        if rank_blocks and COLLECTIVE_RE.search(code):
            match = COLLECTIVE_RE.search(code)
            waivers = waivers_for(lines, i)
            if "vmpi-collective-paths" in waivers:
                if not waivers["vmpi-collective-paths"]:
                    findings.append(Finding(rel, i + 1,
                                            "vmpi-collective-paths",
                                            "waiver without a reason — "
                                            "justify it"))
            else:
                findings.append(Finding(
                    rel, i + 1, "vmpi-collective-paths",
                    f"collective {match.group(1)}() inside a "
                    "rank-conditioned branch: ranks that skip the branch "
                    "never arrive and every other rank hangs"))
        for ch in code:
            if ch == "{":
                if pending_rank_if:
                    rank_blocks.append(depth)
                    pending_rank_if = False
                depth += 1
            elif ch == "}":
                depth -= 1
                while rank_blocks and rank_blocks[-1] >= depth:
                    rank_blocks.pop()
        if pending_rank_if and code.strip().endswith(";"):
            pending_rank_if = False  # braceless single-statement if


def check_mmap_escape(rel: str, lines: list[str],
                      findings: list[Finding]) -> None:
    """Flag pointers derived from a local ShardMapping's data() that
    escape the mapping's scope (returned, or stored into a member).
    Token-level scoping: brace depth, locals dropped when their block
    closes; members (trailing-underscore names) are never tracked."""
    depth = 0
    mappings: dict[str, int] = {}  # local mapping name -> decl depth
    derived: dict[str, int] = {}   # derived pointer name -> decl depth

    def sources_in(code: str) -> bool:
        for name in mappings:
            if re.search(rf"\b{name}\s*\.\s*data\s*\(", code):
                return True
        return any(re.search(rf"\b{name}\b", code) for name in derived)

    for i, raw in enumerate(lines):
        code = strip_line_comment(raw)
        decl = MMAP_DECL_RE.search(code)
        if decl and not decl.group(1).endswith("_"):
            mappings[decl.group(1)] = depth
        if mappings and sources_in(code):
            waivers = waivers_for(lines, i)
            escaped = (RETURN_RE.search(code)
                       or MEMBER_STORE_RE.search(code)) is not None
            if escaped:
                if "mmap-escape" in waivers:
                    if not waivers["mmap-escape"]:
                        findings.append(Finding(rel, i + 1, "mmap-escape",
                                                "waiver without a reason — "
                                                "justify it"))
                else:
                    findings.append(Finding(
                        rel, i + 1, "mmap-escape",
                        "pointer derived from a scope-local ShardMapping "
                        "escapes (returned or stored into a member); the "
                        "mapping unmaps at end of scope and the pointer "
                        "dangles — keep the mapping alive as long as the "
                        "pointer (member, not local)"))
            else:
                ptr = DERIVED_DECL_RE.search(code)
                if ptr and not ptr.group(1).endswith("_"):
                    derived[ptr.group(1)] = depth
        for ch in code:
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                mappings = {n: d for n, d in mappings.items() if d <= depth}
                derived = {n: d for n, d in derived.items() if d <= depth}


# ---- frontends --------------------------------------------------------------


def clang_available() -> bool:
    try:
        import clang.cindex  # noqa: F401
        return True
    except ImportError:
        return False


def clang_filter_sites(path: Path, build_dir: Path | None,
                       site_lines: set[int]) -> set[int]:
    """Re-parse `path` with libclang and keep only the relaxed sites
    that sit inside a real call expression (drops macro-generated and
    data uses the token frontend cannot see through).  Falls back to
    the unfiltered set on any parse trouble — the token frontend's
    answer is the conservative one."""
    import clang.cindex as ci
    args: list[str] = ["-std=c++17"]
    if build_dir is not None:
        try:
            db = ci.CompilationDatabase.fromDirectory(str(build_dir))
            cmds = db.getCompileCommands(str(path))
            if cmds:
                raw = list(cmds[0].arguments)[1:-1]
                args = [a for a in raw if a != str(path)]
        except ci.CompilationDatabaseError:
            pass
    try:
        tu = ci.Index.create().parse(str(path), args=args)
    except ci.TranslationUnitLoadError:
        return site_lines
    call_kinds = {ci.CursorKind.CALL_EXPR, ci.CursorKind.CXX_METHOD}
    kept: set[int] = set()

    def visit(cursor: "ci.Cursor") -> None:
        for child in cursor.get_children():
            if child.kind in call_kinds and child.extent.start.file and \
                    Path(str(child.extent.start.file)) == path:
                for line in range(child.extent.start.line,
                                  child.extent.end.line + 1):
                    if line - 1 in site_lines:
                        kept.add(line - 1)
            visit(child)

    visit(tu.cursor)
    return kept if kept else site_lines


# ---- driving ----------------------------------------------------------------


def files_from_compile_db(build_dir: Path, root: Path) -> list[Path]:
    db_path = build_dir / "compile_commands.json"
    if not db_path.is_file():
        print(f"ast_lint: {db_path} not found — configure with "
              "CMAKE_EXPORT_COMPILE_COMMANDS=ON first", file=sys.stderr)
        raise SystemExit(2)
    entries = json.loads(db_path.read_text(encoding="utf-8"))
    allowed = tuple((root / d).as_posix() + "/"
                    for d in SOURCE_DIRS + TEST_DIRS)
    files: set[Path] = set()
    for entry in entries:
        path = Path(entry["file"])
        if not path.is_absolute():
            path = Path(entry["directory"]) / path
        posix = path.resolve().as_posix()
        if posix.startswith(allowed):
            files.add(Path(posix))
    # Headers never appear in a compile database; the protocol rules
    # live mostly in headers, so sweep them in explicitly.
    for d in SOURCE_DIRS + TEST_DIRS:
        base = root / d
        if base.is_dir():
            files.update(p for p in base.rglob("*")
                         if p.suffix in {".hpp", ".h"} and p.is_file())
    return sorted(files)


def walk_tree(root: Path) -> list[Path]:
    files: list[Path] = []
    for d in SOURCE_DIRS + TEST_DIRS:
        base = root / d
        if base.is_dir():
            files.extend(p for p in sorted(base.rglob("*"))
                         if p.suffix in CPP_SUFFIXES and p.is_file())
    return files


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path("."),
                        help="repository root (default: cwd)")
    parser.add_argument("--build-dir", type=Path, default=None,
                        help="build dir with compile_commands.json; "
                             "required for CI so linting nothing is loud")
    parser.add_argument("--frontend", choices=("auto", "token", "clang"),
                        default="auto",
                        help="site classifier: clang needs the python "
                             "clang bindings (auto falls back to token)")
    parser.add_argument("--registry", type=Path, default=None,
                        help="atomics policy registry (default: "
                             "tools/lint/atomics_policies.json)")
    parser.add_argument("paths", nargs="*", type=Path,
                        help="restrict to these files (default: tree/DB)")
    add_output_args(parser)
    args = parser.parse_args()

    root = args.root.resolve()
    if not (root / "src").is_dir():
        print(f"ast_lint: {root} does not look like the repo root",
              file=sys.stderr)
        return 2

    registry_path = args.registry or \
        Path(__file__).resolve().parent / "atomics_policies.json"
    try:
        registry = json.loads(registry_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as err:
        print(f"ast_lint: cannot load policy registry {registry_path}: "
              f"{err}", file=sys.stderr)
        return 2

    use_clang = args.frontend == "clang" or (
        args.frontend == "auto" and clang_available())
    if args.frontend == "clang" and not clang_available():
        print("ast_lint: --frontend clang requires the python clang "
              "bindings (clang.cindex), which are not importable",
              file=sys.stderr)
        return 2

    if args.paths:
        files = [p.resolve() for p in args.paths]
    elif args.build_dir is not None:
        files = files_from_compile_db(args.build_dir.resolve(), root)
    else:
        files = walk_tree(root)

    findings: list[Finding] = []
    for path in files:
        rel = rel_path(root, path)
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as err:
            findings.append(Finding(rel, 0, "encoding", str(err)))
            continue
        lines = text.splitlines()
        if use_clang and path.suffix == ".cpp":
            relaxed = {i for i, l in enumerate(lines)
                       if RELAXED_RE.search(strip_line_comment(l))}
            if relaxed:
                kept = clang_filter_sites(path, args.build_dir, relaxed)
                lines = [l if (i not in relaxed or i in kept)
                         else strip_line_comment(l).replace(
                             "memory_order_relaxed", "memory_order_seq_cst")
                         for i, l in enumerate(lines)]
        check_atomics(rel, lines, registry, findings)
        check_vmpi_tags(rel, lines, findings)
        check_vmpi_recv_timeout(rel, lines, findings)
        check_vmpi_collectives(rel, lines, findings)
        check_mmap_escape(rel, lines, findings)

    findings.sort(key=lambda f: (f.path, f.line))
    return emit("ast_lint", findings, len(files), args.format, args.json_out)


if __name__ == "__main__":
    sys.exit(main())
