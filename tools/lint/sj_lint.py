#!/usr/bin/env python3
"""sj-lint: project-specific invariants the compiler cannot see.

The IO-conscious core survives on conventions that no C++ diagnostic
enforces. This pass makes them hard failures in CI:

  pool-bypass       BufferPool::Pin/Unpin are the storage cursors'
                    private protocol. A call anywhere else under src/ or
                    examples/ (outside src/storage/) reads pages without
                    charging faults -- the silent bug every IO experiment
                    in the paper is about.
  backend-dispatch  src/xpath/backend_dispatch.h is the ONE place that
                    may compare or switch on StorageBackend. A rogue
                    comparison elsewhere re-creates the per-backend
                    if/else soup the dispatch class retired and dodges
                    its -Wswitch exhaustiveness net. Likewise it is the
                    one place outside src/storage/ and src/delta/ that
                    constructs the pool-backed or merging cursors
                    (CompressedDocAccessor, CompressedFragmentCursor,
                    DeltaDocAccessor<, DeltaFragmentCursor<): a cursor
                    built anywhere else is a per-backend shim growing
                    back next to the step's two construction sites.
  explain-literal   EXPLAIN trace fragments live in
                    src/xpath/explain_strings.h and nowhere else; tests
                    pin traces byte-for-byte, so an inline trace literal
                    in another src/xpath/ file is drift waiting to
                    happen.
  stats-on-advance  Every kernel function that advances a cursor via
                    SkipTo must account for it in its JoinStats (the
                    paper's skipped/scanned counters are the acceptance
                    evidence). Scope: the join kernels in src/core/.
  bench-json        Bench JsonRecord rows feed the CI perf-regression
                    gate; an aggregate initializer that omits the
                    trailing skipped/result fields silently gates on
                    zeros. Records must set all seven fields (or assign
                    .skipped/.result by name).
  cost-literal      The planner's cost constants (k...Cost...) live in
                    src/xpath/cost_model.h and nowhere else. A constant
                    defined in another src/xpath/ file forks the
                    planner's arithmetic: compiled plans, EXPLAIN's
                    est= numbers and bench_cold_suites' CM1 gate all pin
                    the one table.
  delta-mutation    Column images are immutable once published: updates
                    go through the delta overlay (src/delta/) and are
                    folded by Database::Compact. Constructing a
                    DocTableBuilder -- or const_cast-ing a DocTable --
                    outside the encoding layer, src/delta/ and the
                    generators mutates (or rebuilds) an image behind the
                    snapshots' backs, breaking snapshot isolation.
  unpinned-image    Database::disk(), compressed_doc() and
                    compressed_tags() return pointers into whichever
                    snapshot is current at the call; a Compact frees
                    those images under the caller. They survive only for
                    the benchmark harness (perfbench/), so a call of any
                    of them under src/, examples/, bench/ or tests/ is a
                    finding: hold Database::CurrentSnapshot() and read
                    snap->images() instead.
  oracle-independence
                    tests/path_oracle.{h,cc} is the reference the
                    evaluator's equivalence tests trust, so it must not
                    share code with what it checks: it may include
                    xpath/ast.h and xpath/parser.h, but nothing else
                    from src/xpath/ and nothing from src/core/,
                    src/baselines/, src/storage/, src/delta/ or src/api/.

Suppress a finding with a trailing or preceding comment carrying a
justification:  // sj-lint: allow(rule-id) -- <why>

Usage:
  sj_lint.py                      lint the repository tree
  sj_lint.py --root DIR           lint a different tree
  sj_lint.py --treat-as REL FILE  lint FILE as if it lived at REL
                                  (the fixture self-test hook)

Exit status: 0 clean, 1 findings, 2 usage error.
"""

import argparse
import pathlib
import re
import sys

# ---------------------------------------------------------------------------
# C++-aware text preparation
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
      //[^\n]*                                  # line comment
    | /\*.*?\*/                                 # block comment
    | R"([^ ()\\\t\n]*)\((?:.|\n)*?\)\1"        # raw string literal
    | "(?:[^"\\\n]|\\.)*"                       # string literal
    | '(?:[^'\\\n]|\\.)*'                       # char literal
    """,
    re.VERBOSE | re.DOTALL,
)


def _blank_keep_newlines(text):
    return re.sub(r"[^\n]", " ", text)


def strip_comments_and_strings(src):
    """Returns (code, literals): `code` is the source with comments and
    string/char literals blanked (newlines kept, so offsets and line
    numbers survive); `literals` is a list of (line, content) for every
    ordinary string literal."""
    out = []
    literals = []
    pos = 0
    for m in _TOKEN_RE.finditer(src):
        out.append(src[pos:m.start()])
        tok = m.group(0)
        if tok.startswith('"') and tok.endswith('"'):
            line = src.count("\n", 0, m.start()) + 1
            literals.append((line, tok[1:-1]))
        out.append(_blank_keep_newlines(tok))
        pos = m.end()
    out.append(src[pos:])
    return "".join(out), literals


_ALLOW_RE = re.compile(r"sj-lint:\s*allow\(([a-z-]+)\)")


def allowed_lines(src):
    """Maps rule-id -> set of line numbers where that rule is suppressed
    (the comment's own line and the next line)."""
    allows = {}
    for i, line in enumerate(src.splitlines(), start=1):
        for m in _ALLOW_RE.finditer(line):
            allows.setdefault(m.group(1), set()).update({i, i + 1})
    return allows


def line_of(code, offset):
    return code.count("\n", 0, offset) + 1


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _report(findings, allows, path, line, rule, message):
    if line in allows.get(rule, set()):
        return
    findings.append(Finding(path, line, rule, message))


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

_PIN_RE = re.compile(r"(?:\.|->)\s*(?:Pin|Unpin)\s*\(")


def check_pool_bypass(rel, code, _literals, allows, findings):
    inside = rel.startswith("src/") or rel.startswith("examples/")
    if not inside or rel.startswith("src/storage/"):
        return
    for m in _PIN_RE.finditer(code):
        _report(findings, allows, rel, line_of(code, m.start()),
                "pool-bypass",
                "BufferPool::Pin/Unpin outside src/storage/ reads pages "
                "without charging faults; go through a storage cursor")


_BACKEND_CMP_RE = re.compile(
    r"(?:[=!]=\s*StorageBackend::\w+|StorageBackend::\w+\s*[=!]=)")
_BACKEND_SWITCH_RE = re.compile(r"switch\s*\(([^()]|\([^()]*\))*backend")

_DISPATCH_FILE = "src/xpath/backend_dispatch.h"

_CURSOR_RE = re.compile(
    r"\b(?:CompressedDocAccessor|CompressedFragmentCursor)\b"
    r"|\b(?:DeltaDocAccessor|DeltaFragmentCursor)\s*<")

# Where storage and delta cursors may be constructed: their own layers
# and the dispatch's two construction sites.
_CURSOR_SITES = ("src/storage/", "src/delta/", _DISPATCH_FILE)


def check_backend_dispatch(rel, code, _literals, allows, findings):
    if not rel.startswith("src/") or rel == _DISPATCH_FILE:
        return
    for m in _BACKEND_CMP_RE.finditer(code):
        _report(findings, allows, rel, line_of(code, m.start()),
                "backend-dispatch",
                "StorageBackend comparison outside " + _DISPATCH_FILE +
                "; add or use a BackendDispatch method")
    for m in _BACKEND_SWITCH_RE.finditer(code):
        _report(findings, allows, rel, line_of(code, m.start()),
                "backend-dispatch",
                "switch on a storage backend outside " + _DISPATCH_FILE +
                "; add or use a BackendDispatch method")
    if rel.startswith(_CURSOR_SITES):
        return
    for m in _CURSOR_RE.finditer(code):
        _report(findings, allows, rel, line_of(code, m.start()),
                "backend-dispatch",
                "storage/delta cursor constructed outside src/storage/, "
                "src/delta/ and " + _DISPATCH_FILE + "; build a step's "
                "cursors through BackendDispatch instead of a per-backend "
                "shim")


# Phrases that only occur in EXPLAIN trace output. Deliberately NOT the
# whole table: Status messages legitimately mention e.g. "pool".
_EXPLAIN_PHRASES = (
    "staircase join",
    "-axis cursor join",
    "twig join",
    "per-context evaluation",
    "buffer pool",
    "name-test pushdown",
    "cursor skips",
    "-> empty",
    " workers)",
    " via ",
    "plan: cached",
    "snapshot: epoch",
    "positional rank join",
    "over tag fragment",
    " est=",
    " act=",
)

_STRINGS_FILE = "src/xpath/explain_strings.h"


def check_explain_literal(rel, _code, literals, allows, findings):
    if not rel.startswith("src/xpath/") or rel == _STRINGS_FILE:
        return
    for line, content in literals:
        for phrase in _EXPLAIN_PHRASES:
            if phrase in content:
                _report(findings, allows, rel, line, "explain-literal",
                        f'EXPLAIN fragment "{content}" typed inline; use '
                        f"the constants in {_STRINGS_FILE}")
                break


# The join kernels whose SkipTo calls must be accounted in JoinStats /
# TwigLevelStats. Cursor *definitions* of SkipTo (src/storage/,
# core/doc_accessor.h, core/fragment_cursor.h) are the mechanism, not
# the policy, and are out of scope.
_KERNEL_FILES = (
    "src/core/kernels.h",
    "src/core/staircase_impl.h",
    "src/core/axis_impl.h",
    "src/core/twig_impl.h",
    "src/core/fragment_impl.h",
)

_SKIPTO_RE = re.compile(r"(?:\.|->)\s*SkipTo\s*\(")


def _enclosing_function(code, offset):
    """Returns (start, end) of the function whose body encloses `offset`:
    the innermost brace block whose opening `{` is preceded (modulo
    whitespace and trailing qualifiers) by a `)`. `start` points at the
    beginning of the statement introducing the function (after the
    previous `;`, `{` or `}`), so the signature is included. Returns
    None when no such block exists."""
    # Innermost-to-outermost enclosing open braces.
    stack = []
    enclosing = []
    for i, ch in enumerate(code):
        if ch == "{":
            stack.append(i)
        elif ch == "}":
            if not stack:
                return None  # unbalanced; bail out
            open_i = stack.pop()
            if open_i < offset < i:
                enclosing.append((open_i, i))
    enclosing.extend((i, len(code)) for i in reversed(stack) if i < offset)
    for open_i, close_i in enclosing:
        before = code[:open_i].rstrip()
        for qual in ("const", "noexcept", "override", "final"):
            if before.endswith(qual):
                before = before[: -len(qual)].rstrip()
        if not before.endswith(")"):
            continue
        # Walk back over the parameter list to the introducing word; a
        # control-flow block (if/for/while/...) is not a function body --
        # keep looking outward.
        depth = 0
        i = len(before) - 1
        while i >= 0:
            if before[i] == ")":
                depth += 1
            elif before[i] == "(":
                depth -= 1
                if depth == 0:
                    break
            i -= 1
        head = before[:i].rstrip()
        word = re.search(r"(\w+)\s*$", head)
        if word and word.group(1) in ("if", "for", "while", "switch",
                                      "catch"):
            continue
        stmt_start = max(before.rfind(";", 0, i), before.rfind("{", 0, i),
                         before.rfind("}", 0, i)) + 1
        return stmt_start, close_i
    return None


def check_stats_on_advance(rel, code, _literals, allows, findings):
    if rel not in _KERNEL_FILES:
        return
    for m in _SKIPTO_RE.finditer(code):
        span = _enclosing_function(code, m.start())
        if span is None:
            continue
        func = code[span[0]:span[1]]
        if not re.search(r"[Ss]tats", func):
            _report(findings, allows, rel, line_of(code, m.start()),
                    "stats-on-advance",
                    "kernel advances a cursor (SkipTo) but its function "
                    "never touches JoinStats; skipped work must be counted")


_JSON_FIELDS = 10  # query, backend, size_mb, faults, ms, skipped, result,
                   # p50_ms, p95_ms, p99_ms
_PUSH_RE = re.compile(r"(?:push_back|emplace_back)\s*\(\s*\{|JsonRecord\s*\{")


def _brace_args(code, open_brace):
    """Counts top-level comma-separated items of the brace initializer
    starting at `open_brace` (string literals are already blanked)."""
    depth = 0
    args = 0
    saw_token = False
    i = open_brace
    while i < len(code):
        ch = code[i]
        if ch in "{([":
            depth += 1
        elif ch in "})]":
            depth -= 1
            if depth == 0:
                return args + 1 if saw_token else 0
        elif depth == 1:
            if ch == ",":
                args += 1
            elif not ch.isspace():
                saw_token = True
        i += 1
    return None


def check_bench_json(rel, code, _literals, allows, findings):
    if not (rel.startswith("bench/") and rel.endswith(".cc")):
        return
    if "JsonRecord" not in code:
        return
    for m in _PUSH_RE.finditer(code):
        open_brace = code.index("{", m.start())
        count = _brace_args(code, open_brace)
        if count is None or count == 0:
            continue
        if count < _JSON_FIELDS:
            _report(findings, allows, rel, line_of(code, m.start()),
                    "bench-json",
                    f"JsonRecord initializer sets {count} of "
                    f"{_JSON_FIELDS} fields; skipped/result would gate "
                    "on silent zeros -- set every field (or assign "
                    ".skipped/.result by name)")


# A cost-constant *definition*: an identifier whose name carries the
# cost-model naming convention (k...Cost...) initialized with a numeric
# literal. Usage sites (kPushdownProbeCost * rows) carry no "=" and are
# fine anywhere; knobs like pushdown_selectivity = 0.125 don't match the
# name shape and stay a session-option concern.
_COST_CONST_RE = re.compile(
    r"\bk\w*Cost\w*\s*=\s*[-+]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?")

_COST_FILE = "src/xpath/cost_model.h"


def check_cost_literal(rel, code, _literals, allows, findings):
    if not rel.startswith("src/xpath/") or rel == _COST_FILE:
        return
    for m in _COST_CONST_RE.finditer(code):
        _report(findings, allows, rel, line_of(code, m.start()),
                "cost-literal",
                "cost constant defined outside " + _COST_FILE + "; the "
                "planner's arithmetic must not fork -- move the constant "
                "there (plans and EXPLAIN estimates are pinned to it)")


_MUTATION_RE = re.compile(r"\bDocTableBuilder\b|const_cast\s*<\s*DocTable\b")

# The layers that legitimately build or rework column images: the
# encoding layer (builders, loaders, collections), the delta store
# (overlay materialization / compaction), and the document generators.
_MUTATION_ALLOWED = ("src/encoding/", "src/delta/", "src/xmlgen/")


def check_delta_mutation(rel, code, _literals, allows, findings):
    if not rel.startswith("src/"):
        return
    if rel.startswith(_MUTATION_ALLOWED):
        return
    for m in _MUTATION_RE.finditer(code):
        _report(findings, allows, rel, line_of(code, m.start()),
                "delta-mutation",
                "column images are immutable behind published snapshots; "
                "route updates through the delta overlay (src/delta/) and "
                "Database::Compact instead of rebuilding or casting away "
                "const here")


_UNPINNED_RE = re.compile(
    r"(?:\.|->)\s*(?:disk|compressed_doc|compressed_tags)\s*\(\s*\)")

# Where the three accessors are declared (and defined inline), and the
# trees that may not call them.
_UNPINNED_DECL = "src/api/database.h"
_UNPINNED_SCOPE = ("src/", "examples/", "bench/", "tests/")


def check_unpinned_image(rel, code, _literals, allows, findings):
    if not rel.startswith(_UNPINNED_SCOPE) or rel == _UNPINNED_DECL:
        return
    for m in _UNPINNED_RE.finditer(code):
        _report(findings, allows, rel, line_of(code, m.start()),
                "unpinned-image",
                "Database image accessor borrows from whichever snapshot "
                "is current and dangles after a Compact; hold "
                "CurrentSnapshot() and read snap->images() (these "
                "accessors exist only for perfbench/)")


_INCLUDE_RE = re.compile(r"^[ \t]*#[ \t]*include\b(.*)$", re.MULTILINE)


def _includes(code, literals):
    """Yields (line, path) for every #include directive; quoted paths
    come from `literals` (strip_comments_and_strings blanks them)."""
    quoted = {}
    for line, content in literals:
        quoted.setdefault(line, content)
    for m in _INCLUDE_RE.finditer(code):
        line = line_of(code, m.start())
        angle = re.search(r"<([^>]+)>", m.group(1))
        if angle:
            yield line, angle.group(1)
        elif line in quoted:
            yield line, quoted[line]


_ORACLE_PREFIX = "tests/path_oracle."
_ORACLE_FORBIDDEN = ("core/", "baselines/", "storage/", "delta/", "api/")
_ORACLE_XPATH_ALLOWED = ("xpath/ast.h", "xpath/parser.h")


def check_oracle_independence(rel, code, literals, allows, findings):
    if not rel.startswith(_ORACLE_PREFIX):
        return
    for line, path in _includes(code, literals):
        path = path.removeprefix("src/")
        if path.startswith(_ORACLE_FORBIDDEN) or (
                path.startswith("xpath/") and
                path not in _ORACLE_XPATH_ALLOWED):
            _report(findings, allows, rel, line, "oracle-independence",
                    f'the path oracle includes "{path}"; it must stay '
                    "independent of the engine it checks (only "
                    "xpath/ast.h and xpath/parser.h from src/xpath/, "
                    "nothing from core/baselines/storage/delta/api)")


_RULES = (
    check_pool_bypass,
    check_backend_dispatch,
    check_explain_literal,
    check_stats_on_advance,
    check_bench_json,
    check_cost_literal,
    check_delta_mutation,
    check_unpinned_image,
    check_oracle_independence,
)

# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

_LINT_DIRS = ("src", "examples", "bench", "tests")
_EXTENSIONS = (".h", ".cc", ".cpp")


def lint_file(path, rel, findings):
    src = path.read_text(encoding="utf-8")
    code, literals = strip_comments_and_strings(src)
    allows = allowed_lines(src)
    for rule in _RULES:
        rule(rel, code, literals, allows, findings)


def tree_files(root):
    for d in _LINT_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in _EXTENSIONS and path.is_file():
                yield path, path.relative_to(root).as_posix()


def main(argv):
    parser = argparse.ArgumentParser(
        description="project-specific lint for the stairjoin tree")
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parents[2],
                        help="repository root (default: this script's repo)")
    parser.add_argument("--treat-as", metavar="RELPATH",
                        help="lint the given FILEs as if they lived at "
                             "RELPATH inside the tree")
    parser.add_argument("files", nargs="*", type=pathlib.Path,
                        help="specific files to lint (default: whole tree)")
    args = parser.parse_args(argv)

    if args.treat_as and not args.files:
        parser.error("--treat-as requires explicit FILE arguments")

    findings = []
    if args.files:
        for path in args.files:
            rel = args.treat_as or path.resolve().relative_to(
                args.root.resolve()).as_posix()
            lint_file(path, rel, findings)
    else:
        for path, rel in tree_files(args.root):
            lint_file(path, rel, findings)

    for finding in findings:
        print(finding)
    if findings:
        print(f"sj-lint: {len(findings)} finding(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
