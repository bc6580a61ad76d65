#!/usr/bin/env python3
"""mube_lint: project-specific invariants the compilers don't enforce.

Architecture
------------
A multi-pass static-analysis framework (see DESIGN.md §11):

  SourceFile   the shared lexing layer — comment/string stripping (digit
               separators and escapes handled), a preprocessor-aware line
               index (#if nesting depth, directive flags), and per-line
               `NOLINT` / `NOLINT(rule, ...)` suppression.
  ClassIndex   the declaration scanner — brace-matched class/struct spans
               with direct data members, so rules can reason per class
               (mutex-coverage) and across classes (lock-order).
  Analyzer     one rule: `check_file(sf)` runs per file, `finalize()` runs
               once after the whole tree (cross-file rules). The registry
               in ANALYZERS is the single list both the tree lint and
               --self-test iterate.

Rule catalog
------------
nodiscard         src/common/status.h must keep [[nodiscard]] on Status and
                  Result — every other rule about error handling hangs off
                  it.
randomness        Ad-hoc randomness (std::rand, srand, time(nullptr) seeds,
                  std::random_device, mt19937) is banned outside
                  src/common/random.*: every random decision must flow
                  through the seeded Rng so fixed-seed runs are
                  reproducible.
naked-new         `new` is allowed only when ownership is taken on the same
                  statement (smart-pointer constructor / make_*) or in a
                  `static` never-destroyed singleton initializer; `delete`
                  expressions are banned outright.
raw-sync          std::mutex & friends are banned outside
                  src/common/threading.h: only the annotated wrappers give
                  Clang's -Wthread-safety anything to analyze.
header-guard      Headers use #ifndef MUBE_<PATH>_H_ guards (no #pragma
                  once); the guard must match the file's path under src/.
include-order     A .cc file's first include is its own header, so every
                  header is verified self-contained by its own translation
                  unit.
downcast          dynamic_cast is banned under src/: program against the
                  interface. A caller that needs a backend's facts gets
                  them through a virtual on the interface it holds.
det-iteration     Iterating (range-for) or folding (std::accumulate &
                  friends) over std::unordered_map/unordered_set is banned:
                  hash order is not part of the contract and feeds reports,
                  exposition, and batch formation. Route through
                  det::SortedKeys / det::SortedItems / det::SortedValues
                  (src/common/det.h), or justify with
                  NOLINT(det-iteration) when the fold is provably
                  order-insensitive. FlatMap (common/flat_map.h) iterates
                  in slot order — a function of insertion history — so
                  .ForEach( on a FlatMap member gets the same treatment.
det-pointer-order Ordering by raw pointer value (pointer-keyed std::map/
                  std::set, std::less<T*>, reinterpret_cast to uintptr_t)
                  depends on the allocator's address layout and differs run
                  to run under ASLR. Key by index or id instead.
det-wall-clock    std::chrono::*_clock::now() is banned outside
                  src/common/timer.h and src/common/threading.cc —
                  everything else must take time through WallTimer or the
                  injectable service clock so shed/degrade decisions replay.
mutex-coverage    Every declared Mutex member must be referenced by at
                  least one GUARDED_BY / PT_GUARDED_BY / ACQUIRED_BEFORE /
                  ACQUIRED_AFTER annotation in its class (or carry an
                  ACQUIRED_* itself); every CondVar needs a covered Mutex
                  companion in the same class. -Wthread-safety is silent on
                  fields nobody annotated — this closes that gap.
lock-order        Builds the static lock hierarchy from ACQUIRED_BEFORE /
                  ACQUIRED_AFTER annotations plus `LOCK-ORDER: A::x -> B::y`
                  comment declarations (for cross-class edges Clang's
                  attribute expressions cannot name), and fails on cycles.
                  In tree mode it also fails when a known runtime nesting
                  among the serving/snapshot/metrics mutexes
                  (REQUIRED_LOCK_ORDER) is not declared.

Usage
-----
  tools/lint/mube_lint.py [--root DIR] [--format {plain,github}]
                                           lint the tree (exit 1 on
                                           findings); --format=github emits
                                           ::error problem-matcher lines
                                           that annotate PRs inline
  tools/lint/mube_lint.py --self-test      run the rule engine against the
                                           annotated fixtures in testdata/
"""

import argparse
import os
import re
import sys

LINT_DIRS = ("src", "tests", "bench", "examples", "tools")
RANDOMNESS_ALLOWED = ("src/common/random.h", "src/common/random.cc")
RAW_SYNC_ALLOWED = ("src/common/threading.h",)
DET_ITERATION_ALLOWED = ("src/common/det.h",)
WALL_CLOCK_ALLOWED = ("src/common/timer.h", "src/common/threading.cc")

# Runtime lock nestings that exist in the code (lock A held while acquiring
# lock B) and therefore MUST be declared — via ACQUIRED_BEFORE/AFTER where
# both locks are members of one class, via a LOCK-ORDER comment where they
# are not. Grown alongside the serving layer; an undeclared nesting here
# means the hierarchy documentation went stale.
REQUIRED_LOCK_ORDER = (
    # SnapshotManager::ApplyChurn publishes under the writer lock.
    ("SnapshotManager::publish_mu_", "SnapshotManager::mu_"),
    # MubeService::Admit resolves the tenant before entering the queue
    # critical section (and never the other way around).
    ("MubeService::tenants_mu_", "MubeService::mu_"),
    # MetricsRegistry::Expose walks the metric map under mu_ while
    # Counter::Value / Histogram::TakeSnapshot take the shard locks.
    ("MetricsRegistry::mu_", "Counter::Shard::mu"),
    ("MetricsRegistry::mu_", "Histogram::Shard::mu"),
)


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def github(self):
        return (f"::error file={self.path},line={self.line},"
                f"title=mube_lint {self.rule}::{self.message}")


# ---------------------------------------------------------------------------
# Lexing layer
# ---------------------------------------------------------------------------

def strip_code(lines):
    """Returns lines with comments and string/char literals blanked out,
    preserving line numbers. Digit separators (1'000'000) are not treated as
    char literals. Good enough for greps; this is a lint, not a parser."""
    out = []
    in_block = False
    for raw in lines:
        result = []
        i = 0
        n = len(raw)
        while i < n:
            if in_block:
                end = raw.find("*/", i)
                if end == -1:
                    i = n
                else:
                    in_block = False
                    i = end + 2
                continue
            ch = raw[i]
            nxt = raw[i + 1] if i + 1 < n else ""
            if ch == "/" and nxt == "/":
                break
            if ch == "/" and nxt == "*":
                in_block = True
                i += 2
                continue
            if ch == "'" and i > 0 and (raw[i - 1].isalnum()
                                        or raw[i - 1] == "_"):
                i += 1  # digit separator / suffix, not a char literal
                continue
            if ch in ("\"", "'"):
                quote = ch
                result.append(quote)
                i += 1
                while i < n:
                    if raw[i] == "\\":
                        i += 2
                        continue
                    if raw[i] == quote:
                        i += 1
                        break
                    i += 1
                result.append(quote)
                continue
            result.append(ch)
            i += 1
        out.append("".join(result))
    return out


_NOLINT_RE = re.compile(r"NOLINT(?:\(([^)]*)\))?")


class SourceFile:
    """One lexed file: raw lines, stripped code, preprocessor line index,
    suppression lookup, and the (lazily built) class index."""

    def __init__(self, rel_path, raw_lines):
        self.rel_path = rel_path
        self.raw_lines = raw_lines
        self.code = strip_code(raw_lines)
        self.is_header = rel_path.endswith(".h")
        self.in_src = rel_path.startswith("src/")
        # Preprocessor-aware index: pp_depth[i] = #if nesting depth of line
        # i+1; is_directive[i] = the line is a preprocessor directive.
        self.pp_depth = []
        self.is_directive = []
        depth = 0
        for line in self.code:
            stripped = line.lstrip()
            directive = stripped.startswith("#")
            self.is_directive.append(directive)
            if directive and re.match(r"#\s*(if|ifdef|ifndef)\b", stripped):
                self.pp_depth.append(depth)
                depth += 1
            elif directive and re.match(r"#\s*endif\b", stripped):
                depth = max(0, depth - 1)
                self.pp_depth.append(depth)
            else:
                self.pp_depth.append(depth)
        self._classes = None

    def suppressed(self, line_no, rule):
        """True when the raw line carries a NOLINT that covers `rule`:
        bare NOLINT suppresses everything, NOLINT(a, b) only rules a, b."""
        if not 0 < line_no <= len(self.raw_lines):
            return False
        m = _NOLINT_RE.search(self.raw_lines[line_no - 1])
        if m is None:
            return False
        if m.group(1) is None:
            return True
        rules = [r.strip() for r in m.group(1).split(",")]
        return rule in rules or "*" in rules

    def classes(self):
        if self._classes is None:
            self._classes = scan_classes(self.code)
        return self._classes

    def statement_at(self, line_no, lookback=2):
        """The statement context of a line: the line plus up to `lookback`
        predecessors, joined (for multi-line-statement rules)."""
        lo = max(0, line_no - 1 - lookback)
        return " ".join(self.code[lo:line_no])


# ---------------------------------------------------------------------------
# Declaration scanner
# ---------------------------------------------------------------------------

class MemberDecl:
    def __init__(self, type_name, name, line, text):
        self.type_name = type_name
        self.name = name
        self.line = line  # 1-based
        self.text = text  # full declaration text (may span lines)


class ClassDecl:
    def __init__(self, name, line):
        self.name = name
        self.line = line      # 1-based line of the opening brace
        self.end_line = line  # updated when the brace closes
        self.members = []     # direct data members (depth == body depth)
        self.body_lines = []  # (line_no, text) at any depth inside the class


_CLASS_HEAD_RE = re.compile(r"\b(class|struct)\b")


def _class_name_from_head(head):
    """Extracts the class name from the text between a class/struct keyword
    and its opening brace ('class CAPABILITY("mutex") Mutex : public X' →
    'Mutex'). Returns None for anonymous or non-class uses."""
    head = head.split(":", 1)[0]           # drop base clause
    head = re.sub(r"\([^)]*\)", " ", head)  # drop macro-attr argument lists
    head = re.sub(r"\[\[[^\]]*\]\]", " ", head)
    idents = re.findall(r"\b\w+\b", head)
    idents = [t for t in idents if t != "final"]
    return idents[-1] if idents else None


def scan_classes(code_lines):
    """Brace-matching scan for class/struct definitions and their direct
    data members. Tracks a scope stack; a member is a `Type name ...;`
    declaration whose innermost scope is the class body itself (member
    function bodies are deeper scopes and are skipped for member extraction
    but retained as body text for annotation searches)."""
    classes = []
    stack = []  # (ClassDecl | None, opened_at_depth)
    depth = 0
    # Statement buffer since the last ; { } — used to classify each `{`.
    stmt = []

    def innermost_class():
        for entry, _ in reversed(stack):
            if entry is not None:
                return entry
        return None

    pending_member = []  # accumulates a member declaration across lines

    for line_no, line in enumerate(code_lines, start=1):
        owner = innermost_class()
        if owner is not None:
            owner.body_lines.append((line_no, line))
            # Direct members live exactly one level inside the class brace.
            class_entry, class_depth = next(
                (e for e in reversed(stack) if e[0] is owner))
            if depth == class_depth + 1 and not line.lstrip().startswith("#"):
                # Access labels are not statement breaks to the regex below;
                # drop them so `private: Mutex mu_;` parses as a member.
                member_text = re.sub(
                    r"^\s*(?:public|protected|private)\s*:", " ", line)
                pending_member.append((line_no, member_text))
        i = 0
        for i, ch in enumerate(line):
            if ch == "{":
                head = "".join(stmt) + line[:i]
                # Only the text since the last statement break names this
                # brace's construct.
                head_tail = re.split(r"[;{}]", head)[-1]
                cls = None
                m = None
                for m in _CLASS_HEAD_RE.finditer(head_tail):
                    pass  # keep the last class/struct keyword
                if m is not None:
                    before = head_tail[:m.start()]
                    if not re.search(r"\benum\s*$", before):
                        name = _class_name_from_head(head_tail[m.end():])
                        if name:
                            cls = ClassDecl(name, line_no)
                            classes.append(cls)
                stack.append((cls, depth))
                depth += 1
                stmt = []
            elif ch == "}":
                depth = max(0, depth - 1)
                if stack:
                    entry, _ = stack.pop()
                    if entry is not None:
                        entry.end_line = line_no
                stmt = []
            elif ch == ";":
                stmt = []
            else:
                stmt.append(ch)
        stmt.append(" ")  # line break behaves as whitespace

        # Close out member declarations that ended on this line.
        if pending_member and ";" in line:
            text = " ".join(t for _, t in pending_member)
            # Map joined-text offsets back to source lines so findings
            # anchor on the declaration itself, not a leading comment.
            offsets = []
            pos = 0
            for mline_no, mtext in pending_member:
                offsets.append((pos, mline_no))
                pos += len(mtext) + 1
            for decl in re.finditer(
                    r"(?:^|[;{}])\s*(?:mutable\s+|static\s+|const\s+)*"
                    r"(\w+)\s+(\w+)\s*(?:=[^;]*|\[[^\]]*\]\s*|"
                    r"GUARDED_BY\s*\([^)]*\)\s*|PT_GUARDED_BY\s*\([^)]*\)\s*|"
                    r"ACQUIRED_BEFORE\s*\([^)]*\)\s*|"
                    r"ACQUIRED_AFTER\s*\([^)]*\)\s*)*;",
                    text):
                owner2 = innermost_class()
                if owner2 is not None:
                    decl_line = offsets[0][1]
                    # The identifier's offset decides the anchoring line.
                    for off, mline_no in offsets:
                        if off <= decl.start(1):
                            decl_line = mline_no
                    owner2.members.append(
                        MemberDecl(decl.group(1), decl.group(2), decl_line,
                                   decl.group(0)))
            pending_member = []
    return classes


# ---------------------------------------------------------------------------
# Analyzer framework
# ---------------------------------------------------------------------------

class Analyzer:
    """One rule. `check_file` runs per file; `finalize` once per run (for
    cross-file rules). Suppression and path allowlists are the subclass's
    job via self.add()."""
    name = "?"

    def __init__(self, tree_mode):
        self.tree_mode = tree_mode
        self.findings = []

    def add(self, sf, line_no, message):
        if sf.suppressed(line_no, self.name):
            return
        self.findings.append(Finding(sf.rel_path, line_no, self.name,
                                     message))

    def check_file(self, sf):
        raise NotImplementedError

    def finalize(self):
        pass


class NodiscardRule(Analyzer):
    name = "nodiscard"

    def check_file(self, sf):
        if sf.rel_path != "src/common/status.h":
            return
        text = "".join(sf.raw_lines)
        if not re.search(r"class\s+\[\[nodiscard\]\]\s+Status\b", text):
            self.add(sf, 1, "class Status lost its [[nodiscard]]")
        if not re.search(r"class\s+\[\[nodiscard\]\]\s+Result\b", text):
            self.add(sf, 1, "class Result lost its [[nodiscard]]")


BANNED_RANDOMNESS = [
    (re.compile(r"\bstd::rand\b"), "std::rand"),
    (re.compile(r"\bsrand\s*\("), "srand"),
    (re.compile(r"\btime\s*\(\s*(nullptr|NULL|0)\s*\)"), "time(nullptr)"),
    (re.compile(r"\bstd::random_device\b"), "std::random_device"),
    (re.compile(r"\bmt19937\b"), "mt19937"),
]


class RandomnessRule(Analyzer):
    name = "randomness"

    def check_file(self, sf):
        if sf.rel_path in RANDOMNESS_ALLOWED:
            return
        for idx, line in enumerate(sf.code, start=1):
            for pattern, name in BANNED_RANDOMNESS:
                if pattern.search(line):
                    self.add(sf, idx,
                             f"{name} outside common/random: use the "
                             "seeded Rng")


RAW_SYNC = [
    (re.compile(r"\bstd::mutex\b"), "std::mutex"),
    (re.compile(r"\bstd::timed_mutex\b"), "std::timed_mutex"),
    (re.compile(r"\bstd::recursive_mutex\b"), "std::recursive_mutex"),
    (re.compile(r"\bstd::shared_mutex\b"), "std::shared_mutex"),
    (re.compile(r"\bstd::lock_guard\b"), "std::lock_guard"),
    (re.compile(r"\bstd::unique_lock\b"), "std::unique_lock"),
    (re.compile(r"\bstd::scoped_lock\b"), "std::scoped_lock"),
    (re.compile(r"\bstd::condition_variable\b"), "std::condition_variable"),
]


class RawSyncRule(Analyzer):
    name = "raw-sync"

    def check_file(self, sf):
        if sf.rel_path in RAW_SYNC_ALLOWED:
            return
        for idx, line in enumerate(sf.code, start=1):
            for pattern, name in RAW_SYNC:
                if pattern.search(line):
                    self.add(sf, idx,
                             f"{name} outside common/threading.h: use the "
                             "annotated Mutex/MutexLock/CondVar wrappers")


NEW_RE = re.compile(r"(^|[^_\w.>])new\b")
DELETE_RE = re.compile(r"(^|[^_\w.])delete\b(\s*\[\s*\])?")
OWNED_NEW_RE = re.compile(
    r"(unique_ptr|shared_ptr)\s*<[^;]*>(\s*\w+)?\s*\([^;]*\bnew\b")
STATIC_INIT_RE = re.compile(r"\bstatic\b[^;]*=\s*[^;]*\bnew\b")


class NakedNewRule(Analyzer):
    name = "naked-new"

    def check_file(self, sf):
        for idx, line in enumerate(sf.code, start=1):
            if DELETE_RE.search(line) and "= delete" not in line:
                self.add(sf, idx, "delete expression: nothing in this "
                         "codebase owns raw memory")
            if NEW_RE.search(line):
                statement = sf.statement_at(idx)
                if (OWNED_NEW_RE.search(statement) or
                        STATIC_INIT_RE.search(statement)):
                    continue
                if re.search(r"\bmake_(unique|shared)\b", line):
                    continue
                self.add(sf, idx, "naked new: take ownership on the same "
                         "statement (smart pointer) or use a static "
                         "singleton")


def expected_guard(rel_path):
    """MUBE_<PATH under its top-level dir>_H_ (src/opt/foo.h →
    MUBE_OPT_FOO_H_; bench/bench_util.h → MUBE_BENCH_BENCH_UTIL_H_)."""
    parts = rel_path.split("/")
    if parts[0] == "src":
        parts = parts[1:]
    mangled = "_".join(parts)
    mangled = re.sub(r"[^A-Za-z0-9]", "_", mangled)
    return "MUBE_" + mangled.upper() + "_"


class HeaderGuardRule(Analyzer):
    name = "header-guard"

    def check_file(self, sf):
        if not sf.is_header:
            return
        text = "".join(sf.raw_lines)
        if "#pragma once" in text:
            self.add(sf, 1, "#pragma once: use MUBE_*_H_ guards")
        match = re.search(r"#ifndef\s+(\S+)\s*\n\s*#define\s+(\S+)", text)
        if not match:
            self.add(sf, 1, "missing #ifndef/#define header guard")
        else:
            want = expected_guard(sf.rel_path)
            if match.group(1) != want or match.group(2) != want:
                self.add(sf, 1, f"guard is {match.group(1)}, expected {want}")


class IncludeOrderRule(Analyzer):
    name = "include-order"

    def check_file(self, sf):
        if not (sf.in_src and sf.rel_path.endswith(".cc")):
            return
        own = sf.rel_path[len("src/"):-len(".cc")] + ".h"
        includes = []
        for idx, line in enumerate(sf.raw_lines, start=1):
            m = re.match(r"\s*#include\s+([\"<][^\">]+[\">])", line)
            if m and sf.pp_depth[idx - 1] <= 1:  # skip #if'd-out variants
                includes.append((idx, m.group(1)))
        quoted = [f'"{own}"']
        if includes and includes[0][1] in quoted:
            pass  # own header first: good
        elif any(inc in quoted for _, inc in includes):
            self.add(sf, includes[0][0],
                     f'own header "{own}" must be the first include')


class DowncastRule(Analyzer):
    name = "downcast"

    DYNAMIC_CAST_RE = re.compile(r"\bdynamic_cast\s*<")

    def check_file(self, sf):
        if not sf.in_src:
            return
        for idx, line in enumerate(sf.code, start=1):
            if self.DYNAMIC_CAST_RE.search(line):
                self.add(sf, idx, "dynamic_cast: program against the "
                         "interface (add a virtual to it instead)")


# --- determinism rules -----------------------------------------------------

_UNORDERED_DECL_RE = re.compile(r"\bunordered_(map|set)\s*<")
_FLAT_MAP_DECL_RE = re.compile(r"\bFlatMap\s*<")
_RANGE_FOR_RE = re.compile(r"\bfor\s*\(")
_FOLD_RE = re.compile(
    r"\bstd::(accumulate|copy|for_each|transform|partial_sum|reduce)\s*\(")


def _skip_angles(text, start):
    """Index just past the `>` matching the `<` at `start` (or len)."""
    depth = 0
    i = start
    while i < len(text):
        if text[i] == "<":
            depth += 1
        elif text[i] == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return i


class DetIterationRule(Analyzer):
    """Hash-order iteration feeds reports, exposition, and batch formation;
    ban it outside det.h and the provably order-insensitive NOLINT'd
    sites."""
    name = "det-iteration"

    def check_file(self, sf):
        if sf.rel_path in DET_ITERATION_ALLOWED:
            return
        # Pass 1: names declared (anywhere in this file) with an unordered
        # type, including `using` aliases of unordered types.
        unordered = set()
        aliases = set()
        text_lines = sf.code
        for line in text_lines:
            for m in re.finditer(r"\busing\s+(\w+)\s*=\s*"
                                 r"(?:std::)?unordered_(?:map|set)\s*<",
                                 line):
                aliases.add(m.group(1))
        alias_decl_re = (re.compile(
            r"\b(" + "|".join(sorted(aliases)) + r")\s*[&*]?\s+(\w+)")
            if aliases else None)
        flatmaps = set()
        for line in text_lines:
            for m in _UNORDERED_DECL_RE.finditer(line):
                after = _skip_angles(line, m.end() - 1)
                tail = line[after:]
                dm = re.match(r"\s*[&*]?\s*(\w+)", tail)
                if dm and dm.group(1) not in ("const", "public", "private"):
                    unordered.add(dm.group(1))
            for m in _FLAT_MAP_DECL_RE.finditer(line):
                after = _skip_angles(line, m.end() - 1)
                tail = line[after:]
                dm = re.match(r"\s*[&*]?\s*(\w+)", tail)
                if dm and dm.group(1) not in ("const", "public", "private"):
                    flatmaps.add(dm.group(1))
            if alias_decl_re:
                for m in alias_decl_re.finditer(line):
                    if m.group(2) not in ("const",):
                        unordered.add(m.group(2))
        if not unordered and not flatmaps:
            return
        # Pass 2: range-for over an unordered name, or an order-sensitive
        # <algorithm>/<numeric> fold over its iterators.
        for idx, line in enumerate(text_lines, start=1):
            stmt = line
            if _RANGE_FOR_RE.search(line) and \
                    line.count("(") > line.count(")"):
                stmt = " ".join(text_lines[idx - 1:idx + 2])
            for m in re.finditer(r"\bfor\s*\(([^;)]*?):([^;]*?)\)", stmt):
                expr = m.group(2).strip()
                expr = expr.lstrip("*& (").rstrip(") ")
                if "(" in expr:
                    continue  # function-call result, not a raw container
                name = expr.split(".")[-1].split("->")[-1].strip()
                if name in unordered:
                    self.add(sf, idx,
                             f"hash-order iteration over '{name}': route "
                             "through det::SortedKeys/SortedItems "
                             "(src/common/det.h) or justify with "
                             "NOLINT(det-iteration)")
                    break
            if flatmaps:
                for m in re.finditer(r"\b(\w+)\s*(?:\.|->)\s*ForEach\s*\(",
                                     line):
                    if m.group(1) in flatmaps:
                        self.add(sf, idx,
                                 f"slot-order iteration over FlatMap "
                                 f"'{m.group(1)}': slot order depends on "
                                 "insertion history — sort the collected "
                                 "items (det::, common/det.h) before any "
                                 "ordered output, or justify with "
                                 "NOLINT(det-iteration)")
                        break
            if _FOLD_RE.search(line):
                fold_stmt = sf.statement_at(idx, lookback=0)
                if line.count("(") > line.count(")"):
                    fold_stmt = " ".join(text_lines[idx - 1:idx + 3])
                for m in re.finditer(r"\b(\w+)\s*\.\s*(?:c?begin|c?end)\s*\(",
                                     fold_stmt):
                    if m.group(1) in unordered:
                        self.add(sf, idx,
                                 f"hash-order fold over '{m.group(1)}': "
                                 "route through det::SortedItems or justify "
                                 "with NOLINT(det-iteration)")
                        break


class DetPointerOrderRule(Analyzer):
    """Pointer values are address-space noise: ordering by them differs run
    to run under ASLR and across thread counts."""
    name = "det-pointer-order"

    PATTERNS = [
        (re.compile(r"\bstd::(?:multi)?(?:map|set)\s*<[^<>,]*\*\s*[,>]"),
         "pointer-keyed ordered container"),
        (re.compile(r"\bstd::less\s*<[^<>]*\*\s*>"), "std::less over a "
         "pointer type"),
        (re.compile(r"\bstd::greater\s*<[^<>]*\*\s*>"), "std::greater over "
         "a pointer type"),
        (re.compile(r"\breinterpret_cast\s*<\s*(?:std::)?u?intptr_t\s*>"),
         "pointer-to-integer cast"),
    ]

    def check_file(self, sf):
        for idx, line in enumerate(sf.code, start=1):
            for pattern, what in self.PATTERNS:
                if pattern.search(line):
                    self.add(sf, idx,
                             f"{what}: raw pointer order is not "
                             "deterministic — key by index or id")


class DetWallClockRule(Analyzer):
    """Every time read outside the blessed files must go through WallTimer
    or the injectable service clock, else shed/degrade replay breaks."""
    name = "det-wall-clock"

    CLOCK_RE = re.compile(
        r"\b(?:steady_clock|system_clock|high_resolution_clock)\s*::\s*"
        r"now\s*\(")
    ALIAS_RE = re.compile(
        r"\busing\s+(\w+)\s*=\s*[\w:]*"
        r"(?:steady_clock|system_clock|high_resolution_clock)\s*;")

    def check_file(self, sf):
        if sf.rel_path in WALL_CLOCK_ALLOWED:
            return
        aliases = set()
        for line in sf.code:
            for m in self.ALIAS_RE.finditer(line):
                aliases.add(m.group(1))
        alias_now_re = (re.compile(
            r"\b(?:" + "|".join(sorted(aliases)) + r")\s*::\s*now\s*\(")
            if aliases else None)
        for idx, line in enumerate(sf.code, start=1):
            if self.CLOCK_RE.search(line) or \
                    (alias_now_re and alias_now_re.search(line)):
                self.add(sf, idx,
                         "direct clock read outside common/timer.h: use "
                         "WallTimer or the injectable service clock")


_ANNOTATION_REF_RE = re.compile(
    r"\b(?:GUARDED_BY|PT_GUARDED_BY|ACQUIRED_BEFORE|ACQUIRED_AFTER)"
    r"\s*\(([^)]*)\)")
_SELF_ACQUIRED_RE = re.compile(r"\bACQUIRED_(?:BEFORE|AFTER)\s*\(")


class MutexCoverageRule(Analyzer):
    """A Mutex nobody annotates is a Mutex -Wthread-safety never checks."""
    name = "mutex-coverage"

    # The wrappers themselves (threading.h) legitimately hold raw members.
    EXEMPT_CLASSES = {"Mutex", "MutexLock", "CondVar"}

    def check_file(self, sf):
        for cls in sf.classes():
            if cls.name in self.EXEMPT_CLASSES and \
                    sf.rel_path in RAW_SYNC_ALLOWED:
                continue
            mutexes = [m for m in cls.members if m.type_name == "Mutex"]
            condvars = [m for m in cls.members if m.type_name == "CondVar"]
            if not mutexes and not condvars:
                continue
            body = " ".join(t for _, t in cls.body_lines)
            referenced = set()
            for m in _ANNOTATION_REF_RE.finditer(body):
                for tok in re.findall(r"\w+", m.group(1)):
                    referenced.add(tok)
            covered = set()
            for mu in mutexes:
                if mu.name in referenced or \
                        _SELF_ACQUIRED_RE.search(mu.text):
                    covered.add(mu.name)
                else:
                    self.add(sf, mu.line,
                             f"Mutex '{cls.name}::{mu.name}' has no "
                             "GUARDED_BY/PT_GUARDED_BY/ACQUIRED_* "
                             "annotation anywhere in its class: "
                             "-Wthread-safety cannot check it")
            for cv in condvars:
                if covered:
                    continue  # a covered companion mutex exists
                self.add(sf, cv.line,
                         f"CondVar '{cls.name}::{cv.name}' has no "
                         "annotation-covered Mutex companion in its class")


_LOCK_ORDER_COMMENT_RE = re.compile(
    r"LOCK-ORDER:\s*([\w:]+)\s*->\s*([\w:]+)")


class LockOrderRule(Analyzer):
    """Static lock hierarchy: ACQUIRED_BEFORE/AFTER edges + LOCK-ORDER
    comment edges must form a DAG, and (tree mode) every known runtime
    nesting must be declared."""
    name = "lock-order"

    def __init__(self, tree_mode):
        super().__init__(tree_mode)
        self.edges = {}       # (before, after) -> (sf, line)
        self.decl_sites = {}  # "Class::member" -> (sf, line)

    def _qualify(self, cls_name, token):
        return token if "::" in token else f"{cls_name}::{token}"

    def check_file(self, sf):
        for cls in sf.classes():
            for member in cls.members:
                if member.type_name != "Mutex":
                    continue
                me = f"{cls.name}::{member.name}"
                self.decl_sites.setdefault(me, (sf, member.line))
                for m in re.finditer(
                        r"\bACQUIRED_(BEFORE|AFTER)\s*\(([^)]*)\)",
                        member.text):
                    for other in re.findall(r"[\w:]+", m.group(2)):
                        other = self._qualify(cls.name, other)
                        edge = ((me, other) if m.group(1) == "BEFORE"
                                else (other, me))
                        self.edges.setdefault(edge, (sf, member.line))
        # Comment-declared edges live in raw lines (they ARE comments).
        for idx, raw in enumerate(sf.raw_lines, start=1):
            for m in _LOCK_ORDER_COMMENT_RE.finditer(raw):
                self.edges.setdefault((m.group(1), m.group(2)), (sf, idx))

    def finalize(self):
        graph = {}
        for (a, b), _ in self.edges.items():
            graph.setdefault(a, set()).add(b)
            graph.setdefault(b, set())
        # Tarjan-free SCC via iterative DFS with deterministic order: any
        # edge inside a nontrivial SCC (or a self-loop) is part of a cycle.
        index = {}
        low = {}
        on_stack = set()
        stack = []
        sccs = []
        counter = [0]

        def strongconnect(root):
            work = [(root, iter(sorted(graph[root])))]
            index[root] = low[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, it = work[-1]
                advanced = False
                for nxt in it:
                    if nxt not in index:
                        index[nxt] = low[nxt] = counter[0]
                        counter[0] += 1
                        stack.append(nxt)
                        on_stack.add(nxt)
                        work.append((nxt, iter(sorted(graph[nxt]))))
                        advanced = True
                        break
                    if nxt in on_stack:
                        low[node] = min(low[node], index[nxt])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    scc = set()
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        scc.add(w)
                        if w == node:
                            break
                    sccs.append(scc)

        for node in sorted(graph):
            if node not in index:
                strongconnect(node)
        cyclic_nodes = set()
        for scc in sccs:
            if len(scc) > 1:
                cyclic_nodes |= scc
        for (a, b), (sf, line) in sorted(
                self.edges.items(), key=lambda e: (e[1][0].rel_path,
                                                   e[1][1], e[0])):
            in_cycle = (a == b) or (a in cyclic_nodes and b in cyclic_nodes)
            if in_cycle:
                self.add(sf, line,
                         f"lock-order edge {a} -> {b} participates in a "
                         "cycle: the declared hierarchy must be acyclic")
        if self.tree_mode:
            declared = set(self.edges)
            for a, b in REQUIRED_LOCK_ORDER:
                if (a, b) in declared:
                    continue
                site = self.decl_sites.get(a)
                if site is not None:
                    sf, line = site
                    self.add(sf, line,
                             f"runtime nesting {a} -> {b} is not declared: "
                             "add ACQUIRED_BEFORE/AFTER or a LOCK-ORDER "
                             "comment")
                else:
                    self.findings.append(Finding(
                        "tools/lint/mube_lint.py", 1, self.name,
                        f"required lock-order edge {a} -> {b}: mutex "
                        f"'{a}' not found — update REQUIRED_LOCK_ORDER"))


ANALYZERS = [
    NodiscardRule,
    RandomnessRule,
    RawSyncRule,
    NakedNewRule,
    DowncastRule,
    HeaderGuardRule,
    IncludeOrderRule,
    DetIterationRule,
    DetPointerOrderRule,
    DetWallClockRule,
    MutexCoverageRule,
    LockOrderRule,
]


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def iter_tree_files(root):
    for top in LINT_DIRS:
        top_path = os.path.join(root, top)
        if not os.path.isdir(top_path):
            continue
        for dirpath, dirnames, filenames in os.walk(top_path):
            dirnames[:] = [d for d in dirnames if d != "testdata"]
            for name in sorted(filenames):
                if not name.endswith((".h", ".cc", ".cpp")):
                    continue
                path = os.path.join(dirpath, name)
                yield os.path.relpath(path, root).replace(os.sep, "/"), path


def run_analyzers(files, tree_mode):
    """files: iterable of (rel_path, raw_lines). Returns all findings."""
    analyzers = [cls(tree_mode) for cls in ANALYZERS]
    for rel, raw_lines in files:
        sf = SourceFile(rel, raw_lines)
        for analyzer in analyzers:
            analyzer.check_file(sf)
    findings = []
    for analyzer in analyzers:
        analyzer.finalize()
        findings.extend(analyzer.findings)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def lint_tree(root):
    def gen():
        for rel, path in iter_tree_files(root):
            with open(path, encoding="utf-8") as f:
                yield rel, f.readlines()
    return run_analyzers(gen(), tree_mode=True)


def self_test(root):
    """Every fixture in testdata/ declares its expected findings with
    `LINT-EXPECT: <rule>` markers (on the offending line, inside a comment —
    the rule engine never sees comments). The engine must produce exactly
    the expected (line, rule) pairs per fixture: a missed finding means a
    rule went blind, an extra one means it got trigger-happy. Each fixture
    is analyzed in isolation (check_file + finalize), so cross-file rules
    like lock-order are exercised per fixture too."""
    testdata = os.path.join(root, "tools", "lint", "testdata")
    fixtures = sorted(
        f for f in os.listdir(testdata) if f.endswith((".h", ".cc", ".cpp")))
    if not fixtures:
        print("self-test: no fixtures found", file=sys.stderr)
        return 1
    exercised = set()
    failures = 0
    for name in fixtures:
        path = os.path.join(testdata, name)
        with open(path, encoding="utf-8") as f:
            raw_lines = f.readlines()
        # The first line may pin the path the fixture pretends to live at
        # (guard and include-order rules are path-dependent).
        pretend = re.match(r"//\s*LINT-PATH:\s*(\S+)", raw_lines[0])
        rel = pretend.group(1) if pretend else f"src/lintfix/{name}"
        expected = set()
        for idx, line in enumerate(raw_lines, start=1):
            for rule in re.findall(r"LINT-EXPECT:\s*([\w-]+)", line):
                expected.add((idx if rule not in ("header-guard", "nodiscard")
                              else 1, rule))
        got = {(f.line, f.rule)
               for f in run_analyzers([(rel, raw_lines)], tree_mode=False)}
        exercised |= {rule for _, rule in expected}
        missed = expected - got
        extra = got - expected
        for line_no, rule in sorted(missed):
            print(f"self-test {name}:{line_no}: rule {rule} "
                  "did not fire", file=sys.stderr)
        for line_no, rule in sorted(extra):
            print(f"self-test {name}:{line_no}: rule {rule} "
                  "fired unexpectedly", file=sys.stderr)
        failures += len(missed) + len(extra)
    # Every registered rule must have at least one positive fixture: a rule
    # without one could go blind and the suite would stay green.
    for cls in ANALYZERS:
        if cls.name not in exercised:
            print(f"self-test: rule {cls.name} has no positive fixture",
                  file=sys.stderr)
            failures += 1
    if failures:
        print(f"self-test: {failures} failures", file=sys.stderr)
        return 1
    print(f"self-test: {len(fixtures)} fixtures OK "
          f"({len(ANALYZERS)} rules exercised)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None,
                        help="repo root (default: two levels up from here)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the rule engine against testdata fixtures")
    parser.add_argument("--format", choices=("plain", "github"),
                        default="plain",
                        help="finding output format (github emits "
                        "::error problem-matcher lines)")
    args = parser.parse_args()
    root = args.root or os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    if args.self_test:
        return self_test(root)
    findings = lint_tree(root)
    for finding in findings:
        print(finding.github() if args.format == "github" else finding)
    if findings:
        print(f"mube_lint: {len(findings)} findings", file=sys.stderr)
        return 1
    print("mube_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
