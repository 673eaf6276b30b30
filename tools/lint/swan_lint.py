#!/usr/bin/env python3
"""swan-lint: determinism-contract static analysis for the swan tree.

The sweep engine's standing guarantee — a result is a pure function of
its cache key, byte-identical for any job count — rests on a handful
of invariants that used to live only in comments and after-the-fact
byte-diffing. This pass encodes them as checks over the library
sources (src/ and include/), enumerated via the build's
compile_commands.json:

  noalloc         allocation-capable constructs inside a
                  SWAN_NOALLOC_BEGIN/END region (the fused replay loop,
                  the step core, the telemetry recording path), which
                  run per instruction on every worker.
  unordered-iter  iteration over std::unordered_{map,set}: hash-table
                  order is libstdc++-internal and must never feed an
                  emitter, a cache file order, or a stats merge.
  nondet          nondeterminism sources (libc PRNGs, wall clocks,
                  file mtimes / the filesystem clock) outside src/obs/
                  — telemetry may read clocks; results and cache
                  eviction order must be a pure function of the grid
                  and its lookup history.
  ptr-order       ordered containers keyed on pointers: ASLR makes the
                  iteration order a fresh coin flip per run.

Suppress a finding by annotating the offending line (or the line
before) with a reason:

    // swan-lint: allow(nondet) progress timer, never feeds results

A suppression without a reason is itself a finding: intentional
exceptions are part of the contract and must say why they are safe.

Exit status: 0 clean, 1 findings, 2 usage/internal error.
See docs/lint.md for the full story.
"""

import argparse
import json
import os
import re
import sys

LINT_DIRS = ("src", "include")  # library scope, relative to the root

CHECKS = {
    "noalloc": "allocation-capable construct in a SWAN_NOALLOC region",
    "unordered-iter": "iteration over an unordered container",
    "nondet": "nondeterminism source outside src/obs/",
    "ptr-order": "ordered container keyed on a pointer",
}


class Finding:
    def __init__(self, path, line, check, message):
        self.path = path
        self.line = line
        self.check = check
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.check,
                                   self.message)


def strip_code(text):
    """Blank comments and string/char literals, preserving newlines
    and column positions, so checks never fire on prose (this tree's
    comments discuss malloc and rand at length) or on quoted text.
    Handles //, /* */, "..." (with escapes), '...', and R"delim(...)
    delim" raw strings."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            seg = text[i:j + 2]
            out.append(re.sub(r"[^\n]", " ", seg))
            i = j + 2
        elif c == "R" and nxt == '"':
            m = re.match(r'R"([^(\s]*)\(', text[i:])
            if not m:
                out.append(c)
                i += 1
                continue
            close = ")" + m.group(1) + '"'
            j = text.find(close, i + m.end())
            j = n - len(close) if j < 0 else j
            seg = text[i:j + len(close)]
            out.append(re.sub(r"[^\n]", " ", seg))
            i = j + len(close)
        elif c == '"' or c == "'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            j = min(j, n - 1)
            out.append(c + " " * (j - i - 1) + c)
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


SUPPRESS_RE = re.compile(r"swan-lint:\s*allow\(([\w-]+)\)\s*(.*)")


def suppressions(raw_lines):
    """Map line number -> (check, reason, annotation line). An
    annotation covers its own line and the next one."""
    supp = {}
    for ln, line in enumerate(raw_lines, 1):
        m = SUPPRESS_RE.search(line)
        if m:
            entry = (m.group(1), m.group(2).strip(), ln)
            supp[ln] = entry
            supp[ln + 1] = entry
    return supp


ALLOC_PATTERNS = [
    (re.compile(r"\bnew\b(?!\s*\()"), "new-expression"),
    (re.compile(r"\b(?:malloc|calloc|realloc|strdup|strndup|"
                r"aligned_alloc|posix_memalign|free)\s*\("),
     "malloc-family call"),
    (re.compile(r"[.>](?:push_back|emplace_back|emplace|emplace_hint|"
                r"push_front|insert|resize|reserve|assign|append)"
                r"\s*\("),
     "container growth"),
    (re.compile(r"\bmake_(?:shared|unique)\b"),
     "smart-pointer allocation"),
    (re.compile(r"\bto_string\s*\("), "string allocation"),
    (re.compile(r"\bthrow\b"), "throw (allocates the exception)"),
]

NONDET_PATTERNS = [
    (re.compile(r"\b(?:rand|rand_r|srand|drand48|lrand48|mrand48|"
                r"random|getrandom|getentropy)\s*\("),
     "libc randomness"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\b(?:time|gettimeofday|clock)\s*\("),
     "wall-clock read"),
    (re.compile(r"\bclock_gettime\s*\("), "clock read"),
    (re.compile(r"\b(?:system_clock|steady_clock|"
                r"high_resolution_clock)::now\b"),
     "chrono clock read"),
    # Cache eviction must order entries by lookup history, never by
    # file timestamps: mtimes move with the wall clock, rsync/cp -p,
    # and filesystem granularity, so an mtime-keyed policy decides
    # differently run to run.
    (re.compile(r"\blast_write_time\s*\("),
     "file mtime read/write"),
    (re.compile(r"\b(?:file_time_type::clock|file_clock)\b"),
     "filesystem clock read"),
]

UNORDERED_DECL_RE = re.compile(
    r"unordered_(?:map|set|multimap|multiset)\s*<[^;(){}]*>\s+(\w+)\s*"
    r"[;={(]")
PTR_KEY_RE = re.compile(
    r"\bstd::(?:multi)?(?:map|set)\s*<\s*(?:const\s+)?[\w:<>]+\s*\*")


class File:
    def __init__(self, path, display):
        self.path = path
        self.display = display
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            self.raw = f.read()
        self.raw_lines = self.raw.split("\n")
        self.code = strip_code(self.raw)
        self.code_lines = self.code.split("\n")
        self.supp = suppressions(self.raw_lines)


def check_noalloc(f, report):
    stack = []  # line numbers of open SWAN_NOALLOC_BEGIN markers
    for ln, line in enumerate(f.code_lines, 1):
        if line.startswith("}"):
            # A column-0 closing brace ends the enclosing function (or
            # namespace): any region still open never reached its END.
            for open_ln in stack:
                report(f, open_ln, "noalloc",
                       "SWAN_NOALLOC_BEGIN never closed by "
                       "SWAN_NOALLOC_END in its function")
            stack = []
            continue
        if "SWAN_NOALLOC_BEGIN" in line:
            stack.append(ln)
            continue
        if "SWAN_NOALLOC_END" in line:
            if not stack:
                report(f, ln, "noalloc",
                       "SWAN_NOALLOC_END without a matching BEGIN")
            else:
                stack.pop()
            continue
        if not stack or "SWAN_NOALLOC_PAUSE" in line:
            continue
        for pat, what in ALLOC_PATTERNS:
            if pat.search(line):
                report(f, ln, "noalloc",
                       "%s inside the no-alloc region opened at line "
                       "%d — heap traffic here shifts capture-time "
                       "addresses the simulation observes"
                       % (what, stack[-1]))
    for ln in stack:
        report(f, ln, "noalloc",
               "SWAN_NOALLOC_BEGIN never closed by SWAN_NOALLOC_END "
               "in its function")


def check_unordered_iter(f, report):
    names = set(UNORDERED_DECL_RE.findall(f.code))
    if not names:
        return
    iter_res = [
        (re.compile(r"for\s*\([^;)]*:\s*(?:\w+(?:\.|->))?(%s)\s*\)"
                    % "|".join(map(re.escape, sorted(names)))),
         "range-for over unordered container '%s'"),
        (re.compile(r"\b(%s)\s*(?:\.|->)\s*c?begin\s*\("
                    % "|".join(map(re.escape, sorted(names)))),
         "iterator walk over unordered container '%s'"),
    ]
    for ln, line in enumerate(f.code_lines, 1):
        for pat, msg in iter_res:
            m = pat.search(line)
            if m:
                report(f, ln, "unordered-iter",
                       (msg % m.group(1)) +
                       " — hash order is not deterministic; sort "
                       "before anything ordered (emitters, cache "
                       "files, stats merges) consumes it")


def check_nondet(f, report):
    rel = f.display.replace(os.sep, "/")
    if "/obs/" in rel or rel.startswith("obs/"):
        return  # telemetry is the sanctioned clock consumer
    for ln, line in enumerate(f.code_lines, 1):
        for pat, what in NONDET_PATTERNS:
            if pat.search(line):
                report(f, ln, "nondet",
                       "%s — results must be a pure function of the "
                       "grid; clocks/PRNGs belong in src/obs/ or "
                       "behind a seeded, documented scenario"
                       % what)


def check_ptr_order(f, report):
    for ln, line in enumerate(f.code_lines, 1):
        if PTR_KEY_RE.search(line):
            report(f, ln, "ptr-order",
                   "ordered container keyed on a pointer — ASLR makes "
                   "this order nondeterministic across runs; key on a "
                   "stable identity instead")


def collect_tree_files(root):
    paths = []
    for d in LINT_DIRS:
        base = os.path.join(root, d)
        for dirpath, _, names in os.walk(base):
            for name in sorted(names):
                if name.endswith((".cc", ".hh", ".cpp", ".hpp", ".h")):
                    paths.append(os.path.join(dirpath, name))
    return sorted(paths)


def root_from_compile_commands(cc_path):
    with open(cc_path, "r", encoding="utf-8") as f:
        entries = json.load(f)
    files = []
    for e in entries:
        p = e.get("file", "")
        if not os.path.isabs(p):
            p = os.path.join(e.get("directory", ""), p)
        files.append(os.path.normpath(p))
    if not files:
        raise RuntimeError("compile_commands.json lists no files")
    return os.path.commonpath(files)


def main(argv):
    ap = argparse.ArgumentParser(
        prog="swan-lint",
        description="determinism-contract static analysis "
                    "(docs/lint.md)")
    ap.add_argument("-p", "--build", metavar="DIR",
                    help="build directory holding compile_commands.json")
    ap.add_argument("--compile-commands", metavar="FILE",
                    help="explicit compile_commands.json path")
    ap.add_argument("--root", metavar="DIR",
                    help="source root (default: derived from "
                         "compile_commands.json, else the CWD)")
    ap.add_argument("--files", nargs="+", metavar="F",
                    help="lint exactly these files (fixture mode)")
    ap.add_argument("--checks", metavar="IDS",
                    help="comma-separated subset of checks to run")
    ap.add_argument("--list-checks", action="store_true")
    ap.add_argument("-q", "--quiet", action="store_true",
                    help="findings only, no summary line")
    args = ap.parse_args(argv)

    if args.list_checks:
        for cid, desc in CHECKS.items():
            print("%-15s %s" % (cid, desc))
        return 0

    enabled = set(CHECKS)
    if args.checks:
        enabled = set(args.checks.split(","))
        unknown = enabled - set(CHECKS)
        if unknown:
            print("swan-lint: unknown checks: %s" %
                  ", ".join(sorted(unknown)), file=sys.stderr)
            return 2

    root = args.root
    fixture_mode = bool(args.files)
    if args.files:
        paths = [os.path.normpath(p) for p in args.files]
        root = root or os.getcwd()
    else:
        cc = args.compile_commands
        if not cc and args.build:
            cc = os.path.join(args.build, "compile_commands.json")
        if cc and os.path.exists(cc):
            try:
                root = root or root_from_compile_commands(cc)
            except (OSError, ValueError, RuntimeError) as e:
                print("swan-lint: bad compile_commands.json: %s" % e,
                      file=sys.stderr)
                return 2
        elif cc:
            print("swan-lint: %s not found (configure with "
                  "CMAKE_EXPORT_COMPILE_COMMANDS=ON)" % cc,
                  file=sys.stderr)
            return 2
        root = root or os.getcwd()
        paths = collect_tree_files(root)
        if not paths:
            print("swan-lint: no sources under %s" % root,
                  file=sys.stderr)
            return 2

    findings = []
    suppressed = [0]
    bad_suppression_lines = set()

    def report(f, ln, check, message):
        if check not in enabled:
            return
        entry = f.supp.get(ln)
        if entry and entry[0] == check:
            _, reason, ann_ln = entry
            if reason:
                suppressed[0] += 1
                return
            key = (f.display, ann_ln)
            if key not in bad_suppression_lines:
                bad_suppression_lines.add(key)
                findings.append(Finding(
                    f.display, ann_ln, check,
                    "suppression without a reason — intentional "
                    "exceptions must document why they are safe"))
            return
        findings.append(Finding(f.display, ln, check, message))

    files = []
    for p in paths:
        display = os.path.relpath(p, root) if not fixture_mode else p
        try:
            files.append(File(p, display))
        except OSError as e:
            print("swan-lint: cannot read %s: %s" % (p, e),
                  file=sys.stderr)
            return 2

    for f in files:
        check_noalloc(f, report)
        check_unordered_iter(f, report)
        check_nondet(f, report)
        check_ptr_order(f, report)

    for fin in findings:
        print(fin)
    if not args.quiet:
        print("swan-lint: %d finding%s (%d suppressed) across %d "
              "file%s" % (len(findings),
                          "" if len(findings) == 1 else "s",
                          suppressed[0], len(files),
                          "" if len(files) == 1 else "s"))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
