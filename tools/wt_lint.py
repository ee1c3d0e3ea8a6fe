#!/usr/bin/env python3
"""Repo-specific lint for project invariants (DESIGN.md #10).

Checks that hold the library's correctness story together but that no
compiler flag can express:

  raw-io            File I/O primitives (fopen/fwrite/fsync/rename/...,
                    std::ifstream/ofstream, std::filesystem mutations)
                    outside the VFS seam (src/io/vfs.hpp) and the pager's
                    mmap path (src/storage/pager.hpp). Everything durable
                    must go through Vfs so the crash-torture harness can
                    fault-inject every operation.
  parse-abort       WT_ASSERT / abort() inside the untrusted-input parse
                    functions (image reader, WAL parser, envelope reader,
                    manifest reader, codec state). Corrupt bytes must
                    surface as a clean Status/error code, never a
                    process abort.
                    Scope: the curated function bodies in PARSE_FUNCTIONS
                    (direct bodies, not transitive callees — reachability
                    is the ASan corruption sweeps' job). WT_DASSERT is
                    allowed: debug-only caller contracts, compiled out of
                    release parsing.
  unchecked-tryread TryReadPod(...) whose boolean result is discarded — a
                    short read would be silently treated as success.
  raw-socket        Socket/epoll syscalls (::socket, ::bind, accept4,
                    ::recv, ::send, epoll_*, eventfd, ...) outside the
                    one wrapped seam (src/net/socket.hpp). Everything
                    network-facing must go through the RAII/Status
                    primitives there so EINTR, partial transfers, and
                    fd lifetimes are handled in exactly one place.
  raw-mutex         std::mutex / lock_guard / unique_lock / condition
                    variables outside common/thread_annotations.hpp. A
                    raw mutex is invisible to Clang's -Wthread-safety
                    analysis, silently opting its critical sections out
                    of the compile-time locking proof.
  tsa-escape        WT_NO_THREAD_SAFETY_ANALYSIS outside the macro's own
                    header without an explicit waiver. Escape hatches
                    must be visible and justified.
  bare-atomic-counter
                    An integer std::atomic outside src/obs/. Ad-hoc atomic
                    counters are how stats get maintained twice and drift;
                    countable quantities belong in the MetricsRegistry
                    (obs/metrics.hpp). Genuine sequencing/state atomics
                    (epochs, ids, flags) take a waiver stating they are
                    not telemetry. atomic<bool> is exempt (a flag, never
                    a counter).
  raw-stderr        fprintf(stderr, ...) anywhere in src/. Library code
                    reports through the metrics registry
                    (obs/metrics.hpp) and the span tracer
                    (obs/trace.hpp), which operators read over kMetrics
                    and kTrace, not as interleaved free-text on a shared
                    stream. Crash-path diagnostics written just before
                    an abort take a waiver.

Waivers: append `// wt-lint: allow(<rule>)` to the offending line, with a
reason. Use sparingly; CI reviews every new waiver.

Usage: tools/wt_lint.py [--root REPO_ROOT] [--list-rules]
Stdlib-only; exits 1 when any finding is reported.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

# --------------------------------------------------------------- stripping


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literals, preserving line structure.

    Lint patterns must not fire on prose ("fsync the directory...") or on
    message strings ("vfs: fsync failed"), so everything non-code becomes
    spaces before matching. Newlines survive so line numbers stay true.
    """
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    raw_delim = None
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
            elif c == '"' and text[max(0, i - 1):i] == "R":
                # Raw string literal R"delim( ... )delim"
                m = re.match(r'"([^(\s]*)\(', text[i:])
                if m:
                    raw_delim = ")" + m.group(1) + '"'
                    end = text.find(raw_delim, i + m.end())
                    end = n if end < 0 else end + len(raw_delim)
                    out.append(re.sub(r"[^\n]", " ", text[i:end]))
                    i = end
                else:
                    state = "string"
                    out.append(" ")
                    i += 1
            elif c == '"':
                state = "string"
                out.append(" ")
                i += 1
            elif c == "'":
                state = "char"
                out.append(" ")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        else:  # string or char
            if c == "\\":
                out.append("  ")
                i += 2
            elif (state == "string" and c == '"') or (
                state == "char" and c == "'"
            ):
                state = "code"
                out.append(" ")
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
    return "".join(out)


# ------------------------------------------------------------------- rules

# socket.hpp is the syscall seam for the serving layer: it owns fds
# (::close) the same way vfs.hpp owns file descriptors.
RAW_IO_ALLOWED = {"src/io/vfs.hpp", "src/storage/pager.hpp",
                  "src/net/socket.hpp"}
RAW_IO_PATTERN = re.compile(
    r"\b(?:fopen|fwrite|fread|fclose|fflush|fsync|fdatasync|fileno"
    r"|std::ifstream|std::ofstream|std::fstream"
    r"|std::filesystem::(?:rename|remove|remove_all|create_directories)"
    r"|::open|::close|::write|::read|::rename|::unlink|::mkdir)\s*\("
)

RAW_SOCKET_ALLOWED = {"src/net/socket.hpp"}
RAW_SOCKET_PATTERN = re.compile(
    r"\b(?:::socket|::bind|::listen|::accept4?|::connect"
    r"|::recv|::send|::sendmsg|::recvmsg|::sendto|::recvfrom"
    r"|::epoll_create1?|::epoll_ctl|::epoll_wait|::eventfd"
    r"|::setsockopt|::getsockopt|::getsockname|::shutdown|::fcntl)\s*\("
)

RAW_MUTEX_ALLOWED = {"src/common/thread_annotations.hpp"}
RAW_MUTEX_PATTERN = re.compile(
    r"\bstd::(?:mutex|timed_mutex|recursive_mutex|shared_mutex"
    r"|lock_guard|unique_lock|scoped_lock|shared_lock"
    r"|condition_variable(?:_any)?)\b"
)

TSA_ESCAPE_ALLOWED = {"src/common/thread_annotations.hpp"}

# No file may write raw stderr; a crash path takes a waiver instead.
RAW_STDERR_ALLOWED: set[str] = set()
RAW_STDERR_PATTERN = re.compile(r"\b(?:std::\s*)?fprintf\s*\(\s*stderr\b")

# The obs layer IS the sanctioned home for atomic counters; everything else
# either registers an instrument or waives with a sequencing rationale.
BARE_ATOMIC_ALLOWED_PREFIX = "src/obs/"
BARE_ATOMIC_PATTERN = re.compile(
    r"\bstd::atomic<\s*(?:std::)?"
    r"(?:u?int(?:8|16|32|64)_t|size_t|ptrdiff_t|int|unsigned"
    r"(?:\s+(?:int|long(?:\s+long)?))?|long(?:\s+long)?)\s*>"
)

# Parse functions over untrusted bytes: (file suffix, function name).
# The rule scans each function's direct body.
PARSE_FUNCTIONS = [
    ("src/storage/image.hpp", "Parse"),
    ("src/storage/image.hpp", "OpenSection"),
    ("src/storage/image.hpp", "Pod"),
    ("src/storage/image.hpp", "Array"),
    ("src/engine/wal.hpp", "ParseWalBytes"),
    ("src/common/serialize.hpp", "TryReadPod"),
    ("src/common/serialize.hpp", "TryReadBytes"),
    ("src/common/serialize.hpp", "Read"),  # VersionedEnvelope::Read
    ("src/engine/manifest.hpp", "ReadManifest"),
    ("src/engine/manifest.hpp", "ParseEngineFileName"),
    ("src/core/wavelet_trie.hpp", "LoadImage"),
    ("src/api/sequence.hpp", "Load"),
    ("src/api/sequence.hpp", "LoadImage"),
    ("src/core/codec.hpp", "LoadState"),
]
PARSE_ABORT_PATTERN = re.compile(r"\b(?:WT_ASSERT|WT_ASSERT_MSG|abort)\s*\(")

TRYREAD_PATTERN = re.compile(r"\bTryReadPod\b")

WAIVER_PATTERN = re.compile(r"//\s*wt-lint:\s*allow\(([a-z-]+)\)")

RULES = {
    "raw-io": "file I/O outside the VFS seam",
    "parse-abort": "abort/WT_ASSERT in an untrusted-input parse function",
    "unchecked-tryread": "TryReadPod result discarded",
    "raw-socket": "socket/epoll syscall outside the net/socket.hpp seam",
    "raw-mutex": "raw std::mutex family outside the annotated wrapper",
    "tsa-escape": "unwaived WT_NO_THREAD_SAFETY_ANALYSIS",
    "bare-atomic-counter":
        "integer std::atomic outside src/obs/ (use the MetricsRegistry, "
        "or waive as sequencing state)",
    "raw-stderr":
        "fprintf(stderr) in library code (count it in the metrics "
        "registry or trace it, or waive for crash-path diagnostics)",
}


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path, self.line, self.rule, self.message = path, line, rule, message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def waived(original_lines: list[str], lineno: int, rule: str) -> bool:
    m = WAIVER_PATTERN.search(original_lines[lineno - 1])
    return bool(m) and m.group(1) == rule


def function_body_span(stripped: str, name: str) -> list[tuple[int, int]]:
    """(start, end) character spans of every `name(...)...{` body."""
    spans = []
    for m in re.finditer(r"\b" + re.escape(name) + r"\s*\(", stripped):
        # Find the opening brace of the definition: skip the parameter
        # list, then accept `{` before the next `;` (a declaration).
        depth = 0
        i = m.end() - 1
        while i < len(stripped):
            if stripped[i] == "(":
                depth += 1
            elif stripped[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        j = i + 1
        while j < len(stripped) and stripped[j] not in "{;":
            j += 1
        if j >= len(stripped) or stripped[j] == ";":
            continue
        depth = 0
        k = j
        while k < len(stripped):
            if stripped[k] == "{":
                depth += 1
            elif stripped[k] == "}":
                depth -= 1
                if depth == 0:
                    break
            k += 1
        spans.append((j, k + 1))
    return spans


def lint_file(root: pathlib.Path, path: pathlib.Path) -> list[Finding]:
    rel = path.relative_to(root).as_posix()
    text = path.read_text(encoding="utf-8")
    stripped = strip_comments_and_strings(text)
    original_lines = text.splitlines()
    findings: list[Finding] = []

    def line_of(pos: int) -> int:
        return stripped.count("\n", 0, pos) + 1

    def report(pos: int, rule: str, message: str) -> None:
        ln = line_of(pos)
        if not waived(original_lines, ln, rule):
            findings.append(Finding(rel, ln, rule, message))

    if rel not in RAW_IO_ALLOWED:
        for m in RAW_IO_PATTERN.finditer(stripped):
            report(m.start(), "raw-io",
                   f"`{m.group(0).rstrip('(').strip()}`: durable I/O must "
                   "go through the Vfs seam (io/vfs.hpp)")

    if rel not in RAW_SOCKET_ALLOWED:
        for m in RAW_SOCKET_PATTERN.finditer(stripped):
            report(m.start(), "raw-socket",
                   f"`{m.group(0).rstrip('(').strip()}`: network syscalls "
                   "must go through the net/socket.hpp primitives")

    if rel not in RAW_MUTEX_ALLOWED:
        for m in RAW_MUTEX_PATTERN.finditer(stripped):
            report(m.start(), "raw-mutex",
                   f"`{m.group(0)}` is invisible to -Wthread-safety; use "
                   "wt::Mutex / wt::MutexLock / wt::CondVar")

    if rel not in TSA_ESCAPE_ALLOWED:
        for m in re.finditer(r"\bWT_NO_THREAD_SAFETY_ANALYSIS\b", stripped):
            report(m.start(), "tsa-escape",
                   "escape hatch from the locking proof; waive with a "
                   "reason if genuinely inexpressible")

    if rel not in RAW_STDERR_ALLOWED:
        for m in RAW_STDERR_PATTERN.finditer(stripped):
            report(m.start(), "raw-stderr",
                   "raw stderr write: events are counted in the metrics "
                   "registry (obs/metrics.hpp) or traced (obs/trace.hpp); "
                   "waive only for crash-path diagnostics")

    if not rel.startswith(BARE_ATOMIC_ALLOWED_PREFIX):
        for m in BARE_ATOMIC_PATTERN.finditer(stripped):
            report(m.start(), "bare-atomic-counter",
                   f"`{m.group(0)}`: countable quantities belong in the "
                   "MetricsRegistry (obs/metrics.hpp); waive if this is "
                   "sequencing state, not telemetry")

    for suffix, fn in PARSE_FUNCTIONS:
        if rel != suffix:
            continue
        for start, end in function_body_span(stripped, fn):
            body = stripped[start:end]
            for m in PARSE_ABORT_PATTERN.finditer(body):
                report(start + m.start(), "parse-abort",
                       f"`{m.group(0).rstrip('(').strip()}` in parse "
                       f"function `{fn}`: corrupt input must return an "
                       "error, not abort")

    for m in TRYREAD_PATTERN.finditer(stripped):
        after = stripped[m.end():m.end() + 1]
        if after not in "(<":  # comment mention or stray identifier
            continue
        # A call is consumed when ANYTHING precedes it in its statement
        # (a `!`, an `if (`, an assignment, a `return`, ...). Walk back to
        # the statement start and strip the namespace qualifier, which is
        # part of the call itself.
        stmt_start = max(
            stripped.rfind(";", 0, m.start()),
            stripped.rfind("{", 0, m.start()),
            stripped.rfind("}", 0, m.start()),
        )
        prefix = stripped[stmt_start + 1:m.start()]
        core = re.sub(r"(?:[A-Za-z_]\w*\s*::\s*)+$", "", prefix).rstrip()
        if re.search(r"\b(?:bool|auto)$", core):
            continue  # the function's own definition/declaration
        if core == "":
            report(m.start(), "unchecked-tryread",
                   "TryReadPod result ignored: a short read would "
                   "silently pass")

    return findings


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=None,
                    help="repo root (default: parent of this script's dir)")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args()

    if args.list_rules:
        for rule, desc in RULES.items():
            print(f"{rule:20} {desc}")
        return 0

    root = pathlib.Path(args.root) if args.root else \
        pathlib.Path(__file__).resolve().parent.parent
    src = root / "src"
    if not src.is_dir():
        print(f"wt_lint: no src/ under {root}", file=sys.stderr)
        return 2

    findings: list[Finding] = []
    for path in sorted(src.rglob("*")):
        if path.suffix in (".hpp", ".cpp", ".h", ".cc"):
            findings.extend(lint_file(root, path))

    for f in findings:
        print(f)
    if findings:
        print(f"wt_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"wt_lint: clean ({sum(1 for _ in src.rglob('*.hpp'))} headers)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
