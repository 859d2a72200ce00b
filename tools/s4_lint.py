#!/usr/bin/env python3
"""s4_lint: project-specific invariant linter for the S4 tree.

Enforces structural invariants that clang-tidy cannot express — they are
about *which layer* is allowed to do *what*, mirroring the paper's security
argument (the drive's history pool is only trustworthy if every mutation
flows through the audited, versioning write path):

  S4L001 raw-device-write     BlockDevice::Write may only be called from the
                              segment writer, the superblock/audit paths in
                              s4_drive.cc, the baselines, and the simulator
                              itself. Anything else would bypass versioning.
  S4L002 op-audit-pipeline    Every RpcOp (except kInvalid/kBatch) must be
                              dispatched in transport.cc AND implemented in
                              src/drive via the Execute() pipeline (OpArgs ->
                              Execute), which is what guarantees an audit
                              record precedes any state mutation. OpArgs
                              constructions and Execute calls must pair up.
  S4L003 sim-time-only        No wall-clock or ambient randomness outside
                              src/sim and src/util/rng: determinism is what
                              makes the crash/fault harnesses replayable.
  S4L004 no-throw             src/ never throws; fallible paths return
                              Status/Result (see src/util/status.h).
  S4L005 void-discard-comment (void)-discarding a call result (usually a
                              [[nodiscard]] Status) requires a comment on the
                              same or preceding line saying why it is safe.
  S4L006 include-layering     #include edges between src/ subdirectories must
                              stay within the declared layering DAG.
  S4L007 audit-object-write   Only the drive's audit append/trim path may
                              mutate the reserved audit object
                              (kAuditLogObjectId). Any other writer could
                              forge or destroy the tamper-evident chronicle
                              from inside the trust boundary.
  S4L008 cluster-drive-api    src/cluster may program against member drives
                              only through the S4Drive public API and the RPC
                              surface. Touching drive internals (journal, LFS,
                              cache, audit-log types, raw BlockDevice I/O)
                              would bypass the versioning + audit pipeline the
                              array's recovery argument depends on.
  S4L009 threading-confinement Threading primitives (std::thread/atomic/
                              thread_local/futures and the s4::Mutex wrapper
                              family) may only appear in src/exec (the
                              executor owns all scheduling), src/obs (lock/
                              atomic metric and trace sinks), src/sim (the
                              clock's lanes and the device's busy timeline),
                              and src/util/sync.* (the wrappers themselves).
                              The drive, LFS, journal, cache and RPC layers
                              stay single-threaded by construction: the
                              executor runs at most one task per drive at a
                              time, and that is their only lock. (Raw
                              mutex/lock/condvar primitives are S4L010's
                              business.)
  S4L010 lock-discipline      (a) The raw std:: locking primitives (mutex,
                              condition_variable, lock_guard, unique_lock,
                              ...) appear only in src/util/sync.*; everyone
                              else uses s4::Mutex / s4::MutexLock etc., which
                              carry the Clang Thread Safety annotations and
                              the runtime lock-rank checker. (b) Every
                              s4::Mutex / s4::SharedMutex member must have at
                              least one S4_GUARDED_BY / S4_PT_GUARDED_BY
                              referring to it in the same file — an
                              unreferenced lock protects nothing and the
                              static analysis cannot see through it. (c)
                              Every S4_NO_THREAD_SAFETY_ANALYSIS escape hatch
                              needs a rationale comment on the same or the
                              preceding line; the target for src/ is zero.
  S4L011 record-length        kSectorsPerBlock may not appear in src/drive/.
                              A data record holds only its block's live
                              sectors, so its length comes from the one
                              helper (DataRecordSectors, src/lfs/format.h)
                              or from a chunk summary's record; a whole-block
                              count there would read, release or count the
                              wrong number of sectors.

Usage:
  tools/s4_lint.py [--root DIR]     lint a tree (default: repo root)
  tools/s4_lint.py --self-test      run against tests/lint_fixtures and
                                    verify each rule fires on its fixture

Exit status: 0 = clean, 1 = findings, 2 = self-test failure / bad usage.
No dependencies beyond the Python 3 standard library.
"""

import argparse
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CXX_EXTENSIONS = (".cc", ".h", ".cpp", ".hpp")

# ---------------------------------------------------------------------------
# Rule configuration
# ---------------------------------------------------------------------------

# S4L001: files/directories (relative, '/'-separated) allowed to call
# BlockDevice::Write directly. Everything else must go through SegmentWriter
# so the write is versioned, checksummed, and audited.
RAW_WRITE_ALLOWLIST = (
    "src/sim/",                    # the device implementation itself
    "src/lfs/segment_writer.cc",   # the one sanctioned mutation path
    "src/drive/s4_drive.cc",       # superblock + audit-region persistence
    "src/baseline/",               # non-S4 comparison filesystems
)

# S4L002 source locations.
RPC_ENUM_FILE = "src/audit/audit_log.h"
TRANSPORT_FILE = "src/rpc/transport.cc"
DRIVE_DIR = "src/drive"
# Ops that are not implemented as a single Execute() body: kInvalid is the
# audit marker for undecodable requests; kBatch is an envelope whose sub-ops
# are each audited individually.
RPC_ENUM_EXEMPT = {"kInvalid", "kBatch"}

# S4L003: wall-clock / ambient-randomness tokens and where they are allowed.
TIME_RAND_PATTERN = re.compile(
    r"\b(?:std::time\b|time\s*\(\s*(?:NULL|nullptr|0)\s*\)|gettimeofday|"
    r"clock_gettime|system_clock|steady_clock|high_resolution_clock|"
    r"std::rand\b|\bsrand\s*\(|random_device|mt19937|minstd_rand|"
    r"\brandom\s*\(\s*\))"
)
TIME_RAND_ALLOWLIST = (
    "src/sim/",       # SimClock wraps all time
    "src/util/rng.",  # Rng wraps all randomness (seeded, replayable)
)

# S4L004: `throw` as a keyword (exception specifications like `throw()` do
# not appear in this code base; any hit is a violation).
THROW_PATTERN = re.compile(r"\bthrow\b")

# S4L005: a (void) cast applied to something that is (or dereferences into)
# a call — i.e. a discarded return value, not an unused-variable silencer
# like `(void)index;`.
VOID_DISCARD_PATTERN = re.compile(r"\(void\)\s*[A-Za-z_][\w:]*\s*(?:\(|\.|->)")

# S4L006: allowed #include edges between src/ subdirectories. An edge
# dir -> dep means files under src/<dir>/ may include headers from
# src/<dep>/. Self-edges and src/<dir> -> (same dir) are always allowed.
# sim <-> obs is a sanctioned mutual dependency: the simulator reports into
# the observability plane, which timestamps via the sim clock.
LAYERING = {
    "audit":    {"object", "util"},
    "baseline": {"cache", "fs", "lfs", "sim", "util"},
    "cache":    {"lfs", "obs", "sim", "util"},
    "cluster":  {"drive", "obs", "object", "rpc", "sim", "util"},
    "delta":    {"util"},
    "drive":    {"audit", "cache", "journal", "lfs", "object", "obs", "sim",
                 "util"},
    "exec":     {"audit", "drive", "obs", "object", "rpc", "sim", "util"},
    "fs":       {"cache", "rpc", "sim", "util"},
    "journal":  {"lfs", "util"},
    "lfs":      {"sim", "util"},
    "object":   {"lfs", "util"},
    "obs":      {"audit", "object", "sim", "util"},
    "recovery": {"audit", "delta", "drive", "fs", "rpc", "util"},
    "rpc":      {"audit", "drive", "object", "sim", "util"},
    "sim":      {"obs", "util"},
    "util":     set(),
    "workload": {"delta", "fs", "sim", "util"},
}

# S4L007: files allowed to pass kAuditLogObjectId into a mutating storage
# call. AppendAuditBuffered and TrimAuditObject (both in drive_ops.cc) are
# the only sanctioned writers of the audit object: they change it only
# through WriteBlocks, which journals through LogEntry and ApplyEntry, the
# drive's one mutation path. Everything else may only read it (QueryAudit,
# challenge rounds, mount verification).
AUDIT_OBJECT_WRITE_ALLOWLIST = (
    "src/drive/drive_ops.cc",
)
AUDIT_OBJECT_WRITE_PATTERN = re.compile(
    r"\b(?:Append|SupersedeBlock|WriteBlocks|LogEntry|ApplyEntry|"
    r"BuildBlockContent|Write|Truncate)\s*\([^)]*\bkAuditLogObjectId\b")

# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


class Finding:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text):
    """Blank out comments and string/char literal contents, preserving line
    structure, so token rules do not fire on prose or log messages."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(c)
            elif c == "'":
                state = "char"
                out.append(c)
            else:
                out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state == "string":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "code"
                out.append(c)
            elif c == "\n":  # unterminated; bail back to code
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "char":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == "'":
                state = "code"
                out.append(c)
            elif c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def iter_source_files(root, subdirs):
    for sub in subdirs:
        base = os.path.join(root, sub)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            # The negative fixtures violate the rules on purpose; they are
            # linted individually by --self-test, not as part of the tree.
            dirnames[:] = [d for d in dirnames if d != "lint_fixtures"]
            for name in sorted(filenames):
                if name.endswith(CXX_EXTENSIONS):
                    full = os.path.join(dirpath, name)
                    rel = os.path.relpath(full, root).replace(os.sep, "/")
                    yield full, rel


def read(full):
    with open(full, "r", encoding="utf-8", errors="replace") as f:
        return f.read()


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


def check_raw_device_write(root):
    findings = []
    pattern = re.compile(r"\bdevice_?\s*(?:->|\.)\s*Write\s*\(")
    for full, rel in iter_source_files(root, ["src"]):
        if rel.startswith(RAW_WRITE_ALLOWLIST):
            continue
        code = strip_comments_and_strings(read(full))
        for lineno, line in enumerate(code.splitlines(), 1):
            if pattern.search(line):
                findings.append(Finding(
                    "S4L001", rel, lineno,
                    "direct BlockDevice::Write outside the sanctioned write "
                    "path (SegmentWriter / superblock / baselines) bypasses "
                    "versioning and audit"))
    return findings


def parse_rpc_ops(root):
    """Return RpcOp enumerator names from the audit header, or None if the
    enum cannot be found (mini fixture trees for other rules omit it)."""
    path = os.path.join(root, RPC_ENUM_FILE)
    if not os.path.isfile(path):
        return None
    text = strip_comments_and_strings(read(path))
    m = re.search(r"enum\s+class\s+RpcOp[^{]*\{(.*?)\}", text, re.DOTALL)
    if not m:
        return None
    ops = re.findall(r"\b(k[A-Za-z0-9]+)\b\s*(?:=\s*\d+)?\s*,", m.group(1))
    return [op for op in ops if op not in RPC_ENUM_EXEMPT]


def check_op_audit_pipeline(root):
    ops = parse_rpc_ops(root)
    if ops is None:
        return []
    findings = []

    drive_texts = {}
    for full, rel in iter_source_files(root, [DRIVE_DIR]):
        if rel.endswith(".cc"):
            drive_texts[rel] = strip_comments_and_strings(read(full))

    transport_path = os.path.join(root, TRANSPORT_FILE)
    transport_text = (strip_comments_and_strings(read(transport_path))
                      if os.path.isfile(transport_path) else "")

    for op in ops:
        # 1. The drive must implement the op through the Execute pipeline:
        #    `OpArgs a{RpcOp::kX}` is how an op enters BeginOp/EndOp, which
        #    is where the audit record is emitted before any mutation.
        impl = re.compile(r"OpArgs\s+\w+\s*\{\s*RpcOp::" + op + r"\b")
        if not any(impl.search(t) for t in drive_texts.values()):
            findings.append(Finding(
                "S4L002", DRIVE_DIR, 0,
                f"RpcOp::{op} has no OpArgs{{RpcOp::{op}}} Execute-pipeline "
                "implementation in src/drive — the op would mutate state "
                "without an audit record"))
        # 2. The transport must dispatch it.
        if not re.search(r"case\s+RpcOp::" + op + r"\b", transport_text):
            findings.append(Finding(
                "S4L002", TRANSPORT_FILE, 0,
                f"RpcOp::{op} is not dispatched in the transport switch"))

    # 3. Every OpArgs must reach Execute: an OpArgs constructed but never
    #    passed to Execute means the body runs outside the audit pipeline.
    #    Both `return Execute(ctx, ...)` and `<var> = Execute(ctx, ...)` count
    #    (the purge ops capture the result to run a post-op audit barrier).
    for rel, text in drive_texts.items():
        n_args = len(re.findall(r"\bOpArgs\s+\w+\s*\{\s*RpcOp::", text))
        n_exec = len(re.findall(r"(?:\breturn\s+|=\s*)Execute\s*\(\s*ctx\s*,", text))
        if n_args != n_exec:
            findings.append(Finding(
                "S4L002", rel, 0,
                f"{n_args} OpArgs construction(s) but {n_exec} "
                "Execute(ctx, ...) call(s): every op body must go "
                "through the Execute audit pipeline exactly once"))
    return findings


def check_sim_time_only(root):
    findings = []
    for full, rel in iter_source_files(root, ["src"]):
        if rel.startswith(TIME_RAND_ALLOWLIST):
            continue
        code = strip_comments_and_strings(read(full))
        for lineno, line in enumerate(code.splitlines(), 1):
            m = TIME_RAND_PATTERN.search(line)
            if m:
                findings.append(Finding(
                    "S4L003", rel, lineno,
                    f"ambient time/randomness ({m.group(0).strip()}) outside "
                    "src/sim and src/util/rng breaks deterministic replay; "
                    "use SimClock / Rng"))
    return findings


def check_no_throw(root):
    findings = []
    for full, rel in iter_source_files(root, ["src"]):
        code = strip_comments_and_strings(read(full))
        for lineno, line in enumerate(code.splitlines(), 1):
            if THROW_PATTERN.search(line):
                findings.append(Finding(
                    "S4L004", rel, lineno,
                    "`throw` in src/: fallible paths return Status/Result "
                    "(src/util/status.h); invariant violations use S4_CHECK"))
    return findings


def check_void_discard_comment(root):
    findings = []
    for full, rel in iter_source_files(
            root, ["src", "tests", "bench", "examples"]):
        lines = read(full).splitlines()
        for lineno, line in enumerate(lines, 1):
            if not VOID_DISCARD_PATTERN.search(line):
                continue
            prev = lines[lineno - 2].strip() if lineno >= 2 else ""
            if "//" in line or prev.startswith("//") or "//" in prev:
                continue
            findings.append(Finding(
                "S4L005", rel, lineno,
                "(void)-discarded call result without a rationale comment; "
                "say why ignoring the error/value is safe (same or "
                "preceding line)"))
    return findings


def check_include_layering(root):
    findings = []
    include_re = re.compile(r'#include\s+"src/([^/"]+)/')
    for full, rel in iter_source_files(root, ["src"]):
        parts = rel.split("/")
        if len(parts) < 3:  # src/<dir>/<file>
            continue
        src_dir = parts[1]
        allowed = LAYERING.get(src_dir)
        for lineno, line in enumerate(read(full).splitlines(), 1):
            m = include_re.search(line)
            if not m:
                continue
            dep = m.group(1)
            if dep == src_dir:
                continue
            if allowed is None:
                findings.append(Finding(
                    "S4L006", rel, lineno,
                    f"directory src/{src_dir} is not in the layering map "
                    "(tools/s4_lint.py LAYERING); declare its dependencies"))
                break  # one finding per unknown dir is enough
            if dep not in allowed:
                findings.append(Finding(
                    "S4L006", rel, lineno,
                    f"illegal include edge src/{src_dir} -> src/{dep}; "
                    "allowed: " + ", ".join(sorted(allowed))))
    return findings


# S4L008: drive-internal subsystems and types the cluster layer must never
# name. The array controller is a *client* of its member drives; everything it
# does has to flow through S4Drive's public ops so each shard's versioning and
# audit chronicle see it.
CLUSTER_FORBIDDEN_INCLUDE = re.compile(
    r'#include\s+"src/(journal|lfs|cache|audit)/')
CLUSTER_FORBIDDEN_TOKEN = re.compile(
    r"\b(BlockDevice|SegmentWriter|SegmentReader|JournalWriter|JournalEntry|"
    r"AuditLog|BlockCache|ObjectMap|Inode)\b")


def check_cluster_drive_api(root):
    findings = []
    for full, rel in iter_source_files(root, ["src"]):
        if not rel.startswith("src/cluster/"):
            continue
        code = strip_comments_and_strings(read(full))
        for lineno, line in enumerate(code.splitlines(), 1):
            if CLUSTER_FORBIDDEN_INCLUDE.search(line) or \
                    CLUSTER_FORBIDDEN_TOKEN.search(line):
                findings.append(Finding(
                    "S4L008", rel, lineno,
                    "cluster code must drive shards through the S4Drive "
                    "public API / RPC surface only; drive internals bypass "
                    "the versioning and audit pipeline"))
    return findings


# S4L009: threading primitives and where they are allowed. Everything outside
# the allowlist runs single-threaded: the executor runs one task per drive;
# a stray thread or atomic elsewhere means a layer is trying to synchronise on
# its own, which the concurrency argument (DESIGN.md §14) does not cover.
# Raw mutex/condvar/lock-RAII primitives are covered by S4L010, which confines
# them to src/util/sync.* tree-wide; this rule confines everything else —
# threads, atomics, thread_local, futures, AND the s4 sync wrappers.
THREADING_PATTERN = re.compile(
    r"(?:#include\s*<(?:thread|atomic|"
    r"future|barrier|latch|semaphore|stop_token)>|"
    r'#include\s*"src/util/sync\.h"|'
    r"\bstd::(?:thread|jthread|"
    r"atomic\w*|"
    r"future|promise|async|call_once|once_flag|barrier|latch|"
    r"counting_semaphore|binary_semaphore)\b|"
    r"\bthread_local\b|"
    r"\b(?:s4::)?(?:Mutex|SharedMutex|CondVar|MutexLock|WriterLock|"
    r"ReaderLock|LockRank)\b)"
)
THREADING_ALLOWLIST = (
    "src/exec/",       # the executor owns scheduling, workers and queues
    "src/obs/",        # thread-safe metric/trace sinks shared by all lanes
    "src/sim/",        # clock lanes and the device's serialised busy timeline
    "src/util/sync.",  # the annotated wrappers themselves
)


def check_threading_confinement(root):
    findings = []
    for full, rel in iter_source_files(root, ["src"]):
        if rel.startswith(THREADING_ALLOWLIST):
            continue
        code = strip_comments_and_strings(read(full))
        for lineno, line in enumerate(code.splitlines(), 1):
            m = THREADING_PATTERN.search(line)
            if m:
                findings.append(Finding(
                    "S4L009", rel, lineno,
                    f"threading primitive ({m.group(0).strip()}) outside "
                    "src/exec, src/obs, src/sim; layers below the executor "
                    "are single-threaded by construction — rely on its "
                    "one-task-per-drive scheduling instead"))
    return findings


# S4L010: the annotated-sync-layer discipline. Three sub-checks:
#   (a) raw std:: locking primitives confined to src/util/sync.*;
#   (b) every s4::Mutex/SharedMutex member declared with a LockRank must be
#       referenced by at least one S4_GUARDED_BY/S4_PT_GUARDED_BY in the same
#       file (a lock no annotation names is invisible to the Clang analysis);
#   (c) every S4_NO_THREAD_SAFETY_ANALYSIS carries a rationale comment on the
#       same or preceding line.
NAKED_SYNC_PATTERN = re.compile(
    r"(?:#include\s*<(?:mutex|shared_mutex|condition_variable)>|"
    r"\bstd::(?:mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|condition_variable(?:_any)?|"
    r"lock_guard|unique_lock|shared_lock|scoped_lock)\b)"
)
SYNC_WRAPPER_FILES = ("src/util/sync.",)
MUTEX_MEMBER_PATTERN = re.compile(
    r"\b(?:s4::)?(?:Mutex|SharedMutex)\s+(\w+)\s*\{\s*LockRank::")
TSA_ESCAPE_TOKEN = "S4_NO_THREAD_SAFETY_ANALYSIS"


def check_lock_discipline(root):
    findings = []
    for full, rel in iter_source_files(root, ["src"]):
        raw = read(full)
        code = strip_comments_and_strings(raw)
        in_sync = rel.startswith(SYNC_WRAPPER_FILES)
        code_lines = code.splitlines()
        raw_lines = raw.splitlines()
        for lineno, line in enumerate(code_lines, 1):
            if not in_sync:
                m = NAKED_SYNC_PATTERN.search(line)
                if m:
                    findings.append(Finding(
                        "S4L010", rel, lineno,
                        f"naked locking primitive ({m.group(0).strip()}) "
                        "outside src/util/sync.*; use s4::Mutex / "
                        "s4::MutexLock etc. so the lock participates in "
                        "thread-safety analysis and rank checking"))
                for mm in MUTEX_MEMBER_PATTERN.finditer(line):
                    member = mm.group(1)
                    if (f"S4_GUARDED_BY({member})" not in code and
                            f"S4_PT_GUARDED_BY({member})" not in code):
                        findings.append(Finding(
                            "S4L010", rel, lineno,
                            f"s4 mutex member '{member}' has no "
                            f"S4_GUARDED_BY({member}) / "
                            f"S4_PT_GUARDED_BY({member}) referent in this "
                            "file; a lock that guards nothing declared is "
                            "invisible to the static analysis"))
            if TSA_ESCAPE_TOKEN in line and not in_sync:
                this = raw_lines[lineno - 1] if lineno <= len(raw_lines) else ""
                prev = raw_lines[lineno - 2].strip() if lineno >= 2 else ""
                if "//" not in this and "//" not in prev:
                    findings.append(Finding(
                        "S4L010", rel, lineno,
                        "S4_NO_THREAD_SAFETY_ANALYSIS without a rationale "
                        "comment (same or preceding line); the escape hatch "
                        "needs a written justification — and the target for "
                        "src/ is zero uses"))
    return findings


# S4L011: the whole-block sector count has no use in the drive. Every data
# record's length follows from its object's size (DataRecordSectors) or is
# read from a chunk summary (ScannedRecord::sectors).
RECORD_LENGTH_DIR = "src/drive/"
RECORD_LENGTH_PATTERN = re.compile(r"\bkSectorsPerBlock\b")


def check_record_length(root):
    findings = []
    for full, rel in iter_source_files(root, ["src"]):
        if not rel.startswith(RECORD_LENGTH_DIR):
            continue
        code = strip_comments_and_strings(read(full))
        for lineno, line in enumerate(code.splitlines(), 1):
            if RECORD_LENGTH_PATTERN.search(line):
                findings.append(Finding(
                    "S4L011", rel, lineno,
                    "kSectorsPerBlock in the drive: a data record holds only "
                    "its block's live sectors, so take its length from "
                    "DataRecordSectors(size, index) or from the chunk "
                    "summary's record"))
    return findings


def check_audit_object_write(root):
    findings = []
    for full, rel in iter_source_files(root, ["src"]):
        if rel.startswith(AUDIT_OBJECT_WRITE_ALLOWLIST):
            continue
        code = strip_comments_and_strings(read(full))
        for lineno, line in enumerate(code.splitlines(), 1):
            if AUDIT_OBJECT_WRITE_PATTERN.search(line):
                findings.append(Finding(
                    "S4L007", rel, lineno,
                    "mutating call targeting the reserved audit object "
                    "outside the drive's audit append/trim path "
                    "(src/drive/drive_ops.cc); the chronicle is only "
                    "tamper-evident if nothing else can write it"))
    return findings


RULES = [
    check_raw_device_write,
    check_op_audit_pipeline,
    check_sim_time_only,
    check_no_throw,
    check_void_discard_comment,
    check_include_layering,
    check_audit_object_write,
    check_cluster_drive_api,
    check_threading_confinement,
    check_lock_discipline,
    check_record_length,
]


def run_all(root):
    findings = []
    for rule in RULES:
        findings.extend(rule(root))
    return findings


# ---------------------------------------------------------------------------
# Self-test: each fixture is a miniature tree under tests/lint_fixtures/<case>
# that must trigger exactly the expected rule(s); `clean` must trigger none.
# ---------------------------------------------------------------------------

FIXTURE_EXPECTATIONS = {
    "raw_device_write": {"S4L001"},
    "op_audit_pipeline": {"S4L002"},
    "sim_time_only": {"S4L003"},
    "no_throw": {"S4L004"},
    "void_discard": {"S4L005"},
    "include_layering": {"S4L006"},
    "audit_object_write": {"S4L007"},
    "audit_object_write_blocks": {"S4L007"},
    "cluster_drive_api": {"S4L008"},
    "threading_confinement": {"S4L009"},
    "naked_mutex": {"S4L010"},
    "unguarded_mutex_member": {"S4L010"},
    "tsa_escape_hatch": {"S4L010"},
    "record_length": {"S4L011"},
    "clean": set(),
}


def self_test():
    fixtures = os.path.join(REPO_ROOT, "tests", "lint_fixtures")
    ok = True
    for case, expected in sorted(FIXTURE_EXPECTATIONS.items()):
        case_dir = os.path.join(fixtures, case)
        if not os.path.isdir(case_dir):
            print(f"SELF-TEST FAIL: missing fixture {case_dir}")
            ok = False
            continue
        fired = {f.rule for f in run_all(case_dir)}
        if fired != expected:
            print(f"SELF-TEST FAIL: fixture '{case}' fired {sorted(fired)}, "
                  f"expected {sorted(expected)}")
            for f in run_all(case_dir):
                print(f"    {f}")
            ok = False
        else:
            print(f"self-test: {case}: OK ({sorted(fired) or 'no findings'})")
    return ok


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=REPO_ROOT,
                        help="tree to lint (default: repo root)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify every rule fires on its fixture")
    args = parser.parse_args(argv)

    if args.self_test:
        return 0 if self_test() else 2

    findings = run_all(os.path.abspath(args.root))
    for f in findings:
        print(f)
    if findings:
        print(f"s4_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
