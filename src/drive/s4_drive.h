// S4Drive: the self-securing storage device (paper section 4).
//
// The drive is the security perimeter. It exports exactly the RPC operations
// of Table 1, versions every mutation internally for the guaranteed
// detection window, audits every request, and refuses to let any client —
// including a compromised host OS presenting valid user credentials —
// destroy history before it ages out.
//
// Every Table-1 op runs through one Execute() pipeline: open a span, charge
// front-end CPU, run admission (admin gate, space-exhaustion throttle), run
// the op body, then account denials, append the audit record, and record the
// op's sim-time latency. The per-op boilerplate lives nowhere else.
//
// Internals: log-structured layout (src/lfs), journal-based metadata
// (src/journal), object map + inode checkpoints (src/object), buffer/object
// caches (src/cache), audit log (src/audit), plus the age-driven cleaner and
// the space-exhaustion throttle implemented here.
#ifndef S4_SRC_DRIVE_S4_DRIVE_H_
#define S4_SRC_DRIVE_S4_DRIVE_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/audit/audit_chain.h"
#include "src/audit/audit_log.h"
#include "src/cache/block_cache.h"
#include "src/cache/lru.h"
#include "src/drive/options.h"
#include "src/journal/commit_marker.h"
#include "src/journal/sector.h"
#include "src/lfs/scan.h"
#include "src/lfs/segment_writer.h"
#include "src/lfs/usage_table.h"
#include "src/object/inode.h"
#include "src/object/object_map.h"
#include "src/obs/metrics.h"
#include "src/obs/op_context.h"
#include "src/sim/block_device.h"
#include "src/sim/sim_clock.h"

namespace s4 {

// A named version: the time of the mutation that *created* this version.
struct VersionInfo {
  SimTime time = 0;
  JournalEntryType cause = JournalEntryType::kWrite;
};

// Static span name for a drive op ("drive.Write", ...).
const char* DriveOpSpanName(RpcOp op);

class S4Drive {
 public:
  // Formats the device with a fresh S4 layout and returns a mounted drive.
  static Result<std::unique_ptr<S4Drive>> Format(BlockDevice* device, SimClock* clock,
                                                 S4DriveOptions options);
  // Mounts an existing S4 layout, running crash recovery (checkpoint load +
  // log roll-forward).
  static Result<std::unique_ptr<S4Drive>> Mount(BlockDevice* device, SimClock* clock,
                                                S4DriveOptions options);

  ~S4Drive();
  S4Drive(const S4Drive&) = delete;
  S4Drive& operator=(const S4Drive&) = delete;

  // Mints the context for a request entering the drive: fresh request id,
  // claimed credentials, sim-clock start time, and this drive's tracer.
  OpContext MakeContext(const Credentials& creds, RpcOp op);

  // ---- Table 1: object operations ----
  // Each op takes an OpContext created at the request boundary (the RPC
  // server, or MakeContext for in-process callers). The Credentials
  // convenience overloads mint a context and forward.
  //
  // Creates an object owned by creds.user (full perms incl. Recovery) with
  // the given opaque attribute blob.
  Result<ObjectId> Create(OpContext& ctx, Bytes opaque_attrs);
  Result<ObjectId> Create(const Credentials& creds, Bytes opaque_attrs);
  Status Delete(OpContext& ctx, ObjectId id);
  Status Delete(const Credentials& creds, ObjectId id);
  // Read with optional time-based access: `at` selects the version that was
  // most current at that time (requires Recovery flag or admin when the
  // version is in the history pool).
  Result<Bytes> Read(OpContext& ctx, ObjectId id, uint64_t offset, uint64_t length,
                     std::optional<SimTime> at = std::nullopt);
  Result<Bytes> Read(const Credentials& creds, ObjectId id, uint64_t offset, uint64_t length,
                     std::optional<SimTime> at = std::nullopt);
  Status Write(OpContext& ctx, ObjectId id, uint64_t offset, ByteSpan data);
  Status Write(const Credentials& creds, ObjectId id, uint64_t offset, ByteSpan data);
  // Appends at end-of-object; returns the new size.
  Result<uint64_t> Append(OpContext& ctx, ObjectId id, ByteSpan data);
  Result<uint64_t> Append(const Credentials& creds, ObjectId id, ByteSpan data);

  // dst = dst XOR data over [offset, offset+len); bytes beyond the current
  // size XOR against implicit zeros (so the object grows like a write). The
  // RAID small-write offload: an array controller sends one XorWrite instead
  // of read-parity + write-parity.
  Status XorWrite(OpContext& ctx, ObjectId id, uint64_t offset, ByteSpan data);
  Status XorWrite(const Credentials& creds, ObjectId id, uint64_t offset, ByteSpan data);
  Status Truncate(OpContext& ctx, ObjectId id, uint64_t new_size);
  Status Truncate(const Credentials& creds, ObjectId id, uint64_t new_size);
  Result<ObjectAttrs> GetAttr(OpContext& ctx, ObjectId id,
                              std::optional<SimTime> at = std::nullopt);
  Result<ObjectAttrs> GetAttr(const Credentials& creds, ObjectId id,
                              std::optional<SimTime> at = std::nullopt);
  Status SetAttr(OpContext& ctx, ObjectId id, Bytes opaque_attrs);
  Status SetAttr(const Credentials& creds, ObjectId id, Bytes opaque_attrs);
  Result<AclEntry> GetAclByUser(OpContext& ctx, ObjectId id, UserId user,
                                std::optional<SimTime> at = std::nullopt);
  Result<AclEntry> GetAclByUser(const Credentials& creds, ObjectId id, UserId user,
                                std::optional<SimTime> at = std::nullopt);
  Result<AclEntry> GetAclByIndex(OpContext& ctx, ObjectId id, uint32_t index,
                                 std::optional<SimTime> at = std::nullopt);
  Result<AclEntry> GetAclByIndex(const Credentials& creds, ObjectId id, uint32_t index,
                                 std::optional<SimTime> at = std::nullopt);
  Status SetAcl(OpContext& ctx, ObjectId id, AclEntry entry);
  Status SetAcl(const Credentials& creds, ObjectId id, AclEntry entry);

  // ---- Table 1: partition (named object) operations ----
  Status PCreate(OpContext& ctx, const std::string& name, ObjectId id);
  Status PCreate(const Credentials& creds, const std::string& name, ObjectId id);
  Status PDelete(OpContext& ctx, const std::string& name);
  Status PDelete(const Credentials& creds, const std::string& name);
  Result<std::vector<std::pair<std::string, ObjectId>>> PList(
      OpContext& ctx, std::optional<SimTime> at = std::nullopt);
  Result<std::vector<std::pair<std::string, ObjectId>>> PList(
      const Credentials& creds, std::optional<SimTime> at = std::nullopt);
  Result<ObjectId> PMount(OpContext& ctx, const std::string& name,
                          std::optional<SimTime> at = std::nullopt);
  Result<ObjectId> PMount(const Credentials& creds, const std::string& name,
                          std::optional<SimTime> at = std::nullopt);

  // ---- Table 1: device operations ----
  // Commits all buffered state (journal entries, data, audit records) to the
  // log. NFSv2 semantics are built from this. Also the point where a sticky
  // eviction failure (a dirty object whose write-back failed) is surfaced.
  Status Sync(OpContext& ctx);
  Status Sync(const Credentials& creds);
  // Admin: permanently removes versions in (from, to] — all objects.
  Status Flush(OpContext& ctx, SimTime from, SimTime to);
  Status Flush(const Credentials& creds, SimTime from, SimTime to);
  // Admin: same for one object.
  Status FlushObject(OpContext& ctx, ObjectId id, SimTime from, SimTime to);
  Status FlushObject(const Credentials& creds, ObjectId id, SimTime from, SimTime to);
  // Admin: adjusts the guaranteed detection window.
  Status SetWindow(OpContext& ctx, SimDuration window);
  Status SetWindow(const Credentials& creds, SimDuration window);

  // ---- Diagnosis extensions (section 3.6 tooling) ----
  // Enumerates the reconstructible versions of an object, oldest first.
  Result<std::vector<VersionInfo>> GetVersionList(OpContext& ctx, ObjectId id);
  Result<std::vector<VersionInfo>> GetVersionList(const Credentials& creds, ObjectId id);
  // Reads back audit records matching `query` (admin only). In chained mode
  // the whole chain is verified first: a break returns DataCorruption naming
  // the first divergent record and bumps audit.chain_breaks.
  Result<std::vector<AuditRecord>> QueryAudit(const Credentials& creds, const AuditQuery& query);
  // Admin: one round of the external auditor's challenge/response protocol.
  // Forces the buffered audit tail durable, then returns the committed chain
  // frames from `from_offset` (capped per round) plus the drive's claimed
  // chain end; the auditor verifies them against its saved state with
  // VerifyChallengeProof and iterates until it catches up.
  Result<AuditChallengeProof> AuditChallenge(OpContext& ctx, uint64_t from_offset);
  Result<AuditChallengeProof> AuditChallenge(const Credentials& creds, uint64_t from_offset);

  // Audits a request the RPC layer rejected before it could be decoded
  // (bad frame / CRC / op code / size). Recorded with op kInvalid.
  void AuditRejectedFrame(OpContext& ctx, const Status& reason);

  // Audits a batch sub-request the RPC layer did not run because the
  // sub-request it is linked to failed: one record naming `op` and `id` with
  // `reason`, counted in drive.ops_total and drive.ops_denied.
  void AuditSkippedOp(OpContext& ctx, RpcOp op, ObjectId id, const Status& reason);

  // Audits a batch envelope after its sub-ops ran (each sub-op already has
  // its own audit record from the Execute pipeline). `length` in the record
  // carries the sub-op count; latency is recorded for the whole envelope.
  void AuditBatchFrame(OpContext& ctx, uint64_t sub_ops, SimTime batch_start);

  // ---- Cleaner (section 4.2.1) ----
  // One cleaning pass: sweeps the log in write order, expiring versions older
  // than the detection window, reclaims empty segments, and compacts up to
  // `max_compactions` fragmented segments, each block move a journal entry.
  // Compaction normally runs only when space is low; `force_compaction`
  // makes it unconditional (continuous foreground cleaning, as measured in
  // Figure 5). Returns number of segments made free.
  Result<uint32_t> RunCleanerPass(uint32_t max_compactions, bool force_compaction = false);
  // True when free space is low enough that cleaning should run.
  bool CleanerNeeded() const;

  // Writes a device checkpoint (object map + segment usage table). Called
  // periodically and at clean shutdown; also makes cleaner-freed segments
  // allocatable.
  Status WriteCheckpoint();

  // Clean shutdown: flush everything and checkpoint.
  Status Unmount();

  // ---- Introspection ----
  MetricRegistry& metrics() { return metrics_; }
  const MetricRegistry& metrics() const { return metrics_; }
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }
  SimClock* sim_clock() const { return clock_; }
  // On-disk geometry incl. superblock replica locations (tests tear replicas).
  const Superblock& superblock() const { return sb_; }
  const SegmentUsageTable& usage_table() const { return *sut_; }
  const SegmentWriterStats& writer_stats() const { return writer_->stats(); }
  SimDuration detection_window() const { return detection_window_; }
  // Fraction of segments neither free nor reclaimable (0..1).
  double SpaceUtilization() const;
  uint64_t HistoryPoolBytes() const;
  uint64_t LiveBytes() const;
  bool IsAdmin(const Credentials& creds) const;
  const S4DriveOptions& options() const { return options_; }
  // The next ObjectId this drive would assign (mirror-rebuild coordination).
  ObjectId PeekNextObjectId() const { return object_map_.PeekNextId(); }
  // Copy of the object-map entry for `id` (test/diagnosis introspection).
  std::optional<ObjectMapEntry> DebugObjectEntry(ObjectId id) const;
  // Current data-block addresses of an object, in block-index order
  // (test/diagnosis introspection; tamper tests corrupt these sectors).
  Result<std::vector<DiskAddr>> DebugObjectBlockAddrs(ObjectId id);
  // The audit chain state covering every framed record — including frames
  // still buffered in RAM awaiting their block write (test/diagnosis
  // introspection). Stable across a clean unmount/remount cycle.
  AuditChainState DebugAuditChainState() const { return audit_codec_.chain_state(); }
  // Verifies the waypoint invariants of one object / of every object: times
  // strictly ascending and above the history barrier, and every waypoint
  // address reachable by walking the on-disk chain from journal_head. Used by
  // tests and the crash harness after recovery.
  Status VerifyObjectWaypoints(ObjectId id);
  Status VerifyAllWaypoints();

 private:
  // Time ranges whose versions were purged by Flush/FlushO.
  struct PurgedRange {
    SimTime from;
    SimTime to;
  };

  // An object resident in the object cache.
  struct CachedObject {
    Inode inode;
    bool exists = true;          // false = cached tombstone of a deleted object
    bool dirty = false;          // inode differs from the latest checkpoint
    // Journal entries not yet packed into sectors (newest last).
    std::vector<JournalEntry> pending;
  };
  using ObjectHandle = std::shared_ptr<CachedObject>;

  // Everything an operation needs to read one historical version.
  struct VersionView {
    bool existed = false;
    uint64_t size = 0;
    Bytes opaque;
    Acl acl;
    SimTime create_time = 0;
    // Undo overlay: block index -> address at the requested time. Entries
    // present here override `base` (kNullAddr = hole at that time;
    // kPurgedAddr = destroyed by an administrative Flush).
    std::map<uint64_t, DiskAddr> overlay;
    ObjectHandle base;  // current state the overlay applies to
    DiskAddr BlockAt(uint64_t index) const;
  };

  // Sentinel for block data destroyed by Flush/FlushO.
  static constexpr DiskAddr kPurgedAddr = ~0ull;

  // Per-RPC firmware overhead charged by ChargeCpu.
  static constexpr SimDuration kCpuPerOp = 20;
  // Segments kept free for internal flushes (a floor on CleanerNeeded).
  static constexpr uint32_t kReserveSegments = 4;
  // Max deltas per journal entry: large writes are split so every entry fits
  // in a single journal sector.
  static constexpr uint32_t kMaxDeltasPerEntry = 20;
  // Capacity of the decoded-journal-sector cache.
  static constexpr uint64_t kJsectorCacheBytes = 2ull << 20;

  S4Drive(BlockDevice* device, SimClock* clock, S4DriveOptions options);

  // --- request pipeline (s4_drive.cc) ---
  // Audit/admission parameters of one op. Bodies mutate the audit fields
  // (object/offset/length) as the op learns them, so the final audit record
  // matches what the op actually did.
  struct OpArgs {
    RpcOp op;
    ObjectId object = kInvalidObjectId;
    uint64_t offset = 0;
    uint64_t length = 0;
    bool time_based = false;
    uint64_t admission_bytes = 0;  // >0: run the space-exhaustion throttle
    bool admin_only = false;       // reject non-admin credentials up front
  };

  // Sets the active context (the context deep layers charge) for a scope.
  class ScopedActiveContext {
   public:
    ScopedActiveContext(S4Drive* drive, OpContext* ctx) : drive_(drive), prev_(drive->actx_) {
      drive_->actx_ = ctx;
    }
    ~ScopedActiveContext() { drive_->actx_ = prev_; }
    ScopedActiveContext(const ScopedActiveContext&) = delete;
    ScopedActiveContext& operator=(const ScopedActiveContext&) = delete;

   private:
    S4Drive* drive_;
    OpContext* prev_;
  };

  // Uniform prologue: op count, CPU charge, time-based-read count, admin
  // gate, throttle admission.
  Status BeginOp(OpContext& ctx, const OpArgs& args);
  // Uniform epilogue: denial count, the audit record, per-op latency.
  void EndOp(OpContext& ctx, const OpArgs& args, const Status& result, SimTime op_start);

  static const Status& ResultStatus(const Status& s) { return s; }
  template <typename T>
  static const Status& ResultStatus(const Result<T>& r) {
    return r.status();
  }

  // The single pipeline every Table-1 op goes through.
  template <typename Fn>
  auto Execute(OpContext& ctx, OpArgs args, Fn&& body) -> decltype(body(args)) {
    using R = decltype(body(args));
    ScopedSpan span(&ctx, DriveOpSpanName(args.op));
    ScopedActiveContext active(this, &ctx);
    SimTime op_start = clock_->Now();
    R result = [&]() -> R {
      if (Status s = BeginOp(ctx, args); !s.ok()) {
        return R(std::move(s));
      }
      return body(args);
    }();
    EndOp(ctx, args, ResultStatus(result), op_start);
    return result;
  }

  // Cached registry instruments (resolved once at construction).
  struct DriveCounters {
    Counter* ops_total = nullptr;
    Counter* ops_denied = nullptr;
    Counter* time_based_reads = nullptr;
    Counter* journal_entries = nullptr;
    Counter* journal_sectors_written = nullptr;
    Counter* inode_checkpoints = nullptr;
    Counter* data_blocks_written = nullptr;
    Counter* data_sectors_written = nullptr;
    Counter* device_checkpoints = nullptr;
    Counter* audit_records = nullptr;
    Counter* audit_blocks_written = nullptr;
    Counter* audit_sectors_written = nullptr;
    // Chronicle integrity accounting (chained audit mode).
    Counter* audit_chain_breaks = nullptr;           // verified-corrupt chain at record N
    Counter* audit_clean_tail_truncations = nullptr; // torn tails trimmed at mount
    Counter* audit_records_dropped = nullptr;        // buffered records lost (append failure)
    Counter* audit_marker_writes = nullptr;
    Counter* cleaner_passes = nullptr;
    Counter* cleaner_segments_reclaimed = nullptr;
    Counter* cleaner_segments_compacted = nullptr;
    Counter* cleaner_sectors_expired = nullptr;
    Counter* cleaner_sectors_copied = nullptr;
    Counter* cleaner_time_us = nullptr;
    Counter* throttle_delays = nullptr;
    Counter* throttle_rejects = nullptr;
    Counter* versions_purged = nullptr;
    Counter* history_walks = nullptr;
    // History-access fast path (version waypoints + journal-sector cache).
    Counter* history_walk_sectors = nullptr;      // journal sectors decoded by walks
    Counter* history_waypoint_seeks = nullptr;    // walks that skipped via a waypoint
    Counter* history_forward_walks = nullptr;     // reconstructions replayed forward
    Counter* jsector_cache_hits = nullptr;
    Counter* jsector_cache_misses = nullptr;
    // Log-order expiry sweep accounting.
    Counter* cleaner_walk_sectors = nullptr;      // journal sectors the sweep decoded
    Counter* cleaner_segments_swept = nullptr;    // segment ranges read (one command each)
    Counter* cleaner_sweep_sectors_read = nullptr;
    Counter* cleaner_sweep_time_us = nullptr;
    // Log damage the sweep met and stepped over: chunk payloads failing their
    // CRC, journal sectors failing theirs (they stay allocated), and chunk
    // summaries that hid the rest of their segment.
    Counter* cleaner_sweep_damage = nullptr;
    // Full-expiry checkpoints that could not be read or decoded: the history
    // blocks they reference cannot be released (a silent space leak without
    // this counter).
    Counter* cleaner_checkpoint_decode_errors = nullptr;
    // Mount/recovery path (quorum superblocks + bounded roll-forward).
    Counter* recovery_clean_mounts = nullptr;       // mounts that skipped the log scan
    Counter* recovery_segments_scanned = nullptr;
    Counter* recovery_segments_skipped = nullptr;
    Counter* recovery_superblock_votes = nullptr;   // valid replicas in the vote
    Counter* recovery_superblocks_healed = nullptr; // stale/torn copies rewritten
    Counter* recovery_chunks_replayed = nullptr;
    Counter* rpc_rejected_frames = nullptr;
    Counter* rpc_batches = nullptr;
    Counter* rpc_batched_sub_ops = nullptr;
    Histogram* walk_sectors = nullptr;  // per-walk journal sectors read
    // Per-op sim-time latency, indexed by RpcOp value (0 = kInvalid unused).
    Histogram* op_latency[kMaxRpcOp + 1] = {};
  };
  void InitMetrics();

  // --- setup / recovery (s4_drive.cc) ---
  Status DoFormat();
  Status DoMount();
  Status RollForward(uint64_t checkpoint_seq, OpContext* ctx);
  Status InitReservedObjects();
  Result<Bytes> EncodeDeviceCheckpoint() const;
  Status LoadDeviceCheckpoint();
  // Reads every superblock replica, votes (max epoch among valid copies
  // wins), installs the winner as sb_, and heals stale/torn copies. Sets
  // *clean to the winner's clean flag.
  Status LoadSuperblockQuorum(bool* clean);
  // Rewrites every replica with a bumped epoch and the given lifecycle
  // state. Write order is fixed (sector 0 -> mid -> tail) so a cut mid-batch
  // leaves the newest state in the copy the vote prefers.
  Status WriteSuperblockReplicas(bool clean, uint64_t clean_seq);
  // Clean-mount writer resume: re-opens the checkpointed active segment at
  // its checkpointed fill (the checkpoint flushed all pending chunks first).
  Status ResumeWriterFromCheckpoint();

  // --- generic internals (s4_drive.cc) ---
  void ChargeCpu(OpContext* ctx);
  // Reads a whole record (data block, inode checkpoint): writer pending
  // buffer, then the buffer cache, then disk. Journal sectors go through
  // ReadJournalSector instead.
  Result<Bytes> ReadRecord(DiskAddr addr, uint32_t sectors);
  // Releases a record's sectors in the usage table (from the history pool
  // when `history`, else from live) and drops the record from the buffer
  // and journal-sector caches: a released address is never read again until
  // the log reuses it.
  void ReleaseSectors(DiskAddr addr, uint32_t sectors, bool history);
  Result<ObjectHandle> LoadObject(ObjectId id);
  // Rebuilds an object from its inode checkpoint plus the journal entries
  // logged after the kCheckpoint entry that installed it (found by its place
  // in the chain, not by time), walking the chain through ReadJournalSector
  // no further than the history barrier. LoadObject's cache-miss body;
  // roll-forward shares it.
  Result<ObjectHandle> MaterializeObject(ObjectId id, const ObjectMapEntry& entry);
  Status EvictObject(ObjectId id, ObjectHandle obj);
  // The one mutation path. Every change to an object is a journal entry, and
  // LogEntry is the only code that queues one: it applies the entry
  // (ApplyEntry), queues and counts it, marks the object dirty, and packs the
  // object's journal once journal_flush_entries entries wait. A write split
  // over several entries passes `last` false for all but its last, so it is
  // applied whole before any packing can fail, and packed once.
  Status LogEntry(ObjectId id, CachedObject* obj, JournalEntry e, bool last = true);
  // Applies one entry to the drive's state, live (from LogEntry) and at
  // roll-forward alike: supersedes each delta's old block (a kMove frees it
  // instead and records the object's move time), installs a checkpoint the
  // entry names (releasing the one it replaces), retires a deleted object's
  // current blocks and sets its delete time, then replays the entry on the
  // cached inode.
  void ApplyEntry(ObjectId id, CachedObject* obj, const JournalEntry& e);
  // A block an entry replaces (its record `sectors` long) becomes history
  // when `history`, else it is freed (an unversioned object's, a move's).
  void SupersedeBlock(DiskAddr old_addr, uint32_t sectors, bool history);
  // Replays one entry on an inode, oldest to newest. ApplyEntry, LoadObject
  // and forward history reconstruction share it.
  static void ApplyEntryForward(Inode* inode, bool* exists, const JournalEntry& e);
  Status FlushObjectJournal(ObjectId id, CachedObject* obj);
  Status CheckpointObject(ObjectId id, CachedObject* obj);
  Status FlushAllPending(bool force_audit = false);
  Status MaybeAutoCheckpoint();
  Status AppendAuditBuffered(bool force);
  // --- audit chronicle (s4_drive.cc / drive_ops.cc) ---
  // Persists the audit commit marker (A/B by generation parity). Must only be
  // called after writer_->Flush: the marker vouches the covered audit bytes
  // are on the platter.
  Status WriteAuditMarker();
  // Appends the buffered audit tail and flushes everything pending (including
  // the journal entry carrying the audit object's new size). After this
  // returns, every framed record so far survives a power cut — but the commit
  // marker has not moved, so the new frames verify as clean tail, not yet as
  // committed. This is the cheap per-Sync durability barrier: no marker-sector
  // seek off the log head.
  Status SyncAuditTail();
  // SyncAuditTail plus a commit-marker advance. After this returns, every
  // framed record so far verifies as committed (damage below the marker is
  // tamper, never torn tail). Costs a seek to the marker sectors, so it runs
  // at durability milestones — device checkpoints, history purges, audit
  // challenges, unmount — not on every client Sync.
  Status CommitAuditTail();
  // Loads the newest valid marker sector at mount (none found -> generation
  // stays 0, meaning "nothing vouched for yet").
  Status LoadAuditMarker();
  // Mount-time chain verification: classifies the recovered audit object as
  // intact / torn tail (trimmed) / tampered, and seeds the codec chain state.
  Status VerifyAuditChainAtMount();
  // Shrinks the audit object to `new_size` (drops the torn tail so future
  // appends stay contiguous with the verified chain). Truncate internals
  // without the Execute/ACL wrapper; idempotent across repeated crashes.
  Status TrimAuditObject(uint64_t new_size);
  void Audit(const Credentials& creds, RpcOp op, ObjectId id, uint64_t offset, uint64_t length,
             const Status& result, bool time_based);
  bool ObjectIsVersioned(ObjectId id) const;
  // ACL check against the *current* object state.
  Status CheckAccess(const CachedObject& obj, const Credentials& creds, uint8_t needed) const;

  // --- data path (drive_ops.cc) ---
  Status WriteBody(OpContext& ctx, OpArgs& args, ObjectId id, uint64_t offset, ByteSpan data,
                   bool is_append);
  // Builds block `block_index` for an object growing or shrinking to
  // `new_size`: the old record (read at its length for the current size)
  // up to min(current size, new_size), zeros past it, and `data` (at
  // `write_off`) laid over it, DataRecordSectors(new_size, block_index) long.
  Result<Bytes> BuildBlockContent(const CachedObject& obj, uint64_t block_index,
                                  uint64_t new_size, uint64_t write_off, ByteSpan data);
  // The one block path (writes, appends, truncates, the audit log, the
  // partition table and compaction's kMove copies): appends a new block for
  // every block `data` (at `offset`) touches, for a shrink's boundary block,
  // and for the old last block when growth changes its record length; drops
  // every block past `new_size`; and journals the deltas as `type` entries
  // through LogEntry, split so each fits a journal sector. Each record holds its block's live
  // sectors at `new_size` (DataRecordSectors), so a delta's old record
  // length follows from the entry's old size and its new one from the new
  // size. If a read or an append fails, nothing is journaled and the blocks
  // already appended are released: the object is left as it was.
  Status WriteBlocks(JournalEntryType type, ObjectId id, CachedObject* obj, uint64_t offset,
                     ByteSpan data, uint64_t new_size);
  Status ThrottleCheck(const Credentials& creds, uint64_t bytes);
  Result<ObjectHandle> ResolveForWrite(const Credentials& creds, ObjectId id, uint8_t needed);
  Result<Bytes> ReadCurrent(const CachedObject& obj, uint64_t offset, uint64_t length);
  Status WritePartitionTable(const std::vector<std::pair<std::string, ObjectId>>& table);
  Result<std::vector<std::pair<std::string, ObjectId>>> ReadPartitionTable(
      std::optional<SimTime> at);

  // --- history (drive_history.cc) ---
  // Reconstructs the object as it was at time `at`.
  Result<VersionView> ReconstructVersion(ObjectId id, SimTime at);
  // ReconstructVersion + per-version ACL check: the shared shape of every
  // time-based accessor (Read/GetAttr/GetAclByUser/GetAclByIndex).
  Result<VersionView> ReconstructForAccess(OpContext& ctx, ObjectId id, SimTime at);
  // The object's modify time as of `at`: the time of the newest entry at or
  // before `at` that changed its data or attributes.
  Result<SimTime> ModifyTimeAt(ObjectId id, const VersionView& view, SimTime at);
  // Walks the journal chain newest-to-oldest invoking fn(entry) until fn
  // returns false or the history barrier is passed. When `start_at` is set
  // the walk may skip (via waypoints) any sector whose entries are all newer
  // than `start_at` — callers using it must not need entries above the bound.
  Status WalkJournal(ObjectId id, const CachedObject* obj, std::optional<SimTime> start_at,
                     const std::function<Result<bool>(const JournalEntry&)>& fn);
  // The one read path for single journal sectors (history walks, LoadObject
  // and roll-forward): the decoded-sector cache, then the writer's pending
  // buffer, then a one-sector device read, decoded and cached in decoded
  // form only. `sectors_visited` (if non-null) counts every fetch, cached or
  // not — it measures walk length, not disk traffic.
  // Returns null (ok) when the sector no longer decodes as a journal sector
  // of any object: the chain crossed into reclaimed territory and the walker
  // should stop. Device read errors still propagate as errors.
  Result<std::shared_ptr<const JournalSector>> ReadJournalSector(DiskAddr addr,
                                                                 uint64_t* sectors_visited);
  // Applies one journal entry in *undo* direction onto `view` (walking newest
  // to oldest). Returns false once entries at or before `at` are reached.
  Result<bool> ApplyEntryUndo(ObjectId id, const JournalEntry& e, SimTime at, VersionView* view);
  Result<Bytes> ReadVersionBytes(const VersionView& view, uint64_t offset, uint64_t length);
  Status CheckHistoryAccess(const Acl& version_acl, const Credentials& creds) const;
  bool IsPurged(ObjectId id, SimTime t) const;
  Status PurgeObjectVersions(ObjectId id, SimTime from, SimTime to);

  // --- cleaner / throttle (drive_cleaner.cc) ---
  // A place in the log just past a chunk: the chunk's segment, the sector
  // offset after it, and the seq of the chunk expected next.
  struct LogPosition {
    uint64_t seq = 1;
    SegmentId segment = kNullSegment;
    uint32_t offset = 0;
  };
  // Phase 1 of a pass: sweeps every chunk written at or before `cutoff`, in
  // seq order from the cursor.
  Status SweepExpiredLog(SimTime cutoff);
  // Reads the next stretch of log after sweep_read_ (the rest of one segment)
  // into sweep_ahead_. Returns false at the log head.
  Result<bool> ReadAheadOfSweep();
  // Frees the journal sectors of one aged chunk and what their entries
  // superseded, checkpointing first any live object they still replay.
  Status ExpireChunk(const ScannedChunk& chunk);
  // Frees one journal sector; returns the sectors released.
  uint64_t ExpireJournalSector(DiskAddr addr, const JournalSector& sector);
  // Full expiry of a deleted object at its kDelete sector: the delete-time
  // checkpoint, the blocks it references, and the map entry.
  uint64_t ExpireDeletedObject(ObjectId id, const ObjectMapEntry& entry);
  // Copies a segment's current blocks out as kMove entries (WriteBlocks) and
  // its current inode checkpoints by re-checkpointing. True if any moved.
  Result<bool> CompactSegment(SegmentId seg);
  void NoteClientWrite(ClientId client, uint64_t bytes);

  BlockDevice* device_;
  SimClock* clock_;
  S4DriveOptions options_;

  // Observability plane: registry + tracer are owned here; every layer below
  // (cache, lfs, sim) publishes into them. Declared before the components
  // that capture pointers into them.
  MetricRegistry metrics_;
  Tracer tracer_;
  DriveCounters m_;
  // Context of the op currently inside Execute() (null outside any op);
  // internals that sit below the op bodies charge I/O to it. The executor
  // runs one task per drive at a time, so one slot suffices.
  OpContext* actx_ = nullptr;
  OpContext* actx() const { return actx_; }

  Superblock sb_;
  std::unique_ptr<SegmentUsageTable> sut_;
  std::unique_ptr<SegmentWriter> writer_;
  std::unique_ptr<BlockCache> block_cache_;
  std::unique_ptr<LruCache<ObjectId, ObjectHandle>> object_cache_;
  ObjectMap object_map_;
  // Decoded-journal-sector cache: the only form a journal sector is cached
  // in. It holds what history walks read: FlushObjectJournal warm-inserts the
  // sectors of versioned objects only (the unversioned audit log appends one
  // sector per Sync that no history read ever walks), and a miss is cached
  // after its read. Every chain walk (history reads, version lists,
  // LoadObject, roll-forward) hits it first, skipping re-read and re-decode.
  // ReleaseSectors drops an entry when the usage table releases its sector.
  LruCache<DiskAddr, std::shared_ptr<const JournalSector>> jsector_cache_{kJsectorCacheBytes};
  // The expiry sweep's cursor: every chunk below sweep_.seq has been swept
  // exactly once. Persisted in the device checkpoint with the usage table, so
  // after a crash the sweep redoes exactly the frees the checkpoint lost.
  LogPosition sweep_;
  // No unswept chunk was written before this time (persisted too): a pass
  // whose cutoff is below it has nothing to sweep and reads nothing.
  SimTime sweep_time_ = 0;
  // Chunks read past the cursor but not yet old enough, oldest first, and
  // where the next read starts. In memory only: a mount reads from sweep_.
  std::deque<ScannedChunk> sweep_ahead_;
  LogPosition sweep_read_;
  // Objects with unflushed pending journal entries (so Sync never scans the
  // whole object cache).
  std::unordered_set<ObjectId> pending_dirty_;
  std::unordered_map<ObjectId, std::vector<PurgedRange>> purged_;

  SimDuration detection_window_;
  AuditLogCodec audit_codec_;
  // Chain state covering every byte successfully appended to the audit
  // object (not necessarily flushed yet); the marker may only ever be
  // advanced to this state, and only after a writer flush.
  AuditChainState audit_appended_state_;
  // Last marker written (or loaded at mount); generation 0 = none yet.
  AuditCommitMarker audit_marker_;
  // Chain state recorded in the device checkpoint: a second, generation-voted
  // committed-size floor so destroying the marker sectors cannot reclassify
  // checkpointed history as an uncommitted (silently trimmable) tail.
  AuditChainState ckpt_chain_state_;
  // Sticky: mount-time verification found a chain break (tamper evidence is
  // preserved on disk; QueryAudit keeps reporting it).
  bool audit_chain_broken_ = false;
  uint64_t checkpoint_generation_ = 0;  // alternates A/B
  uint64_t checkpoint_seq_ = 0;         // chunk seq covered by last checkpoint
  uint64_t bytes_since_checkpoint_ = 0;

  // Throttle state: per-client exponentially decayed write volume.
  struct ClientLoad {
    double bytes_per_sec = 0;
    SimTime last_update = 0;
  };
  std::unordered_map<ClientId, ClientLoad> client_load_;

  Status eviction_error_ = Status::Ok();  // sticky; surfaced by the next Sync
};

}  // namespace s4

#endif  // S4_SRC_DRIVE_S4_DRIVE_H_
