// ShardRouter: a multi-drive S4 array behind the single-drive client API.
//
// The router implements S4ClientApi, so S4FileSystem (or any other client)
// mounts an N-drive array exactly like one drive. Every Table-1 op is routed
// by the deterministic ShardMap; batched frames are re-split into per-shard
// kBatch envelopes that preserve per-sub order, and each data sub-op keeps
// the caller's credentials while the router's parity-maintenance sub-ops
// carry admin credentials — so every shard's audit chronicle attributes each
// record to the principal that actually issued it. A linked append
// (RpcRequest::link) is resolved here, by the drive's rule: the router
// completes it with its predecessor's value (a Create's id is known when
// planned; anything else is flushed first) and never sends a skipped one.
//
// Redundancy is rotating XOR parity: creates join fixed-width groups whose
// members and parity object all live on distinct shards. Data mutations ship
// one kXorWrite delta to the group's parity object (plus a 256-byte lane
// directory record), so parity maintenance needs no read round-trip on
// appends and creates. Because the parity object is itself an ordinary
// versioned S4 object, a lost shard's objects can be reconstructed at *any
// time inside the detection window* — current and history reads both survive
// a device loss, which is the property the paper's threat model needs: an
// intruder (or failure) taking out one drive does not erase the evidence.
//
// Each parity rule has one implementation, called by every path that needs
// it: the healthy mutation path (PlanSub), the degraded path (DegradedOp),
// repair after a failed data sub-op (RepairParityGroup) and rebuild
// (RebuildScheduler).
//   - MemberImage: a member's lane image from its data shard (EnsureLane,
//     ReadGroup). A deleted member keeps the owner its last lane record
//     named, so the degraded array still admits that owner to its history.
//   - ReadGroup / WriteGroup: a group recomputed from its members' current
//     bytes, then written as lane records followed by parity (repair,
//     rebuild).
//   - MutationDelta: a mutation's parity delta and lane update (healthy and
//     degraded paths; only where the old bytes come from differs).
//   - XorDeltaWrite, LaneRecordWrite, MapWrite, CreateMapObject: the
//     requests that carry them.
//
// A replacement drive is rebuilt online by RebuildScheduler: replaying the
// lost shard's deterministic create sequence under a per-tick byte budget so
// foreground traffic keeps flowing, and resuming idempotently after a crash
// by reading the spare's own allocation cursor.
//
// Timing: member drives are independent devices, each on its own network
// link, so the router keeps one busy-until timeline per shard. Every request
// it sends to shard k — a fan-out's envelope or fetch, a serial SendShard, a
// MaintainShards cleaner pass, a rebuild send — starts at max(the caller's
// clock, k's busy-until) and keeps k busy until it ends (SimClock::Occupy).
// FlushAll's per-shard envelopes, the fetches of a degraded reconstruction,
// the kFlush/kSetWindow fan-out and MaintainShards' cleaner passes each run
// in one SimClock::FanOut scope, so they all arrive at the scope's start and
// the call waits for its slowest shard. Callers on different clock lanes
// (concurrent clients) queue on the same timelines.
#ifndef S4_SRC_CLUSTER_SHARD_ROUTER_H_
#define S4_SRC_CLUSTER_SHARD_ROUTER_H_

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/cluster/shard_map.h"
#include "src/rpc/client.h"
#include "src/sim/sim_clock.h"

namespace s4 {

// One drive of the array as the router sees it: the client-side transport it
// routes requests over, plus the drive handle for admin-plane maintenance
// that is part of the drive's public API (cleaner passes, allocation-cursor
// probes). The router never reaches into drive internals.
struct ShardEndpoint {
  S4Drive* drive = nullptr;
  RpcTransport* transport = nullptr;
};

enum class ShardState : uint8_t {
  kHealthy = 0,
  kDead = 1,        // device lost; ops served degraded via parity
  kRebuilding = 2,  // spare attached; RebuildScheduler owns it
};

// Parity-object layout: a lane directory (one fixed-size record per member)
// followed by the XOR of all member contents at kParityDataOffset.
constexpr uint64_t kLaneSlotBytes = 256;
constexpr uint64_t kParityDataOffset = 4096;

// The router's mirror of one member's metadata, stored in the lane directory
// of the member's parity object so degraded GetAttr / permission checks /
// rebuild work without the data shard.
struct LaneImage {
  ObjectId gid = 0;  // 0 = empty slot
  uint64_t size = 0;
  SimTime create_time = 0;
  SimTime modify_time = 0;
  bool live = false;
  UserId owner = 0;
  Bytes attrs;  // opaque attribute blob (drive caps it well under a slot)

  Bytes Encode() const;  // exactly kLaneSlotBytes
  static Result<LaneImage> Decode(ByteSpan slot);
};

struct RouterStats {
  uint64_t degraded_reads = 0;
  uint64_t degraded_writes = 0;
  uint64_t parity_deltas = 0;    // kXorWrite maintenance sub-ops issued
  uint64_t parity_skips = 0;     // maintenance skipped: parity shard down
  uint64_t parity_repairs = 0;   // full-group recomputes after a failed sub-op
  uint64_t shard_failures = 0;   // transitions to kDead
  uint64_t lost_objects = 0;     // unprotected objects tombstoned by rebuild
};

struct RebuildProgress {
  bool active = false;
  uint32_t shard = 0;
  uint64_t entries_total = 0;
  uint64_t entries_done = 0;
  uint64_t bytes_reconstructed = 0;
  uint64_t ticks = 0;
};

class RebuildScheduler;

class ShardRouter : public S4ClientApi {
 public:
  struct Options {
    // Must match every member drive's admin key; parity maintenance and
    // degraded reconstruction run as the array controller.
    uint64_t admin_key = 0;
    bool parity_enabled = true;
  };

  // Formats a fresh array over already-formatted drives (each drive must be
  // newly mounted with no user objects). Creates the per-shard map objects
  // and the array's partition-table object.
  static Result<std::unique_ptr<ShardRouter>> Format(std::vector<ShardEndpoint> shards,
                                                     SimClock* clock, Credentials creds,
                                                     Options opts);
  // Remounts an array from the persisted shard maps. Requires a sync-clean
  // shutdown: every shard's allocation cursor must be in lockstep with the
  // replayed map, otherwise kDataCorruption.
  static Result<std::unique_ptr<ShardRouter>> Mount(std::vector<ShardEndpoint> shards,
                                                    SimClock* clock, Credentials creds,
                                                    Options opts);

  ~ShardRouter() override;

  // S4ClientApi
  const Credentials& creds() const override { return creds_; }
  void set_creds(Credentials creds) override { creds_ = creds; }
  Result<RpcResponse> Call(RpcRequest req) override;
  Result<std::vector<RpcResponse>> CallBatch(std::vector<RpcRequest> reqs) override;

  // --- Array management -----------------------------------------------------

  size_t shard_count() const { return eps_.size(); }
  ShardState shard_state(size_t shard) const { return state_[shard]; }
  const ShardMap& map() const { return map_; }
  // Administrative device-loss notification (tests/harnesses also let the
  // router discover loss itself via kUnavailable responses).
  void FailShard(size_t shard);

  // Grows the array by one freshly formatted drive. New objects start
  // routing to it immediately (new epoch); existing objects do not move.
  Status AddShard(ShardEndpoint ep);

  // Replaces a failed shard with a freshly formatted spare and starts (or
  // resumes, if the spare already holds a partial rebuild) the online
  // rebuild. Ops keep flowing while RebuildTick is pumped.
  Status AttachSpare(size_t shard, ShardEndpoint spare);
  // Reconstructs up to `budget_bytes` of object content onto the spare, then
  // syncs it. Returns true when the rebuild is complete and the shard is
  // healthy again.
  Result<bool> RebuildTick(uint64_t budget_bytes);
  const RebuildProgress& rebuild_progress() const { return rebuild_progress_; }

  // Runs a cleaner pass on each live shard that wants one (the array-level
  // analogue of the bench harness's idle-time maintenance loop); the passes
  // overlap, one per shard.
  Status MaintainShards();

  const RouterStats& rstats() const { return stats_; }

 private:
  friend class RebuildScheduler;

  // Per-CallBatch planning state: sub-ops queued per shard, flushed as one
  // kBatch envelope per shard (credentials prestamped per sub-op).
  struct PendingSub {
    RpcRequest req;
    bool parity_maint = false;
    int32_t group = -1;
  };
  struct BatchCtx {
    std::vector<std::vector<PendingSub>> pending;    // per shard
    std::vector<std::vector<RpcResponse>> results;   // per shard, append-only
    std::vector<size_t> submitted;                   // flushed count per shard
  };
  struct SubPlan {
    enum Kind { kImmediate, kDirect, kSyncFan };
    Kind kind = kImmediate;
    RpcResponse resp;  // kImmediate
    uint32_t shard = 0;
    size_t idx = 0;  // kDirect: index into results[shard]
    // Each shard's Sync: a kSyncFan's, or the one a sync-flagged op queued.
    std::vector<std::pair<uint32_t, size_t>> fan;
    int32_t repair_group = -1;  // recompute this group if the data sub failed
    ObjectId gid = 0;
  };

  ShardRouter(std::vector<ShardEndpoint> shards, SimClock* clock, Credentials creds,
              Options opts);

  bool IsAdminCreds(const Credentials& c) const {
    return c.admin_key != 0 && c.admin_key == opts_.admin_key;
  }
  bool Healthy(uint32_t shard) const { return state_[shard] == ShardState::kHealthy; }
  // Readable for reconstruction: only healthy shards count (a rebuilding
  // spare is incomplete).
  bool Readable(uint32_t shard) const { return state_[shard] == ShardState::kHealthy; }
  void MarkShardDead(uint32_t shard);

  // Single request to one shard, on its busy-until timeline, with automatic
  // death detection on kUnavailable.
  Result<RpcResponse> SendShard(uint32_t shard, RpcRequest req);
  RpcResponse SendShardOrError(uint32_t shard, RpcRequest req);
  // SendShardOrError as one request of a fan-out scope.
  RpcResponse SendOnLane(SimClock::FanOut& fan, uint32_t shard, RpcRequest req);

  // Flushing cannot itself fail: transport errors become per-sub error
  // responses in ctx.results, and device loss is recorded as shard state.
  // FlushAll sends every shard's envelope in one fan-out, so it costs the
  // slowest envelope; FlushShard alone runs on the caller's clock.
  void FlushShard(BatchCtx& ctx, uint32_t shard);
  void FlushAll(BatchCtx& ctx);
  size_t Enqueue(BatchCtx& ctx, uint32_t shard, RpcRequest req, bool maint, int32_t group);

  // The big per-op switch: translates one client request into immediate
  // and/or queued shard sub-ops. A sync-flagged request is planned as the op
  // followed by a Sync, so each shard's Sync rides that shard's envelope.
  SubPlan PlanSub(RpcRequest req, BatchCtx& ctx);
  RpcResponse ResolvePlan(SubPlan& plan, BatchCtx& ctx);

  // --- Parity plane ---------------------------------------------------------
  //
  // Each parity rule has one implementation. The healthy path (PlanSub), the
  // degraded path (DegradedOp), repair (RepairParityGroup) and rebuild
  // (RebuildScheduler) all call it; see the file comment.

  // A member's lane image from its data shard: GetAttr, then ACL entry 0 as
  // the owner (the creator, unless SetAcl rewrote the whole list). A missing
  // member is dead and keeps the owner its last lane record named: from the
  // lane cache, else from the group's current lane record, else (no lane
  // record readable) ACL entry 0 of its newest version before the delete.
  Result<LaneImage> MemberImage(const ShardMap::GidInfo& info);
  // `gid`'s lane image from the cache, else loaded (MemberImage, or the lane
  // record when the data shard is unreadable) and cached.
  Result<LaneImage> EnsureLane(ObjectId gid);

  // One parity group recomputed from its members' current contents.
  struct GroupImage {
    Bytes parity;                  // XOR of the members' current bytes
    std::vector<LaneImage> lanes;  // lane order
  };
  // Reads every member (refreshing the lane cache). kUnavailable when a
  // member's shard is down.
  Result<GroupImage> ReadGroup(int32_t group);
  // Writes `image` through `send`: the lane records, then the parity bytes.
  // The caller first makes the parity object fit: repair truncates a stale
  // tail, rebuild creates the object or empties it.
  Status WriteGroup(int32_t group, GroupImage image,
                    const std::function<Status(RpcRequest)>& send);

  // The bytes a mutation XORs into its group's parity at `offset` of the
  // member's content; empty when parity does not change.
  struct ParityDelta {
    uint64_t offset = 0;
    Bytes bytes;
  };
  // A member's current bytes over [offset, offset+length).
  using OldBytesFn = std::function<Result<Bytes>(uint64_t offset, uint64_t length)>;
  // Applies a Write, XorWrite, Append, Truncate, Delete or SetAttr to `lane`
  // and returns its parity delta. Overwrites, cuts and deletes need the old
  // bytes: the healthy path reads them from the data shard, the degraded
  // path reconstructs them. A null `old_bytes` reads nothing (no delta will
  // be sent).
  Result<ParityDelta> MutationDelta(const RpcRequest& req, LaneImage* lane,
                                    const OldBytesFn& old_bytes);
  // Queues the delta (if any) and the lane record for a healthy-path
  // mutation of `info`. No-op (counted) when the parity shard is down.
  void QueueParityDelta(BatchCtx& ctx, const ShardMap::GidInfo& info, ParityDelta delta,
                        const LaneImage& lane);
  // Recomputes one group's parity object from its members' current contents
  // (used after a partially-applied batch left parity stale).
  Status RepairParityGroup(int32_t group);

  // The requests of the parity plane and the shard map. Every request the
  // router sends is admin-credentialed unless it carries a caller's op.
  RpcRequest AdminRequest(RpcOp op, ObjectId object = kInvalidObjectId) const;
  RpcRequest XorDeltaWrite(const ShardMap::Group& g, ParityDelta delta) const;
  RpcRequest LaneRecordWrite(const ShardMap::Group& g, int32_t lane, const LaneImage& img) const;
  RpcRequest MapWrite() const;
  // Creates a fresh shard's map object (always its first create).
  Status CreateMapObject(uint32_t shard);

  // --- Degraded plane -------------------------------------------------------

  Result<LaneImage> ReadLaneAt(const ShardMap::GidInfo& info,
                               std::optional<SimTime> at);
  // XOR-reconstructs [offset, offset+length) of `gid`'s content at time `at`
  // from the parity object and the surviving members, fetched in one fan-out.
  Result<Bytes> ReconstructRange(const ShardMap::GidInfo& info, uint64_t offset,
                                 uint64_t length, std::optional<SimTime> at);
  RpcResponse DegradedOp(const RpcRequest& req, const ShardMap::GidInfo& info);
  Status CheckDegradedAccess(const Credentials& creds, const LaneImage& lane) const;
  void NoteDegradedMutation(const ShardMap::GidInfo& info);

  // --- Partition table (array-level, object gid kFirstUserObjectId) --------

  Result<std::vector<std::pair<std::string, ObjectId>>> PTabLoad(
      std::optional<SimTime> at);
  Status PTabStore(BatchCtx& ctx,
                   const std::vector<std::pair<std::string, ObjectId>>& table);
  RpcResponse PartitionOp(const RpcRequest& req, BatchCtx& ctx);

  // Internal read/GetAttr of a gid (admin), degraded-aware; used by the
  // partition plane and the rebuilder.
  Result<Bytes> ReadGid(ObjectId gid, uint64_t offset, uint64_t length,
                        std::optional<SimTime> at);

  // Writes and syncs the map on every healthy shard.
  Status PersistMapEverywhere();

  SimClock* clock_;
  Options opts_;
  Credentials creds_;
  Credentials admin_;
  ShardMap map_;
  bool map_dirty_ = false;

  std::vector<ShardEndpoint> eps_;
  std::vector<std::unique_ptr<S4Client>> clients_;
  std::vector<ShardState> state_;
  // Completion time of the last rebuild per shard: direct history reads below
  // this must take the parity path (the spare holds no pre-rebuild versions).
  std::vector<SimTime> rebuilt_since_;
  // Per shard: the instant its last request ends (Timing, above).
  std::vector<SimTime> busy_until_;

  std::unordered_map<ObjectId, LaneImage> lane_cache_;
  RouterStats stats_;

  std::unique_ptr<RebuildScheduler> rebuild_;
  RebuildProgress rebuild_progress_;
};

// Budget-paced online rebuild of one shard onto a freshly formatted spare.
// Replays the shard's deterministic create sequence; each Tick reconstructs
// up to the byte budget and syncs the spare, so progress is durable and a
// power cut mid-rebuild resumes from the spare's own allocation cursor.
class RebuildScheduler {
 public:
  RebuildScheduler(ShardRouter* router, uint32_t shard);

  // Reconstructs up to budget_bytes; returns true when the shard is fully
  // rebuilt (including re-copying objects mutated during the rebuild).
  Result<bool> Tick(uint64_t budget_bytes);

  // Degraded-path mutations during the rebuild invalidate already-copied
  // state; the scheduler re-copies these before declaring completion.
  void NoteDirtyData(ObjectId gid);
  void NoteDirtyParity(int32_t group);

  const RebuildProgress& progress() const { return prog_; }

 private:
  Status EnsureStarted();
  Status RebuildDataObject(ObjectId gid, bool overwrite, uint64_t* bytes);
  Status RebuildParityObject(int32_t group, bool overwrite, uint64_t* bytes);
  Result<RpcResponse> Spare(RpcRequest req);  // one op on the spare; error code -> status

  ShardRouter* r_;
  uint32_t shard_;
  std::vector<ShardMap::ShardObjectRef> order_;
  size_t cursor_ = 0;
  bool started_ = false;
  bool redo_first_ = false;  // resume: last entry may be partially written
  std::set<ObjectId> dirty_gids_;
  std::set<int32_t> dirty_groups_;
  RebuildProgress prog_;
};

}  // namespace s4

#endif  // S4_SRC_CLUSTER_SHARD_ROUTER_H_
