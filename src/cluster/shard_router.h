// ShardRouter: a multi-drive S4 array behind the single-drive client API.
//
// The router implements S4ClientApi, so S4FileSystem (or any other client)
// mounts an N-drive array exactly like one drive. Every Table-1 op is routed
// by the deterministic ShardMap; batched frames are re-split into per-shard
// kBatch envelopes that preserve per-sub order, and each data sub-op keeps
// the caller's credentials while the router's parity-maintenance sub-ops
// carry admin credentials — so every shard's audit chronicle attributes each
// record to the principal that actually issued it.
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
// A replacement drive is rebuilt online by RebuildScheduler: replaying the
// lost shard's deterministic create sequence under a per-tick byte budget so
// foreground traffic keeps flowing, and resuming idempotently after a crash
// by reading the spare's own allocation cursor.
//
// Timing: member drives are independent devices, each on its own network
// link, so requests the router sends to several shards and then waits for
// overlap in simulated time. FlushAll's per-shard envelopes, the fetches of
// a degraded reconstruction, the kFlush/kSetWindow fan-out and
// MaintainShards' cleaner passes each run in one SimClock::FanOut scope: a
// shard's requests run on that shard's lane, in the same host order as
// ever, and the call then waits for its slowest shard. Format, Mount,
// AddShard, PersistMapEverywhere and the rebuild's own sends stay serial.
#ifndef S4_SRC_CLUSTER_SHARD_ROUTER_H_
#define S4_SRC_CLUSTER_SHARD_ROUTER_H_

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
  // overlap, one per shard lane.
  Status MaintainShards();

  const RouterStats& rstats() const { return stats_; }
  // Simulated time each shard spent serving this router's requests: the sum
  // of its requests' spans, measured on the shard's own lane inside fan-outs.
  // Fan-outs overlap shards, so elapsed time is below the sum over shards;
  // bench_cluster bounds a run's parallel makespan by the busiest shard.
  const std::vector<SimDuration>& attributed_busy() const { return busy_; }

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
    std::vector<std::pair<uint32_t, size_t>> fan;  // kSyncFan
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

  // Single request to one shard, with busy-time attribution and automatic
  // death detection on kUnavailable.
  Result<RpcResponse> SendShard(uint32_t shard, RpcRequest req);
  RpcResponse SendShardOrError(uint32_t shard, RpcRequest req);
  // SendShardOrError on `shard`'s lane of a fan-out scope.
  RpcResponse SendOnLane(SimClock::FanOut& fan, uint32_t shard, RpcRequest req);

  // Flushing cannot itself fail: transport errors become per-sub error
  // responses in ctx.results, and device loss is recorded as shard state.
  // FlushAll sends every shard's envelope on that shard's lane, so it costs
  // the slowest envelope; FlushShard alone runs on the caller's clock.
  void FlushShard(BatchCtx& ctx, uint32_t shard);
  void FlushAll(BatchCtx& ctx);
  size_t Enqueue(BatchCtx& ctx, uint32_t shard, RpcRequest req, bool maint, int32_t group);

  // The big per-op switch: translates one client request into immediate
  // and/or queued shard sub-ops.
  SubPlan PlanSub(RpcRequest req, BatchCtx& ctx);
  RpcResponse ResolvePlan(SubPlan& plan, BatchCtx& ctx);

  // --- Parity plane ---------------------------------------------------------

  // In-RAM lane image for `gid`, loading it from the parity lane directory or
  // the data shard if cold. Never returns nullptr on Ok.
  Result<LaneImage*> EnsureLane(ObjectId gid);
  // Queues the parity delta (kXorWrite) + lane record update for a mutation
  // of `gid` covering [offset, offset+delta.size()). No-op (counted) when the
  // parity shard is down.
  void QueueParityDelta(BatchCtx& ctx, const ShardMap::GidInfo& info, uint64_t offset,
                        Bytes delta, const LaneImage& lane);
  void QueueLaneWrite(BatchCtx& ctx, const ShardMap::GidInfo& info, const LaneImage& lane);
  // Recomputes one group's parity object from its members' current contents
  // (used after a partially-applied batch left parity stale).
  Status RepairParityGroup(int32_t group);

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
      BatchCtx& ctx, std::optional<SimTime> at);
  Status PTabStore(BatchCtx& ctx,
                   const std::vector<std::pair<std::string, ObjectId>>& table);
  RpcResponse PartitionOp(const RpcRequest& req, BatchCtx& ctx);

  // Internal read/GetAttr of a gid (admin), degraded-aware; used by the
  // partition plane and the rebuilder.
  Result<Bytes> ReadGid(BatchCtx& ctx, ObjectId gid, uint64_t offset, uint64_t length,
                        std::optional<SimTime> at);

  // Queues (never sends) the map write; outcome surfaces at flush time.
  void PersistMapTo(BatchCtx& ctx, uint32_t shard);
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
  std::vector<SimDuration> busy_;

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
  Result<RpcResponse> Spare(RpcRequest req);  // admin-credentialed op on the spare

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
