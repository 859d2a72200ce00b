// RebuildScheduler: budget-paced online reconstruction of one lost shard.
//
// The lost shard's contents are fully determined by (a) the shard map's
// deterministic create sequence and (b) the surviving shards: a data object's
// bytes come out of its parity group (parity XOR the other members), and a
// parity object is recomputed as the XOR of its members' current contents.
// Replaying the create sequence onto a freshly formatted spare therefore
// reproduces the exact backend object ids the map predicts, which is what
// keeps the array in allocation lockstep after the rebuild.
//
// Pacing: each Tick() reconstructs objects until a byte budget is spent, then
// syncs the spare so progress is durable. Resume after a power cut needs no
// rebuild journal — the spare's own allocation cursor says how many creates
// survived, and the last one is redone in overwrite mode in case its content
// writes were torn.
#include <algorithm>

#include "src/cluster/shard_router.h"
#include "src/util/check.h"

namespace s4 {

RebuildScheduler::RebuildScheduler(ShardRouter* router, uint32_t shard)
    : r_(router), shard_(shard), order_(router->map_.CreationOrder(shard)) {
  prog_.active = true;
  prog_.shard = shard;
  prog_.entries_total = order_.size();
}

Result<RpcResponse> RebuildScheduler::Spare(RpcRequest req) {
  S4_ASSIGN_OR_RETURN(RpcResponse resp, r_->SendShard(shard_, std::move(req)));
  S4_RETURN_IF_ERROR(resp.ToStatus());
  return resp;
}

Status RebuildScheduler::EnsureStarted() {
  if (started_) return Status::Ok();
  ObjectId peek = r_->eps_[shard_].drive->PeekNextObjectId();
  if (peek == kFirstUserObjectId) {
    // Fresh spare: its first create is the shard's map object, like Format.
    S4_RETURN_IF_ERROR(r_->CreateMapObject(shard_));
    cursor_ = 0;
  } else {
    // Resume: the allocation cursor counts how many creates reached the
    // spare. The last one may have torn content writes, so redo it in place.
    uint64_t created = peek - (kFirstUserObjectId + 1);
    if (created > order_.size()) {
      return Status::DataCorruption("spare holds more objects than the lost shard had");
    }
    cursor_ = created;
    if (cursor_ > 0) {
      --cursor_;
      redo_first_ = true;
    }
  }
  S4_RETURN_IF_ERROR(Spare(r_->MapWrite()).status());
  prog_.entries_done = cursor_;
  started_ = true;
  return Status::Ok();
}

Status RebuildScheduler::RebuildDataObject(ObjectId gid, bool overwrite, uint64_t* bytes) {
  const ShardMap::GidInfo* info = r_->map_.Find(gid);
  S4_CHECK(info != nullptr && info->shard == shard_);

  LaneImage lane;
  bool lost = info->group < 0;
  if (!lost) {
    auto lane_r = r_->ReadLaneAt(*info, std::nullopt);
    if (lane_r.ok()) {
      lane = *lane_r;
    } else if (lane_r.status().code() == ErrorCode::kNotFound) {
      lost = true;  // lane record never written (parity skipped at create)
    } else {
      return lane_r.status();
    }
  }

  if (!overwrite) {
    // The create itself must happen even for lost/deleted objects: the
    // spare's allocator has to mint every backend id the map predicts.
    RpcRequest create;
    create.op = RpcOp::kCreate;
    create.creds = Credentials{0, lost ? 0 : lane.owner, r_->opts_.admin_key};
    if (!lost) create.data = lane.attrs;
    S4_ASSIGN_OR_RETURN(RpcResponse resp, r_->SendShard(shard_, std::move(create)));
    S4_RETURN_IF_ERROR(resp.ToStatus());
    if (resp.value != info->backend) {
      return Status::Internal("rebuild broke allocation lockstep");
    }
  }

  if (lost || !lane.live) {
    // Tombstone: the object existed but is unrecoverable (no parity group)
    // or legitimately deleted. Either way the spare records a dead object.
    if (lost) ++r_->stats_.lost_objects;
    auto dresp = Spare(r_->AdminRequest(RpcOp::kDelete, info->backend));
    if (!dresp.ok() && dresp.status().code() != ErrorCode::kFailedPrecondition) {
      return dresp.status();  // FailedPrecondition = already deleted (resume)
    }
    *bytes += kLaneSlotBytes;
    return Status::Ok();
  }

  if (overwrite) {
    auto tresp = Spare(r_->AdminRequest(RpcOp::kTruncate, info->backend));
    if (!tresp.ok()) {
      if (tresp.status().code() != ErrorCode::kFailedPrecondition) {
        return tresp.status();
      }
      // Deleted on the spare but live in the lane directory: a degraded
      // delete was undone? That cannot happen — deletes only move live→dead.
      return Status::DataCorruption("spare object dead but lane record is live");
    }
    RpcRequest sa = r_->AdminRequest(RpcOp::kSetAttr, info->backend);
    sa.data = lane.attrs;
    S4_RETURN_IF_ERROR(Spare(std::move(sa)).status());
  }

  if (lane.size > 0) {
    S4_ASSIGN_OR_RETURN(Bytes content,
                        r_->ReconstructRange(*info, 0, lane.size, std::nullopt));
    RpcRequest w = r_->AdminRequest(RpcOp::kWrite, info->backend);
    w.data = std::move(content);
    S4_RETURN_IF_ERROR(Spare(std::move(w)).status());
  }
  r_->lane_cache_[gid] = lane;
  *bytes += lane.size + kLaneSlotBytes;
  return Status::Ok();
}

Status RebuildScheduler::RebuildParityObject(int32_t group, bool overwrite,
                                             uint64_t* bytes) {
  const ShardMap::Group& g = r_->map_.group(group);
  S4_CHECK(g.parity_shard == shard_);

  // Recompute from the members' actual current contents (never from stale
  // parity): every member lives on a distinct, surviving shard.
  S4_ASSIGN_OR_RETURN(ShardRouter::GroupImage image, r_->ReadGroup(group));
  if (!overwrite) {
    S4_ASSIGN_OR_RETURN(RpcResponse resp, Spare(r_->AdminRequest(RpcOp::kCreate)));
    if (resp.value != g.parity_backend) {
      return Status::Internal("rebuild broke allocation lockstep");
    }
  } else {
    S4_RETURN_IF_ERROR(Spare(r_->AdminRequest(RpcOp::kTruncate, g.parity_backend)).status());
  }
  S4_RETURN_IF_ERROR(r_->WriteGroup(group, std::move(image), [&](RpcRequest req) {
    return Spare(std::move(req)).status();
  }));
  *bytes += kParityDataOffset;
  return Status::Ok();
}

void RebuildScheduler::NoteDirtyData(ObjectId gid) { dirty_gids_.insert(gid); }
void RebuildScheduler::NoteDirtyParity(int32_t group) { dirty_groups_.insert(group); }

Result<bool> RebuildScheduler::Tick(uint64_t budget_bytes) {
  S4_RETURN_IF_ERROR(EnsureStarted());
  ++prog_.ticks;
  uint64_t bytes = 0;

  while (cursor_ < order_.size()) {
    if (bytes >= budget_bytes) {
      // Budget spent: sync so everything reconstructed this tick is durable,
      // then yield to foreground traffic.
      S4_RETURN_IF_ERROR(Spare(r_->AdminRequest(RpcOp::kSync)).status());
      prog_.bytes_reconstructed += bytes;
      return false;
    }
    const ShardMap::ShardObjectRef& ref = order_[cursor_];
    bool overwrite = redo_first_;
    redo_first_ = false;
    if (ref.is_parity) {
      S4_RETURN_IF_ERROR(RebuildParityObject(ref.group, overwrite, &bytes));
    } else {
      S4_RETURN_IF_ERROR(RebuildDataObject(ref.gid, overwrite, &bytes));
    }
    ++cursor_;
    prog_.entries_done = cursor_;
  }

  // Main sweep done: re-copy whatever degraded-path mutations dirtied while
  // the sweep was running. These objects already exist on the spare.
  std::set<ObjectId> dirty_gids;
  std::set<int32_t> dirty_groups;
  dirty_gids.swap(dirty_gids_);
  dirty_groups.swap(dirty_groups_);
  for (ObjectId gid : dirty_gids) {
    S4_RETURN_IF_ERROR(RebuildDataObject(gid, /*overwrite=*/true, &bytes));
  }
  for (int32_t group : dirty_groups) {
    S4_RETURN_IF_ERROR(RebuildParityObject(group, /*overwrite=*/true, &bytes));
  }

  // Final map refresh + sync, then the router flips the shard healthy.
  S4_RETURN_IF_ERROR(Spare(r_->MapWrite()).status());
  S4_RETURN_IF_ERROR(Spare(r_->AdminRequest(RpcOp::kSync)).status());
  prog_.bytes_reconstructed += bytes;
  prog_.active = false;
  return true;
}

}  // namespace s4
