#include "src/cluster/shard_router.h"

#include <algorithm>

#include "src/util/check.h"

namespace s4 {
namespace {

// Matches the drive-side cap so degraded SetAttr cannot accept a blob the
// data shard would have rejected.
constexpr size_t kMaxOpaqueAttrBytes = 200;
// Fixed-width fields of a lane slot (gid, size, times, flags, owner, len).
constexpr size_t kLaneFixedBytes = 44;
constexpr size_t kMaxPartitionNameBytes = 255;

RpcResponse ErrorResp(ErrorCode code, std::string msg) {
  RpcResponse r;
  r.code = code;
  r.message = std::move(msg);
  return r;
}

RpcResponse StatusResp(const Status& s) {
  RpcResponse r;
  r.code = s.code();
  r.message = s.message();
  return r;
}

void XorInto(Bytes* acc, ByteSpan b) {
  if (acc->size() < b.size()) acc->resize(b.size(), 0);
  for (size_t i = 0; i < b.size(); ++i) {
    (*acc)[i] = static_cast<uint8_t>((*acc)[i] ^ b[i]);
  }
}

bool IsMissing(ErrorCode code) {
  return code == ErrorCode::kNotFound || code == ErrorCode::kFailedPrecondition;
}

bool IsTimeGatedReadOp(RpcOp op) {
  return op == RpcOp::kRead || op == RpcOp::kGetAttr || op == RpcOp::kGetAclByUser ||
         op == RpcOp::kGetAclByIndex;
}

}  // namespace

// ---------------------------------------------------------------------------
// LaneImage codec
// ---------------------------------------------------------------------------

Bytes LaneImage::Encode() const {
  Encoder enc(kLaneSlotBytes);
  enc.PutU64(gid);
  enc.PutU64(size);
  enc.PutI64(create_time);
  enc.PutI64(modify_time);
  enc.PutU32(live ? 1u : 0u);
  enc.PutU32(owner);
  enc.PutU32(static_cast<uint32_t>(attrs.size()));
  enc.PutBytes(attrs);
  Bytes out = enc.Take();
  S4_CHECK(out.size() <= kLaneSlotBytes);
  out.resize(kLaneSlotBytes, 0);
  return out;
}

Result<LaneImage> LaneImage::Decode(ByteSpan slot) {
  if (slot.size() < kLaneSlotBytes) {
    return Status::NotFound("no lane record");
  }
  Decoder dec(slot);
  LaneImage img;
  S4_ASSIGN_OR_RETURN(img.gid, dec.U64());
  if (img.gid == 0) {
    return Status::NotFound("empty lane slot");
  }
  S4_ASSIGN_OR_RETURN(img.size, dec.U64());
  S4_ASSIGN_OR_RETURN(img.create_time, dec.I64());
  S4_ASSIGN_OR_RETURN(img.modify_time, dec.I64());
  S4_ASSIGN_OR_RETURN(uint32_t flags, dec.U32());
  img.live = (flags & 1u) != 0;
  S4_ASSIGN_OR_RETURN(img.owner, dec.U32());
  S4_ASSIGN_OR_RETURN(uint32_t attr_len, dec.U32());
  if (attr_len > kLaneSlotBytes - kLaneFixedBytes) {
    return Status::DataCorruption("lane record: bad attr length");
  }
  S4_ASSIGN_OR_RETURN(img.attrs, dec.RawBytes(attr_len));
  return img;
}

// ---------------------------------------------------------------------------
// Construction / format / mount
// ---------------------------------------------------------------------------

ShardRouter::ShardRouter(std::vector<ShardEndpoint> shards, SimClock* clock,
                         Credentials creds, Options opts)
    : clock_(clock),
      opts_(opts),
      creds_(creds),
      admin_{0, 0, opts.admin_key},
      map_(ShardMap::Fresh(static_cast<uint32_t>(shards.size()), opts.parity_enabled)),
      eps_(std::move(shards)) {
  for (ShardEndpoint& ep : eps_) {
    clients_.push_back(std::make_unique<S4Client>(ep.transport, admin_));
  }
  state_.assign(eps_.size(), ShardState::kHealthy);
  rebuilt_since_.assign(eps_.size(), 0);
  busy_.assign(eps_.size(), 0);
}

ShardRouter::~ShardRouter() = default;

Result<std::unique_ptr<ShardRouter>> ShardRouter::Format(std::vector<ShardEndpoint> shards,
                                                         SimClock* clock, Credentials creds,
                                                         Options opts) {
  if (shards.empty()) {
    return Status::InvalidArgument("array needs at least one shard");
  }
  if (opts.parity_enabled && shards.size() > ShardMap::kMaxLanes + 1) {
    return Status::InvalidArgument("array exceeds parity lane limit");
  }
  for (const ShardEndpoint& ep : shards) {
    if (ep.drive == nullptr || ep.transport == nullptr) {
      return Status::InvalidArgument("shard endpoint incomplete");
    }
    if (ep.drive->PeekNextObjectId() != kFirstUserObjectId) {
      return Status::FailedPrecondition("Format requires freshly formatted shards");
    }
  }
  std::unique_ptr<ShardRouter> r(new ShardRouter(std::move(shards), clock, creds, opts));
  // Every shard's first create is its copy of the shard map.
  for (uint32_t s = 0; s < r->shard_count(); ++s) {
    RpcRequest create;
    create.op = RpcOp::kCreate;
    create.creds = r->admin_;
    S4_ASSIGN_OR_RETURN(RpcResponse resp, r->SendShard(s, std::move(create)));
    S4_RETURN_IF_ERROR(resp.ToStatus());
    if (resp.value != kFirstUserObjectId) {
      return Status::Internal("shard map object landed at an unexpected id");
    }
  }
  // The array's partition table is the very first gid, parity-protected like
  // any other object.
  RpcRequest ptab;
  ptab.op = RpcOp::kCreate;
  S4_ASSIGN_OR_RETURN(RpcResponse resp, r->Call(std::move(ptab)));
  S4_RETURN_IF_ERROR(resp.ToStatus());
  S4_CHECK(resp.value == kFirstUserObjectId);
  S4_RETURN_IF_ERROR(r->PersistMapEverywhere());
  return r;
}

Result<std::unique_ptr<ShardRouter>> ShardRouter::Mount(std::vector<ShardEndpoint> shards,
                                                        SimClock* clock, Credentials creds,
                                                        Options opts) {
  if (shards.empty()) {
    return Status::InvalidArgument("array needs at least one shard");
  }
  std::unique_ptr<ShardRouter> r(new ShardRouter(std::move(shards), clock, creds, opts));
  // Read every shard's persisted map; a crash between the per-shard floor
  // writes of one Sync can leave floors staggered, so the highest wins.
  bool have_map = false;
  ShardMap best =
      ShardMap::Fresh(static_cast<uint32_t>(r->shard_count()), opts.parity_enabled);
  for (uint32_t s = 0; s < r->shard_count(); ++s) {
    RpcRequest attr;
    attr.op = RpcOp::kGetAttr;
    attr.creds = r->admin_;
    attr.object = kFirstUserObjectId;
    S4_ASSIGN_OR_RETURN(RpcResponse aresp, r->SendShard(s, std::move(attr)));
    S4_RETURN_IF_ERROR(aresp.ToStatus());
    RpcRequest read;
    read.op = RpcOp::kRead;
    read.creds = r->admin_;
    read.object = kFirstUserObjectId;
    read.offset = 0;
    read.length = aresp.attrs.size;
    S4_ASSIGN_OR_RETURN(RpcResponse rresp, r->SendShard(s, std::move(read)));
    S4_RETURN_IF_ERROR(rresp.ToStatus());
    S4_ASSIGN_OR_RETURN(ShardMap m, ShardMap::Decode(rresp.data));
    if (m.shard_count() != r->shard_count()) {
      return Status::InvalidArgument("endpoint count does not match the persisted map");
    }
    if (!have_map || m.next_gid() > best.next_gid()) {
      best = std::move(m);
      have_map = true;
    }
  }
  r->map_ = std::move(best);
  // Lockstep check: the replayed map predicts every shard's next backend id.
  // A mismatch means creates happened that the persisted floor never covered
  // (crash without Sync) — refuse rather than serve misrouted objects.
  for (uint32_t s = 0; s < r->shard_count(); ++s) {
    ObjectId got = r->eps_[s].drive->PeekNextObjectId();
    ObjectId want = r->map_.ExpectedNextBackend(s);
    if (got != want) {
      return Status::DataCorruption(
          "shard allocation cursor out of lockstep with map "
          "(array was not shut down sync-clean)");
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// Shard I/O primitives
// ---------------------------------------------------------------------------

void ShardRouter::MarkShardDead(uint32_t shard) {
  if (state_[shard] == ShardState::kDead) return;
  state_[shard] = ShardState::kDead;
  ++stats_.shard_failures;
}

void ShardRouter::FailShard(size_t shard) { MarkShardDead(static_cast<uint32_t>(shard)); }

Result<RpcResponse> ShardRouter::SendShard(uint32_t shard, RpcRequest req) {
  SimTime t0 = clock_->Now();
  clients_[shard]->set_creds(req.creds);
  auto resp = clients_[shard]->Call(std::move(req));
  busy_[shard] += clock_->Now() - t0;
  if (resp.ok() && resp->code == ErrorCode::kUnavailable) {
    MarkShardDead(shard);
  }
  return resp;
}

RpcResponse ShardRouter::SendShardOrError(uint32_t shard, RpcRequest req) {
  auto resp = SendShard(shard, std::move(req));
  return resp.ok() ? std::move(*resp) : StatusResp(resp.status());
}

RpcResponse ShardRouter::SendOnLane(SimClock::FanOut& fan, uint32_t shard, RpcRequest req) {
  return fan.Run(shard, [&] { return SendShardOrError(shard, std::move(req)); });
}

size_t ShardRouter::Enqueue(BatchCtx& ctx, uint32_t shard, RpcRequest req, bool maint,
                            int32_t group) {
  if (ctx.pending.empty()) {
    ctx.pending.resize(eps_.size());
    ctx.results.resize(eps_.size());
    ctx.submitted.assign(eps_.size(), 0);
  }
  // A frame holds at most kMaxSubRequests subs; flush early rather than let
  // the drive reject the envelope.
  if (ctx.pending[shard].size() >= RpcBatchRequest::kMaxSubRequests - 2) {
    FlushShard(ctx, shard);
  }
  PendingSub sub;
  sub.req = std::move(req);
  sub.parity_maint = maint;
  sub.group = group;
  ctx.pending[shard].push_back(std::move(sub));
  return ctx.submitted[shard] + ctx.pending[shard].size() - 1;
}

void ShardRouter::FlushShard(BatchCtx& ctx, uint32_t shard) {
  if (ctx.pending.empty() || ctx.pending[shard].empty()) {
    return;
  }
  std::vector<PendingSub> subs = std::move(ctx.pending[shard]);
  ctx.pending[shard].clear();
  std::vector<RpcResponse> resps;
  if (subs.size() == 1) {
    resps.push_back(SendShardOrError(shard, std::move(subs[0].req)));
  } else {
    std::vector<RpcRequest> reqs;
    reqs.reserve(subs.size());
    for (PendingSub& s : subs) reqs.push_back(std::move(s.req));
    SimTime t0 = clock_->Now();
    auto r = clients_[shard]->CallBatchPrestamped(std::move(reqs));
    busy_[shard] += clock_->Now() - t0;
    if (r.ok()) {
      resps = std::move(*r);
    } else {
      resps.assign(subs.size(), StatusResp(r.status()));
    }
  }
  // Maintenance failures don't surface to the caller: a parity object left
  // stale here is recomputed by repair or rebuild. Device loss is sticky.
  for (size_t i = 0; i < resps.size(); ++i) {
    if (resps[i].code == ErrorCode::kUnavailable) {
      MarkShardDead(shard);
    }
    if (i < subs.size() && subs[i].parity_maint && !resps[i].ok()) {
      ++stats_.parity_skips;
    }
  }
  ctx.submitted[shard] += resps.size();
  for (RpcResponse& r : resps) ctx.results[shard].push_back(std::move(r));
}

void ShardRouter::FlushAll(BatchCtx& ctx) {
  if (ctx.pending.empty()) return;
  SimClock::FanOut fan(clock_, eps_.size());
  for (uint32_t s = 0; s < eps_.size(); ++s) {
    fan.Run(s, [&] { FlushShard(ctx, s); });
  }
}

void ShardRouter::PersistMapTo(BatchCtx& ctx, uint32_t shard) {
  RpcRequest w;
  w.op = RpcOp::kWrite;
  w.creds = admin_;
  w.object = kFirstUserObjectId;
  w.offset = 0;
  w.data = map_.Encode();
  Enqueue(ctx, shard, std::move(w), /*maint=*/true, -1);
}

Status ShardRouter::PersistMapEverywhere() {
  for (uint32_t s = 0; s < eps_.size(); ++s) {
    if (!Healthy(s)) continue;
    RpcRequest w;
    w.op = RpcOp::kWrite;
    w.creds = admin_;
    w.object = kFirstUserObjectId;
    w.offset = 0;
    w.data = map_.Encode();
    S4_RETURN_IF_ERROR(SendShardOrError(s, std::move(w)).ToStatus());
    RpcRequest sync;
    sync.op = RpcOp::kSync;
    sync.creds = admin_;
    S4_RETURN_IF_ERROR(SendShardOrError(s, std::move(sync)).ToStatus());
  }
  map_dirty_ = false;
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Parity plane
// ---------------------------------------------------------------------------

Result<LaneImage*> ShardRouter::EnsureLane(ObjectId gid) {
  auto it = lane_cache_.find(gid);
  if (it != lane_cache_.end()) {
    return &it->second;
  }
  const ShardMap::GidInfo* info = map_.Find(gid);
  S4_CHECK(info != nullptr);
  LaneImage img;
  if (Readable(info->shard)) {
    // Data shard is authoritative for size/attrs; the owner approximation is
    // ACL entry 0 (the creator, unless SetAcl rewrote the whole list).
    RpcRequest attr;
    attr.op = RpcOp::kGetAttr;
    attr.creds = admin_;
    attr.object = info->backend;
    RpcResponse aresp = SendShardOrError(info->shard, std::move(attr));
    if (aresp.code == ErrorCode::kFailedPrecondition) {
      img.gid = gid;
      img.live = false;
    } else if (!aresp.ok()) {
      return aresp.ToStatus();
    } else {
      img.gid = gid;
      img.live = true;
      img.size = aresp.attrs.size;
      img.create_time = aresp.attrs.create_time;
      img.modify_time = aresp.attrs.modify_time;
      img.attrs = aresp.attrs.opaque;
      RpcRequest acl;
      acl.op = RpcOp::kGetAclByIndex;
      acl.creds = admin_;
      acl.object = info->backend;
      acl.index = 0;
      RpcResponse aclr = SendShardOrError(info->shard, std::move(acl));
      if (aclr.ok()) img.owner = aclr.acl_entry.user;
    }
  } else {
    S4_ASSIGN_OR_RETURN(img, ReadLaneAt(*info, std::nullopt));
  }
  auto ins = lane_cache_.emplace(gid, std::move(img));
  return &ins.first->second;
}

void ShardRouter::QueueLaneWrite(BatchCtx& ctx, const ShardMap::GidInfo& info,
                                 const LaneImage& lane) {
  if (info.group < 0) return;
  const ShardMap::Group& g = map_.group(info.group);
  if (state_[g.parity_shard] == ShardState::kRebuilding && rebuild_ != nullptr) {
    rebuild_->NoteDirtyParity(info.group);
  }
  if (!Healthy(g.parity_shard)) {
    ++stats_.parity_skips;
    return;
  }
  RpcRequest w;
  w.op = RpcOp::kWrite;
  w.creds = admin_;
  w.object = g.parity_backend;
  w.offset = static_cast<uint64_t>(info.lane) * kLaneSlotBytes;
  w.data = lane.Encode();
  Enqueue(ctx, g.parity_shard, std::move(w), /*maint=*/true, info.group);
}

void ShardRouter::QueueParityDelta(BatchCtx& ctx, const ShardMap::GidInfo& info,
                                   uint64_t offset, Bytes delta, const LaneImage& lane) {
  if (info.group < 0) return;
  const ShardMap::Group& g = map_.group(info.group);
  if (state_[g.parity_shard] == ShardState::kRebuilding && rebuild_ != nullptr) {
    rebuild_->NoteDirtyParity(info.group);
  }
  if (!Healthy(g.parity_shard)) {
    ++stats_.parity_skips;
    return;
  }
  if (!delta.empty()) {
    RpcRequest x;
    x.op = RpcOp::kXorWrite;
    x.creds = admin_;
    x.object = g.parity_backend;
    x.offset = kParityDataOffset + offset;
    x.data = std::move(delta);
    Enqueue(ctx, g.parity_shard, std::move(x), /*maint=*/true, info.group);
    ++stats_.parity_deltas;
  }
  QueueLaneWrite(ctx, info, lane);
}

Status ShardRouter::RepairParityGroup(int32_t group) {
  const ShardMap::Group& g = map_.group(group);
  if (!Healthy(g.parity_shard)) {
    return Status::Ok();  // stale until rebuild recomputes it
  }
  Bytes parity;
  std::vector<std::pair<uint64_t, Bytes>> lane_writes;
  for (size_t lane = 0; lane < g.members.size(); ++lane) {
    ObjectId mgid = g.members[lane];
    const ShardMap::GidInfo* mi = map_.Find(mgid);
    S4_CHECK(mi != nullptr);
    if (!Readable(mi->shard)) {
      return Status::Ok();  // member shard down: rebuild will recompute
    }
    LaneImage img;
    img.gid = mgid;
    RpcRequest attr;
    attr.op = RpcOp::kGetAttr;
    attr.creds = admin_;
    attr.object = mi->backend;
    RpcResponse aresp = SendShardOrError(mi->shard, std::move(attr));
    if (aresp.ok()) {
      img.live = true;
      img.size = aresp.attrs.size;
      img.create_time = aresp.attrs.create_time;
      img.modify_time = aresp.attrs.modify_time;
      img.attrs = aresp.attrs.opaque;
      RpcRequest acl;
      acl.op = RpcOp::kGetAclByIndex;
      acl.creds = admin_;
      acl.object = mi->backend;
      acl.index = 0;
      RpcResponse aclr = SendShardOrError(mi->shard, std::move(acl));
      if (aclr.ok()) img.owner = aclr.acl_entry.user;
      if (img.size > 0) {
        RpcRequest read;
        read.op = RpcOp::kRead;
        read.creds = admin_;
        read.object = mi->backend;
        read.offset = 0;
        read.length = img.size;
        RpcResponse rr = SendShardOrError(mi->shard, std::move(read));
        S4_RETURN_IF_ERROR(rr.ToStatus());
        XorInto(&parity, rr.data);
      }
    } else if (!IsMissing(aresp.code)) {
      return aresp.ToStatus();
    }
    lane_writes.emplace_back(lane * kLaneSlotBytes, img.Encode());
    lane_cache_[mgid] = img;
  }
  // Clear any stale tail beyond the recomputed parity range, then rewrite.
  RpcRequest attr;
  attr.op = RpcOp::kGetAttr;
  attr.creds = admin_;
  attr.object = g.parity_backend;
  RpcResponse aresp = SendShardOrError(g.parity_shard, std::move(attr));
  uint64_t new_end = kParityDataOffset + parity.size();
  if (aresp.ok() && aresp.attrs.size > new_end) {
    RpcRequest tr;
    tr.op = RpcOp::kTruncate;
    tr.creds = admin_;
    tr.object = g.parity_backend;
    tr.length = new_end;
    S4_RETURN_IF_ERROR(SendShardOrError(g.parity_shard, std::move(tr)).ToStatus());
  }
  for (auto& lw : lane_writes) {
    RpcRequest w;
    w.op = RpcOp::kWrite;
    w.creds = admin_;
    w.object = g.parity_backend;
    w.offset = lw.first;
    w.data = std::move(lw.second);
    S4_RETURN_IF_ERROR(SendShardOrError(g.parity_shard, std::move(w)).ToStatus());
  }
  if (!parity.empty()) {
    RpcRequest w;
    w.op = RpcOp::kWrite;
    w.creds = admin_;
    w.object = g.parity_backend;
    w.offset = kParityDataOffset;
    w.data = std::move(parity);
    S4_RETURN_IF_ERROR(SendShardOrError(g.parity_shard, std::move(w)).ToStatus());
  }
  ++stats_.parity_repairs;
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Degraded plane
// ---------------------------------------------------------------------------

Result<LaneImage> ShardRouter::ReadLaneAt(const ShardMap::GidInfo& info,
                                          std::optional<SimTime> at) {
  if (info.group < 0) {
    return Status::Unavailable("object has no parity protection");
  }
  const ShardMap::Group& g = map_.group(info.group);
  if (!Readable(g.parity_shard)) {
    return Status::Unavailable("parity shard is down too");
  }
  RpcRequest read;
  read.op = RpcOp::kRead;
  read.creds = admin_;
  read.object = g.parity_backend;
  read.offset = static_cast<uint64_t>(info.lane) * kLaneSlotBytes;
  read.length = kLaneSlotBytes;
  read.at = at;
  RpcResponse resp = SendShardOrError(g.parity_shard, std::move(read));
  if (IsMissing(resp.code)) {
    return Status::NotFound("no lane record at that time");
  }
  S4_RETURN_IF_ERROR(resp.ToStatus());
  return LaneImage::Decode(resp.data);
}

Result<Bytes> ShardRouter::ReconstructRange(const ShardMap::GidInfo& info, uint64_t offset,
                                            uint64_t length, std::optional<SimTime> at) {
  if (length == 0) return Bytes{};
  if (info.group < 0) {
    return Status::Unavailable("object has no parity protection");
  }
  const ShardMap::Group& g = map_.group(info.group);
  if (!Readable(g.parity_shard)) {
    return Status::Unavailable("parity shard is down too");
  }
  // The parity and member fetches are independent: the range costs the
  // slowest of them, not their sum.
  SimClock::FanOut fan(clock_, eps_.size());
  RpcRequest pread;
  pread.op = RpcOp::kRead;
  pread.creds = admin_;
  pread.object = g.parity_backend;
  pread.offset = kParityDataOffset + offset;
  pread.length = length;
  pread.at = at;
  RpcResponse presp = SendOnLane(fan, g.parity_shard, std::move(pread));
  Bytes acc;
  if (presp.ok()) {
    acc = std::move(presp.data);
  } else if (!IsMissing(presp.code)) {
    return presp.ToStatus();
  }
  acc.resize(length, 0);
  // XOR out every *other* member's content over the same range; what remains
  // is the lost member's bytes.
  for (ObjectId mgid : g.members) {
    if (mgid == info.gid) continue;
    const ShardMap::GidInfo* mi = map_.Find(mgid);
    S4_CHECK(mi != nullptr);
    if (!Readable(mi->shard)) {
      return Status::Unavailable("two shards of one parity group are down");
    }
    RpcRequest mread;
    mread.op = RpcOp::kRead;
    mread.creds = admin_;
    mread.object = mi->backend;
    mread.offset = offset;
    mread.length = length;
    mread.at = at;
    RpcResponse mresp = SendOnLane(fan, mi->shard, std::move(mread));
    if (IsMissing(mresp.code)) {
      continue;  // deleted / not yet created at `at`: contributes zeros
    }
    S4_RETURN_IF_ERROR(mresp.ToStatus());
    XorInto(&acc, mresp.data);
  }
  acc.resize(length, 0);
  return acc;
}

Status ShardRouter::CheckDegradedAccess(const Credentials& creds,
                                        const LaneImage& lane) const {
  if (IsAdminCreds(creds) || creds.user == lane.owner) {
    return Status::Ok();
  }
  return Status::PermissionDenied(
      "degraded array can only authenticate the object owner");
}

void ShardRouter::NoteDegradedMutation(const ShardMap::GidInfo& info) {
  if (rebuild_ != nullptr && state_[info.shard] == ShardState::kRebuilding) {
    rebuild_->NoteDirtyData(info.gid);
  }
}

RpcResponse ShardRouter::DegradedOp(const RpcRequest& req, const ShardMap::GidInfo& info) {
  const bool is_read = IsTimeGatedReadOp(req.op) || req.op == RpcOp::kGetVersionList;
  std::optional<SimTime> lane_at = IsTimeGatedReadOp(req.op) ? req.at : std::nullopt;
  auto lane_r = ReadLaneAt(info, lane_at);
  if (!lane_r.ok()) {
    return StatusResp(lane_r.status());
  }
  LaneImage lane = *lane_r;
  Status access = CheckDegradedAccess(req.creds, lane);
  if (!access.ok()) {
    return StatusResp(access);
  }
  if (!lane.live && req.op != RpcOp::kGetVersionList &&
      !(IsTimeGatedReadOp(req.op) && req.at.has_value())) {
    return ErrorResp(ErrorCode::kFailedPrecondition, "object is deleted");
  }
  if (is_read) ++stats_.degraded_reads;

  switch (req.op) {
    case RpcOp::kRead: {
      RpcResponse r;
      if (req.offset >= lane.size) return r;
      uint64_t len = std::min(req.length, lane.size - req.offset);
      auto data = ReconstructRange(info, req.offset, len, req.at);
      if (!data.ok()) return StatusResp(data.status());
      r.data = std::move(*data);
      return r;
    }
    case RpcOp::kGetAttr: {
      RpcResponse r;
      r.attrs.size = lane.size;
      r.attrs.create_time = lane.create_time;
      r.attrs.modify_time = lane.modify_time;
      r.attrs.opaque = lane.attrs;
      return r;
    }
    case RpcOp::kGetVersionList: {
      // The parity object sees one version per member mutation, so its list
      // is a superset of the lost member's own (documented degraded-mode
      // semantics; the detection window is preserved).
      const ShardMap::Group& g = map_.group(info.group);
      RpcRequest vr;
      vr.op = RpcOp::kGetVersionList;
      vr.creds = admin_;
      vr.object = g.parity_backend;
      return SendShardOrError(g.parity_shard, std::move(vr));
    }
    case RpcOp::kGetAclByUser: {
      if (req.user == lane.owner) {
        RpcResponse r;
        r.acl_entry = AclEntry{lane.owner, kPermAll};
        return r;
      }
      return ErrorResp(ErrorCode::kNotFound,
                       "degraded: only the owner ACL entry is reconstructable");
    }
    case RpcOp::kGetAclByIndex: {
      if (req.index == 0) {
        RpcResponse r;
        r.acl_entry = AclEntry{lane.owner, kPermAll};
        return r;
      }
      return ErrorResp(ErrorCode::kNotFound,
                       "degraded: only the owner ACL entry is reconstructable");
    }
    default:
      break;
  }

  // Mutations: applied to the parity object only; the data shard's copy is
  // reconstructed from parity at rebuild time.
  SimTime now = clock_->Now();
  RpcResponse ok_resp;
  uint64_t xor_offset = 0;
  Bytes delta;
  switch (req.op) {
    case RpcOp::kWrite: {
      delta = req.data;
      xor_offset = req.offset;
      uint64_t end = req.offset + req.data.size();
      uint64_t overlap_end = std::min(end, lane.size);
      if (req.offset < overlap_end) {
        auto old = ReconstructRange(info, req.offset, overlap_end - req.offset,
                                    std::nullopt);
        if (!old.ok()) return StatusResp(old.status());
        for (size_t i = 0; i < old->size(); ++i) {
          delta[i] = static_cast<uint8_t>(delta[i] ^ (*old)[i]);
        }
      }
      lane.size = std::max(lane.size, end);
      break;
    }
    case RpcOp::kXorWrite: {
      // XOR is associative: the parity delta IS the payload.
      delta = req.data;
      xor_offset = req.offset;
      lane.size = std::max(lane.size, req.offset + req.data.size());
      break;
    }
    case RpcOp::kAppend: {
      delta = req.data;
      xor_offset = lane.size;
      lane.size += req.data.size();
      ok_resp.value = lane.size;
      break;
    }
    case RpcOp::kTruncate: {
      if (req.length < lane.size) {
        auto tail = ReconstructRange(info, req.length, lane.size - req.length,
                                     std::nullopt);
        if (!tail.ok()) return StatusResp(tail.status());
        delta = std::move(*tail);
        xor_offset = req.length;
      }
      lane.size = req.length;
      break;
    }
    case RpcOp::kDelete: {
      if (lane.size > 0) {
        auto content = ReconstructRange(info, 0, lane.size, std::nullopt);
        if (!content.ok()) return StatusResp(content.status());
        delta = std::move(*content);
        xor_offset = 0;
      }
      lane.live = false;
      lane.size = 0;
      break;
    }
    case RpcOp::kSetAttr: {
      if (req.data.size() > kMaxOpaqueAttrBytes) {
        return ErrorResp(ErrorCode::kInvalidArgument, "opaque attrs too large");
      }
      lane.attrs = req.data;
      break;
    }
    case RpcOp::kSetAcl:
      return ErrorResp(ErrorCode::kUnavailable,
                       "cannot update ACLs while the object's shard is down");
    case RpcOp::kFlushObject:
      return ErrorResp(ErrorCode::kUnavailable,
                       "cannot flush history while the object's shard is down");
    default:
      return ErrorResp(ErrorCode::kUnavailable, "operation needs the object's shard");
  }

  const ShardMap::Group& g = map_.group(info.group);
  if (!delta.empty()) {
    RpcRequest x;
    x.op = RpcOp::kXorWrite;
    x.creds = admin_;
    x.object = g.parity_backend;
    x.offset = kParityDataOffset + xor_offset;
    x.data = std::move(delta);
    Status st = SendShardOrError(g.parity_shard, std::move(x)).ToStatus();
    if (!st.ok()) return StatusResp(st);
    ++stats_.parity_deltas;
  }
  lane.modify_time = now;
  RpcRequest lw;
  lw.op = RpcOp::kWrite;
  lw.creds = admin_;
  lw.object = g.parity_backend;
  lw.offset = static_cast<uint64_t>(info.lane) * kLaneSlotBytes;
  lw.data = lane.Encode();
  Status st = SendShardOrError(g.parity_shard, std::move(lw)).ToStatus();
  if (!st.ok()) return StatusResp(st);
  lane_cache_[info.gid] = lane;
  ++stats_.degraded_writes;
  NoteDegradedMutation(info);
  return ok_resp;
}

// ---------------------------------------------------------------------------
// Partition table (array-level)
// ---------------------------------------------------------------------------

Result<Bytes> ShardRouter::ReadGid(BatchCtx& ctx, ObjectId gid, uint64_t offset,
                                   uint64_t length, std::optional<SimTime> at) {
  (void)ctx;
  const ShardMap::GidInfo* info = map_.Find(gid);
  if (info == nullptr) {
    return Status::NotFound("unknown object id");
  }
  bool direct = Readable(info->shard);
  if (direct && at.has_value() && *at < rebuilt_since_[info->shard]) {
    direct = false;  // the spare holds no pre-rebuild history
  }
  if (direct) {
    RpcRequest attr;
    attr.op = RpcOp::kGetAttr;
    attr.creds = admin_;
    attr.object = info->backend;
    attr.at = at;
    RpcResponse aresp = SendShardOrError(info->shard, std::move(attr));
    S4_RETURN_IF_ERROR(aresp.ToStatus());
    uint64_t size = aresp.attrs.size;
    if (offset >= size) return Bytes{};
    RpcRequest read;
    read.op = RpcOp::kRead;
    read.creds = admin_;
    read.object = info->backend;
    read.offset = offset;
    read.length = std::min(length, size - offset);
    read.at = at;
    RpcResponse rresp = SendShardOrError(info->shard, std::move(read));
    S4_RETURN_IF_ERROR(rresp.ToStatus());
    return std::move(rresp.data);
  }
  S4_ASSIGN_OR_RETURN(LaneImage lane, ReadLaneAt(*info, at));
  if (!lane.live) {
    return Status::FailedPrecondition("object is deleted");
  }
  if (offset >= lane.size) return Bytes{};
  return ReconstructRange(*info, offset, std::min(length, lane.size - offset), at);
}

Result<std::vector<std::pair<std::string, ObjectId>>> ShardRouter::PTabLoad(
    BatchCtx& ctx, std::optional<SimTime> at) {
  S4_ASSIGN_OR_RETURN(Bytes raw,
                      ReadGid(ctx, kFirstUserObjectId, 0, ~uint64_t{0}, at));
  std::vector<std::pair<std::string, ObjectId>> table;
  if (raw.empty()) return table;
  Decoder dec(raw);
  S4_ASSIGN_OR_RETURN(uint64_t count, dec.Varint());
  if (count > 100000) {
    return Status::DataCorruption("partition table: implausible entry count");
  }
  for (uint64_t i = 0; i < count; ++i) {
    S4_ASSIGN_OR_RETURN(std::string name, dec.String());
    S4_ASSIGN_OR_RETURN(ObjectId gid, dec.Varint());
    table.emplace_back(std::move(name), gid);
  }
  // Trailing bytes are a stale longer encoding from before a PDelete; the
  // count prefix is authoritative.
  return table;
}

Status ShardRouter::PTabStore(BatchCtx& ctx,
                              const std::vector<std::pair<std::string, ObjectId>>& table) {
  Encoder enc(64);
  enc.PutVarint(table.size());
  for (const auto& e : table) {
    enc.PutString(e.first);
    enc.PutVarint(e.second);
  }
  RpcRequest w;
  w.op = RpcOp::kWrite;
  w.creds = admin_;
  w.object = kFirstUserObjectId;
  w.offset = 0;
  w.data = enc.Take();
  SubPlan plan = PlanSub(std::move(w), ctx);
  FlushAll(ctx);
  return ResolvePlan(plan, ctx).ToStatus();
}

RpcResponse ShardRouter::PartitionOp(const RpcRequest& req, BatchCtx& ctx) {
  switch (req.op) {
    case RpcOp::kPList: {
      auto table = PTabLoad(ctx, req.at);
      if (!table.ok()) return StatusResp(table.status());
      RpcResponse r;
      r.partitions = std::move(*table);
      return r;
    }
    case RpcOp::kPMount: {
      auto table = PTabLoad(ctx, req.at);
      if (!table.ok()) return StatusResp(table.status());
      for (const auto& e : *table) {
        if (e.first == req.name) {
          RpcResponse r;
          r.value = e.second;
          return r;
        }
      }
      return ErrorResp(ErrorCode::kNotFound, "partition not found");
    }
    case RpcOp::kPCreate: {
      if (req.name.empty() || req.name.size() > kMaxPartitionNameBytes) {
        return ErrorResp(ErrorCode::kInvalidArgument, "bad partition name");
      }
      if (req.object == kFirstUserObjectId || !map_.Contains(req.object)) {
        return ErrorResp(ErrorCode::kNotFound, "partition target does not exist");
      }
      auto table = PTabLoad(ctx, std::nullopt);
      if (!table.ok()) return StatusResp(table.status());
      for (const auto& e : *table) {
        if (e.first == req.name) {
          return ErrorResp(ErrorCode::kAlreadyExists, "partition name in use");
        }
      }
      table->emplace_back(req.name, req.object);
      return StatusResp(PTabStore(ctx, *table));
    }
    case RpcOp::kPDelete: {
      auto table = PTabLoad(ctx, std::nullopt);
      if (!table.ok()) return StatusResp(table.status());
      auto it = std::find_if(table->begin(), table->end(),
                             [&](const auto& e) { return e.first == req.name; });
      if (it == table->end()) {
        return ErrorResp(ErrorCode::kNotFound, "partition not found");
      }
      table->erase(it);
      return StatusResp(PTabStore(ctx, *table));
    }
    default:
      return ErrorResp(ErrorCode::kInternal, "not a partition op");
  }
}

// ---------------------------------------------------------------------------
// Routing: one client request -> shard sub-ops
// ---------------------------------------------------------------------------

ShardRouter::SubPlan ShardRouter::PlanSub(RpcRequest req, BatchCtx& ctx) {
  SubPlan plan;
  switch (req.op) {
    case RpcOp::kCreate: {
      uint32_t s = map_.NextCreateDataShard();
      if (!Healthy(s)) {
        plan.resp = ErrorResp(ErrorCode::kUnavailable,
                              "object's home shard is down; creates resume after rebuild");
        return plan;
      }
      ShardMap::CreateActions a = map_.AllocateCreate();
      map_dirty_ = true;
      // Data create first: a failure here rolls the allocation back with no
      // physical side effects anywhere.
      FlushShard(ctx, s);
      RpcRequest dc;
      dc.op = RpcOp::kCreate;
      dc.creds = req.creds;
      dc.data = req.data;
      RpcResponse dresp = SendShardOrError(s, std::move(dc));
      if (!dresp.ok()) {
        map_.UndoCreate(a);
        plan.resp = std::move(dresp);
        return plan;
      }
      if (dresp.value != a.data_backend) {
        plan.resp = ErrorResp(ErrorCode::kInternal, "array id lockstep violated");
        return plan;
      }
      SimTime now = clock_->Now();
      LaneImage lane;
      lane.gid = a.gid;
      lane.live = true;
      lane.create_time = now;
      lane.modify_time = now;
      lane.owner = req.creds.user;
      lane.attrs = req.data;
      lane_cache_[a.gid] = lane;
      if (a.group >= 0) {
        if (a.opens_group) {
          if (Healthy(a.parity_shard)) {
            RpcRequest pc;
            pc.op = RpcOp::kCreate;
            pc.creds = admin_;
            RpcResponse presp = SendShardOrError(a.parity_shard, std::move(pc));
            if (!presp.ok() || presp.value != a.parity_backend) {
              ++stats_.parity_skips;  // group unprotected until repair/rebuild
            }
          } else {
            ++stats_.parity_skips;
            if (state_[a.parity_shard] == ShardState::kRebuilding && rebuild_ != nullptr) {
              rebuild_->NoteDirtyParity(a.group);
            }
          }
        }
        const ShardMap::GidInfo* info = map_.Find(a.gid);
        QueueLaneWrite(ctx, *info, lane);
      }
      plan.resp.value = a.gid;
      return plan;
    }

    case RpcOp::kSync: {
      plan.kind = SubPlan::kSyncFan;
      for (uint32_t s = 0; s < eps_.size(); ++s) {
        if (!Healthy(s)) continue;  // a rebuilding spare is synced per tick
        if (map_dirty_) {
          PersistMapTo(ctx, s);
        }
        RpcRequest sync;
        sync.op = RpcOp::kSync;
        sync.creds = req.creds;
        size_t idx = Enqueue(ctx, s, std::move(sync), /*maint=*/false, -1);
        plan.fan.emplace_back(s, idx);
      }
      map_dirty_ = false;
      return plan;
    }

    case RpcOp::kFlush:
    case RpcOp::kSetWindow: {
      FlushAll(ctx);
      Status merged = Status::Ok();
      SimClock::FanOut fan(clock_, eps_.size());
      for (uint32_t s = 0; s < eps_.size(); ++s) {
        if (state_[s] == ShardState::kDead) continue;
        RpcRequest sub = req;
        Status st = SendOnLane(fan, s, std::move(sub)).ToStatus();
        if (!st.ok() && merged.ok()) merged = st;
      }
      plan.resp = StatusResp(merged);
      return plan;
    }

    case RpcOp::kPCreate:
    case RpcOp::kPDelete:
    case RpcOp::kPList:
    case RpcOp::kPMount: {
      FlushAll(ctx);
      plan.resp = PartitionOp(req, ctx);
      return plan;
    }

    case RpcOp::kAuditChallenge: {
      plan.resp = ErrorResp(
          ErrorCode::kUnimplemented,
          "audit chains are per drive: challenge each shard's endpoint directly");
      return plan;
    }

    default:
      break;
  }

  // Object-addressed ops.
  const ShardMap::GidInfo* info = map_.Find(req.object);
  if (info == nullptr) {
    plan.resp = ErrorResp(ErrorCode::kNotFound, "unknown object id");
    return plan;
  }
  uint32_t s = info->shard;
  bool direct = Healthy(s);
  if (direct && req.at.has_value() && IsTimeGatedReadOp(req.op) &&
      *req.at < rebuilt_since_[s]) {
    direct = false;  // pre-rebuild history lives only in the parity object
  }
  if (!direct) {
    // The degraded path reads parity and sibling members immediately, so the
    // queues must drain first to preserve op order.
    FlushAll(ctx);
    plan.resp = DegradedOp(req, *info);
    return plan;
  }

  switch (req.op) {
    case RpcOp::kRead:
    case RpcOp::kGetAttr:
    case RpcOp::kGetAclByUser:
    case RpcOp::kGetAclByIndex:
    case RpcOp::kGetVersionList:
    case RpcOp::kFlushObject:
    case RpcOp::kSetAcl: {
      // Pure routing: translate the object id and preserve caller creds.
      // (SetAcl has no parity mirror: degraded mode authenticates owners
      // only, a documented §13 limitation.)
      RpcRequest sub = std::move(req);
      sub.object = info->backend;
      plan.kind = SubPlan::kDirect;
      plan.shard = s;
      plan.idx = Enqueue(ctx, s, std::move(sub), /*maint=*/false, -1);
      return plan;
    }
    case RpcOp::kWrite:
    case RpcOp::kXorWrite:
    case RpcOp::kAppend:
    case RpcOp::kTruncate:
    case RpcOp::kDelete:
    case RpcOp::kSetAttr:
      break;
    default:
      plan.resp = ErrorResp(ErrorCode::kInvalidArgument, "unroutable rpc op");
      return plan;
  }

  // Mutations: route the data sub-op, then queue the parity delta.
  if (lane_cache_.find(req.object) == lane_cache_.end()) {
    FlushShard(ctx, s);  // cold lane load reads the data shard
  }
  auto lane_r = EnsureLane(req.object);
  if (!lane_r.ok()) {
    plan.resp = StatusResp(lane_r.status());
    return plan;
  }
  LaneImage lane = **lane_r;
  const bool parity_live = info->group >= 0 && Healthy(map_.group(info->group).parity_shard);
  SimTime now = clock_->Now();
  uint64_t xor_offset = 0;
  Bytes delta;

  switch (req.op) {
    case RpcOp::kWrite: {
      xor_offset = req.offset;
      delta = req.data;
      uint64_t end = req.offset + req.data.size();
      uint64_t overlap_end = std::min(end, lane.size);
      if (parity_live && req.offset < overlap_end) {
        // Overwrite: the parity delta is new^old, which needs the current
        // bytes. Drain this shard's queue so the read sees them applied.
        FlushShard(ctx, s);
        RpcRequest old_read;
        old_read.op = RpcOp::kRead;
        old_read.creds = admin_;
        old_read.object = info->backend;
        old_read.offset = req.offset;
        old_read.length = overlap_end - req.offset;
        RpcResponse oresp = SendShardOrError(s, std::move(old_read));
        if (!oresp.ok()) {
          plan.resp = std::move(oresp);
          return plan;
        }
        for (size_t i = 0; i < oresp.data.size(); ++i) {
          delta[i] = static_cast<uint8_t>(delta[i] ^ oresp.data[i]);
        }
      }
      lane.size = std::max(lane.size, end);
      break;
    }
    case RpcOp::kXorWrite: {
      xor_offset = req.offset;
      delta = req.data;  // XOR deltas compose without reading old bytes
      lane.size = std::max(lane.size, req.offset + req.data.size());
      break;
    }
    case RpcOp::kAppend: {
      xor_offset = lane.size;
      delta = req.data;  // appends land past EOF: old bytes are zeros
      lane.size += req.data.size();
      break;
    }
    case RpcOp::kTruncate: {
      if (parity_live && req.length < lane.size) {
        FlushShard(ctx, s);
        RpcRequest tail_read;
        tail_read.op = RpcOp::kRead;
        tail_read.creds = admin_;
        tail_read.object = info->backend;
        tail_read.offset = req.length;
        tail_read.length = lane.size - req.length;
        RpcResponse tresp = SendShardOrError(s, std::move(tail_read));
        if (!tresp.ok()) {
          plan.resp = std::move(tresp);
          return plan;
        }
        xor_offset = req.length;
        delta = std::move(tresp.data);  // XOR the cut tail back out of parity
      }
      lane.size = req.length;
      break;
    }
    case RpcOp::kDelete: {
      if (parity_live && lane.live && lane.size > 0) {
        FlushShard(ctx, s);
        RpcRequest full_read;
        full_read.op = RpcOp::kRead;
        full_read.creds = admin_;
        full_read.object = info->backend;
        full_read.offset = 0;
        full_read.length = lane.size;
        RpcResponse fresp = SendShardOrError(s, std::move(full_read));
        if (!fresp.ok()) {
          plan.resp = std::move(fresp);
          return plan;
        }
        xor_offset = 0;
        delta = std::move(fresp.data);  // remove the content from parity
      }
      lane.live = false;
      lane.size = 0;
      break;
    }
    case RpcOp::kSetAttr: {
      lane.attrs = req.data;
      break;
    }
    default:
      break;
  }
  lane.modify_time = now;

  RpcRequest sub = std::move(req);
  ObjectId gid = sub.object;
  sub.object = info->backend;
  plan.kind = SubPlan::kDirect;
  plan.shard = s;
  plan.gid = gid;
  plan.repair_group = parity_live ? info->group : -1;
  plan.idx = Enqueue(ctx, s, std::move(sub), /*maint=*/false, -1);
  QueueParityDelta(ctx, *info, xor_offset, std::move(delta), lane);
  lane_cache_[gid] = std::move(lane);
  return plan;
}

RpcResponse ShardRouter::ResolvePlan(SubPlan& plan, BatchCtx& ctx) {
  switch (plan.kind) {
    case SubPlan::kImmediate:
      return std::move(plan.resp);
    case SubPlan::kDirect: {
      S4_CHECK(plan.shard < ctx.results.size() && plan.idx < ctx.results[plan.shard].size());
      RpcResponse r = ctx.results[plan.shard][plan.idx];
      if (!r.ok()) {
        // The data sub-op failed after its parity delta was queued (e.g. an
        // ACL denial mid-batch): recompute the group from the members' actual
        // contents so parity never drifts.
        if (plan.gid != 0) lane_cache_.erase(plan.gid);
        // A repair failure leaves parity stale, which rebuild recovers from.
        if (plan.repair_group >= 0) (void)RepairParityGroup(plan.repair_group);
      }
      return r;
    }
    case SubPlan::kSyncFan: {
      Status merged = Status::Ok();
      for (const auto& f : plan.fan) {
        S4_CHECK(f.first < ctx.results.size() && f.second < ctx.results[f.first].size());
        Status st = ctx.results[f.first][f.second].ToStatus();
        if (!st.ok() && merged.ok()) merged = st;
      }
      return StatusResp(merged);
    }
  }
  return ErrorResp(ErrorCode::kInternal, "unresolvable plan");
}

Result<RpcResponse> ShardRouter::Call(RpcRequest req) {
  req.creds = creds_;
  BatchCtx ctx;
  SubPlan plan = PlanSub(std::move(req), ctx);
  FlushAll(ctx);
  return ResolvePlan(plan, ctx);
}

Result<std::vector<RpcResponse>> ShardRouter::CallBatch(std::vector<RpcRequest> reqs) {
  if (reqs.empty()) {
    return Status::InvalidArgument("empty batch");
  }
  BatchCtx ctx;
  std::vector<SubPlan> plans;
  plans.reserve(reqs.size());
  for (RpcRequest& req : reqs) {
    req.creds = creds_;
    plans.push_back(PlanSub(std::move(req), ctx));
  }
  FlushAll(ctx);
  std::vector<RpcResponse> out;
  out.reserve(plans.size());
  for (SubPlan& plan : plans) {
    out.push_back(ResolvePlan(plan, ctx));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Array management
// ---------------------------------------------------------------------------

Status ShardRouter::AddShard(ShardEndpoint ep) {
  for (ShardState st : state_) {
    if (st != ShardState::kHealthy) {
      return Status::FailedPrecondition("grow requires a fully healthy array");
    }
  }
  if (ep.drive == nullptr || ep.transport == nullptr) {
    return Status::InvalidArgument("shard endpoint incomplete");
  }
  if (ep.drive->PeekNextObjectId() != kFirstUserObjectId) {
    return Status::FailedPrecondition("AddShard requires a freshly formatted drive");
  }
  uint32_t n = static_cast<uint32_t>(eps_.size());
  eps_.push_back(ep);
  clients_.push_back(std::make_unique<S4Client>(ep.transport, admin_));
  state_.push_back(ShardState::kHealthy);
  rebuilt_since_.push_back(0);
  busy_.push_back(0);
  RpcRequest create;
  create.op = RpcOp::kCreate;
  create.creds = admin_;
  RpcResponse resp = SendShardOrError(n, std::move(create));
  S4_RETURN_IF_ERROR(resp.ToStatus());
  if (resp.value != kFirstUserObjectId) {
    return Status::Internal("shard map object landed at an unexpected id");
  }
  S4_RETURN_IF_ERROR(map_.AddEpoch(n + 1));
  map_dirty_ = true;
  // The growth epoch must be durable everywhere before any gid routes to the
  // new shard.
  return PersistMapEverywhere();
}

Status ShardRouter::AttachSpare(size_t shard, ShardEndpoint spare) {
  if (shard >= eps_.size() || state_[shard] != ShardState::kDead) {
    return Status::FailedPrecondition("only a failed shard can take a spare");
  }
  if (spare.drive == nullptr || spare.transport == nullptr) {
    return Status::InvalidArgument("shard endpoint incomplete");
  }
  eps_[shard] = spare;
  clients_[shard] = std::make_unique<S4Client>(spare.transport, admin_);
  state_[shard] = ShardState::kRebuilding;
  rebuild_ = std::make_unique<RebuildScheduler>(this, static_cast<uint32_t>(shard));
  rebuild_progress_ = rebuild_->progress();
  return Status::Ok();
}

Result<bool> ShardRouter::RebuildTick(uint64_t budget_bytes) {
  if (rebuild_ == nullptr) {
    return Status::FailedPrecondition("no rebuild in progress");
  }
  auto done = rebuild_->Tick(budget_bytes);
  rebuild_progress_ = rebuild_->progress();
  if (!done.ok()) {
    return done;
  }
  if (*done) {
    uint32_t s = rebuild_progress_.shard;
    state_[s] = ShardState::kHealthy;
    // Direct time-based reads below this point must keep using parity: the
    // spare's own version history starts at the rebuild.
    rebuilt_since_[s] = clock_->Now();
    rebuild_.reset();
  }
  return done;
}

Status ShardRouter::MaintainShards() {
  SimClock::FanOut fan(clock_, eps_.size());
  for (uint32_t s = 0; s < eps_.size(); ++s) {
    if (state_[s] == ShardState::kDead) continue;
    S4Drive* d = eps_[s].drive;
    if (!d->CleanerNeeded()) continue;
    Status st = fan.Run(s, [&] {
      SimTime t0 = clock_->Now();
      Status pass = d->RunCleanerPass(2).status();
      busy_[s] += clock_->Now() - t0;
      return pass;
    });
    S4_RETURN_IF_ERROR(st);
  }
  return Status::Ok();
}

}  // namespace s4
