#include "src/cluster/shard_router.h"

#include <algorithm>

#include "src/drive/s4_drive.h"
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
  if (acc->empty()) {
    acc->assign(b.begin(), b.end());  // a delete's or a cut's delta, a group's first member
    return;
  }
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
  busy_until_.assign(eps_.size(), 0);
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
    S4_RETURN_IF_ERROR(r->CreateMapObject(s));
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
    S4_ASSIGN_OR_RETURN(RpcResponse aresp,
                        r->SendShard(s, r->AdminRequest(RpcOp::kGetAttr, kFirstUserObjectId)));
    S4_RETURN_IF_ERROR(aresp.ToStatus());
    RpcRequest read = r->AdminRequest(RpcOp::kRead, kFirstUserObjectId);
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
  auto resp = clock_->Occupy(&busy_until_[shard], [&] {
    clients_[shard]->set_creds(req.creds);
    return clients_[shard]->Call(std::move(req));
  });
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
  return fan.Run([&] { return SendShardOrError(shard, std::move(req)); });
}

std::vector<RpcResponse> ShardRouter::SendEnvelope(uint32_t shard,
                                                   std::vector<RpcRequest> reqs) {
  if (reqs.size() == 1) {
    std::vector<RpcResponse> one;
    one.push_back(SendShardOrError(shard, std::move(reqs[0])));
    return one;
  }
  const size_t n = reqs.size();
  auto r = clock_->Occupy(&busy_until_[shard], [&] {
    return clients_[shard]->CallBatchPrestamped(std::move(reqs));
  });
  std::vector<RpcResponse> resps =
      r.ok() ? std::move(*r) : std::vector<RpcResponse>(n, StatusResp(r.status()));
  for (const RpcResponse& resp : resps) {
    if (resp.code == ErrorCode::kUnavailable) MarkShardDead(shard);  // device loss is sticky
  }
  return resps;
}

size_t ShardRouter::Enqueue(BatchCtx& ctx, uint32_t shard, RpcRequest req, bool maint,
                            ObjectId expect_id) {
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
  sub.expect_id = expect_id;
  ctx.pending[shard].push_back(std::move(sub));
  return ctx.submitted[shard] + ctx.pending[shard].size() - 1;
}

void ShardRouter::FlushShard(BatchCtx& ctx, uint32_t shard) {
  if (ctx.pending.empty() || ctx.pending[shard].empty()) {
    return;
  }
  std::vector<PendingSub> subs = std::move(ctx.pending[shard]);
  ctx.pending[shard].clear();
  std::vector<RpcRequest> reqs;
  reqs.reserve(subs.size());
  for (PendingSub& s : subs) reqs.push_back(std::move(s.req));
  std::vector<RpcResponse> resps = SendEnvelope(shard, std::move(reqs));
  // Maintenance failures don't surface to the caller: a parity object left
  // stale here, or created at another id than the map predicts, is
  // recomputed by repair or rebuild.
  for (size_t i = 0; i < resps.size(); ++i) {
    if (subs[i].parity_maint &&
        (!resps[i].ok() || (subs[i].expect_id != 0 && resps[i].value != subs[i].expect_id))) {
      ++stats_.parity_skips;
    }
  }
  ctx.submitted[shard] += resps.size();
  for (RpcResponse& r : resps) ctx.results[shard].push_back(std::move(r));
}

void ShardRouter::FlushAll(BatchCtx& ctx) {
  if (!ctx.Queued()) return;
  SimClock::FanOut fan(clock_);
  for (uint32_t s = 0; s < eps_.size(); ++s) {
    fan.Run([&] { FlushShard(ctx, s); });
  }
}

void ShardRouter::Settle(BatchCtx& ctx) {
  std::vector<HeldDelta> waiting;
  for (HeldDelta& h : ctx.held) {
    if (h.op_idx >= ctx.results[h.shard].size()) {
      waiting.push_back(std::move(h));
      continue;
    }
    const ShardMap::GidInfo& info = *map_.Find(h.gid);
    const RpcResponse& op = ctx.results[h.shard][h.op_idx];
    const RpcResponse& old = ctx.results[h.shard][h.read_idx];
    if (!op.ok()) {
      // Refused: the member and its group are untouched, so nothing is sent,
      // and the image it planned is wrong. If that image was shared, a lane
      // record may carry it and the group is stale; otherwise the image is
      // dropped and the next op reloads it.
      if (h.shared) {
        ctx.stale_groups.insert(info.group);
      } else {
        lane_cache_.erase(h.gid);
      }
    } else if (!old.ok()) {
      ctx.stale_groups.insert(info.group);  // changed by a delta nobody knows
    } else {
      XorInto(&h.delta.bytes, old.data);  // the drive stops at EOF: the rest is zeros
      // The newest image: a later op of this batch may have planned past it.
      auto lane = lane_cache_.find(h.gid);
      S4_CHECK(lane != lane_cache_.end());
      QueueParityDelta(ctx, info, std::move(h.delta), lane->second);
    }
  }
  ctx.held = std::move(waiting);
}

void ShardRouter::Drain(BatchCtx& ctx) {
  Settle(ctx);
  while (ctx.Queued()) {
    FlushAll(ctx);
    Settle(ctx);
  }
}

void ShardRouter::RepairStaleGroups(BatchCtx& ctx) {
  // A repair failure leaves parity stale, which rebuild recovers from.
  for (int32_t group : ctx.stale_groups) (void)RepairParityGroup(group);
  ctx.stale_groups.clear();
}

// ---------------------------------------------------------------------------
// Admin requests and the shard-map object
// ---------------------------------------------------------------------------

RpcRequest ShardRouter::AdminRequest(RpcOp op, ObjectId object) const {
  RpcRequest r;
  r.op = op;
  r.creds = admin_;
  r.object = object;
  return r;
}

RpcRequest ShardRouter::XorDeltaWrite(const ShardMap::Group& g, ParityDelta delta) const {
  RpcRequest x = AdminRequest(RpcOp::kXorWrite, g.parity_backend);
  x.offset = kParityDataOffset + delta.offset;
  x.data = std::move(delta.bytes);
  return x;
}

RpcRequest ShardRouter::LaneRecordWrite(const ShardMap::Group& g, int32_t lane,
                                        const LaneImage& img) const {
  RpcRequest w = AdminRequest(RpcOp::kWrite, g.parity_backend);
  w.offset = static_cast<uint64_t>(lane) * kLaneSlotBytes;
  w.data = img.Encode();
  return w;
}

RpcRequest ShardRouter::MapWrite() const {
  RpcRequest w = AdminRequest(RpcOp::kWrite, kFirstUserObjectId);
  w.data = map_.Encode();
  return w;
}

Status ShardRouter::CreateMapObject(uint32_t shard) {
  RpcResponse resp = SendShardOrError(shard, AdminRequest(RpcOp::kCreate));
  S4_RETURN_IF_ERROR(resp.ToStatus());
  if (resp.value != kFirstUserObjectId) {
    return Status::Internal("shard map object landed at an unexpected id");
  }
  return Status::Ok();
}

Status ShardRouter::PersistMapEverywhere() {
  for (uint32_t s = 0; s < eps_.size(); ++s) {
    if (!Healthy(s)) continue;
    S4_RETURN_IF_ERROR(SendShardOrError(s, MapWrite()).ToStatus());
    S4_RETURN_IF_ERROR(SendShardOrError(s, AdminRequest(RpcOp::kSync)).ToStatus());
  }
  map_dirty_ = false;
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Parity plane
// ---------------------------------------------------------------------------

std::vector<RpcRequest> ShardRouter::MemberImageRequests(const ShardMap::GidInfo& info) const {
  std::vector<RpcRequest> reqs;
  reqs.push_back(AdminRequest(RpcOp::kGetAttr, info.backend));
  // ACL entry 0 (the request's default index) names the owner.
  reqs.push_back(AdminRequest(RpcOp::kGetAclByIndex, info.backend));
  return reqs;
}

Result<LaneImage> ShardRouter::MemberImage(const ShardMap::GidInfo& info,
                                           std::vector<RpcResponse> resps) {
  LaneImage img;
  img.gid = info.gid;
  RpcResponse& attr = resps[0];
  if (IsMissing(attr.code)) {
    // Dead. Its owner stays whoever the last lane record named, so the
    // degraded array still authenticates the owner for its history. With no
    // lane record at hand (a cold lane cache and a parity shard that is down
    // or being rebuilt), the data shard's history names the owner: ACL entry
    // 0 at the newest version before the delete.
    auto it = lane_cache_.find(info.gid);
    if (it != lane_cache_.end()) {
      img.owner = it->second.owner;
    } else if (auto last = ReadLaneAt(info, std::nullopt); last.ok()) {
      img.owner = last->owner;
    } else {
      RpcResponse vl =
          SendShardOrError(info.shard, AdminRequest(RpcOp::kGetVersionList, info.backend));
      for (auto v = vl.versions.rbegin(); v != vl.versions.rend(); ++v) {
        if (v->second == static_cast<uint8_t>(JournalEntryType::kDelete)) continue;
        RpcRequest acl = AdminRequest(RpcOp::kGetAclByIndex, info.backend);
        acl.at = v->first;
        RpcResponse aclr = SendShardOrError(info.shard, std::move(acl));
        if (aclr.ok()) img.owner = aclr.acl_entry.user;
        break;
      }
    }
    return img;
  }
  S4_RETURN_IF_ERROR(attr.ToStatus());
  img.live = true;
  img.size = attr.attrs.size;
  img.create_time = attr.attrs.create_time;
  img.modify_time = attr.attrs.modify_time;
  img.attrs = std::move(attr.attrs.opaque);
  if (resps[1].ok()) img.owner = resps[1].acl_entry.user;
  return img;
}

Result<LaneImage> ShardRouter::EnsureLane(ObjectId gid) {
  auto it = lane_cache_.find(gid);
  if (it != lane_cache_.end()) {
    return it->second;
  }
  const ShardMap::GidInfo* info = map_.Find(gid);
  S4_CHECK(info != nullptr);
  S4_ASSIGN_OR_RETURN(
      LaneImage img,
      Readable(info->shard)
          ? MemberImage(*info, SendEnvelope(info->shard, MemberImageRequests(*info)))
          : ReadLaneAt(*info, std::nullopt));
  lane_cache_.emplace(gid, img);
  return img;
}

Result<ShardRouter::GroupImage> ShardRouter::ReadGroup(int32_t group) {
  std::vector<const ShardMap::GidInfo*> members;
  for (ObjectId mgid : map_.group(group).members) {
    const ShardMap::GidInfo* mi = map_.Find(mgid);
    S4_CHECK(mi != nullptr);
    if (!Readable(mi->shard)) {
      return Status::Unavailable("group recompute needs every member shard");
    }
    members.push_back(mi);
  }
  // Members live on distinct shards: their envelopes (image, then all of the
  // content) overlap.
  std::vector<std::vector<RpcResponse>> resps(members.size());
  {
    SimClock::FanOut fan(clock_);
    for (size_t i = 0; i < members.size(); ++i) {
      std::vector<RpcRequest> reqs = MemberImageRequests(*members[i]);
      RpcRequest read = AdminRequest(RpcOp::kRead, members[i]->backend);
      read.length = ~uint64_t{0};  // the drive stops at EOF
      reqs.push_back(std::move(read));
      resps[i] = fan.Run([&] { return SendEnvelope(members[i]->shard, std::move(reqs)); });
    }
  }
  GroupImage image;
  for (size_t i = 0; i < members.size(); ++i) {
    RpcResponse content = std::move(resps[i][2]);
    S4_ASSIGN_OR_RETURN(LaneImage img, MemberImage(*members[i], std::move(resps[i])));
    if (img.live) {
      S4_RETURN_IF_ERROR(content.ToStatus());
      XorInto(&image.parity, content.data);
    }
    lane_cache_[members[i]->gid] = img;
    image.lanes.push_back(std::move(img));
  }
  return image;
}

Status ShardRouter::WriteGroup(int32_t group, GroupImage image,
                               const std::function<Status(RpcRequest)>& send) {
  const ShardMap::Group& g = map_.group(group);
  for (size_t i = 0; i < image.lanes.size(); ++i) {
    S4_RETURN_IF_ERROR(send(LaneRecordWrite(g, static_cast<int32_t>(i), image.lanes[i])));
  }
  if (!image.parity.empty()) {
    RpcRequest w = AdminRequest(RpcOp::kWrite, g.parity_backend);
    w.offset = kParityDataOffset;
    w.data = std::move(image.parity);
    S4_RETURN_IF_ERROR(send(std::move(w)));
  }
  return Status::Ok();
}

Result<ShardRouter::ParityDelta> ShardRouter::MutationDelta(const RpcRequest& req,
                                                            LaneImage* lane) {
  const SimTime now = clock_->Now();
  ParityDelta d;
  switch (req.op) {
    case RpcOp::kWrite: {
      // Overwrite: the delta is new^old over the range that held bytes.
      d.offset = req.offset;
      d.bytes = req.data;
      uint64_t end = req.offset + req.data.size();
      uint64_t overlap_end = std::min(end, lane->size);
      if (req.offset < overlap_end) d.old_length = overlap_end - req.offset;
      lane->size = std::max(lane->size, end);
      break;
    }
    case RpcOp::kXorWrite:
      d.offset = req.offset;
      d.bytes = req.data;  // XOR deltas compose without reading old bytes
      lane->size = std::max(lane->size, req.offset + req.data.size());
      break;
    case RpcOp::kAppend:
      d.offset = lane->size;
      d.bytes = req.data;  // appends land past EOF: old bytes are zeros
      lane->size += req.data.size();
      break;
    case RpcOp::kTruncate:
      if (req.length < lane->size) {
        d.offset = req.length;  // XOR the cut tail back out of parity
        d.old_length = lane->size - req.length;
      }
      lane->size = req.length;  // a grown tail reads as zeros
      break;
    case RpcOp::kDelete:
      if (lane->live) d.old_length = lane->size;  // remove the content
      lane->live = false;
      lane->size = 0;
      break;
    case RpcOp::kSetAttr:
      lane->attrs = req.data;
      break;
    default:
      return Status::Unavailable("operation needs the object's shard");
  }
  lane->modify_time = now;
  return d;
}

void ShardRouter::QueueParityDelta(BatchCtx& ctx, const ShardMap::GidInfo& info,
                                   ParityDelta delta, const LaneImage& lane) {
  if (info.group < 0) return;
  const ShardMap::Group& g = map_.group(info.group);
  if (state_[g.parity_shard] == ShardState::kRebuilding && rebuild_ != nullptr) {
    rebuild_->NoteDirtyParity(info.group);
  }
  if (!Healthy(g.parity_shard)) {
    ++stats_.parity_skips;
    return;
  }
  if (!delta.bytes.empty()) {
    Enqueue(ctx, g.parity_shard, XorDeltaWrite(g, std::move(delta)), /*maint=*/true);
    ++stats_.parity_deltas;
  }
  Enqueue(ctx, g.parity_shard, LaneRecordWrite(g, info.lane, lane), /*maint=*/true);
}

Status ShardRouter::RepairParityGroup(int32_t group) {
  const ShardMap::Group& g = map_.group(group);
  if (!Healthy(g.parity_shard)) {
    return Status::Ok();  // stale until rebuild recomputes it
  }
  Result<GroupImage> image = ReadGroup(group);
  if (image.status().code() == ErrorCode::kUnavailable) {
    return Status::Ok();  // member shard down: rebuild will recompute
  }
  S4_RETURN_IF_ERROR(image.status());
  // Clear any stale tail beyond the recomputed parity range, then rewrite.
  RpcResponse attr = SendShardOrError(g.parity_shard,
                                      AdminRequest(RpcOp::kGetAttr, g.parity_backend));
  uint64_t new_end = kParityDataOffset + image->parity.size();
  if (attr.ok() && attr.attrs.size > new_end) {
    RpcRequest tr = AdminRequest(RpcOp::kTruncate, g.parity_backend);
    tr.length = new_end;
    S4_RETURN_IF_ERROR(SendShardOrError(g.parity_shard, std::move(tr)).ToStatus());
  }
  S4_RETURN_IF_ERROR(WriteGroup(group, std::move(*image), [&](RpcRequest req) {
    return SendShardOrError(g.parity_shard, std::move(req)).ToStatus();
  }));
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
  RpcRequest read = AdminRequest(RpcOp::kRead, g.parity_backend);
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
  SimClock::FanOut fan(clock_);
  RpcRequest pread = AdminRequest(RpcOp::kRead, g.parity_backend);
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
    RpcRequest mread = AdminRequest(RpcOp::kRead, mi->backend);
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
      return SendShardOrError(g.parity_shard,
                              AdminRequest(RpcOp::kGetVersionList, g.parity_backend));
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
  switch (req.op) {
    case RpcOp::kSetAttr:
      if (req.data.size() > kMaxOpaqueAttrBytes) {
        return ErrorResp(ErrorCode::kInvalidArgument, "opaque attrs too large");
      }
      break;
    case RpcOp::kSetAcl:
      return ErrorResp(ErrorCode::kUnavailable,
                       "cannot update ACLs while the object's shard is down");
    case RpcOp::kFlushObject:
      return ErrorResp(ErrorCode::kUnavailable,
                       "cannot flush history while the object's shard is down");
    default:
      break;
  }
  auto delta = MutationDelta(req, &lane);
  if (!delta.ok()) return StatusResp(delta.status());
  if (delta->old_length > 0) {
    auto old = ReconstructRange(info, delta->offset, delta->old_length, std::nullopt);
    if (!old.ok()) return StatusResp(old.status());
    XorInto(&delta->bytes, *old);
  }
  // The delta and the lane record go straight to the parity shard.
  const ShardMap::Group& g = map_.group(info.group);
  if (!delta->bytes.empty()) {
    Status st = SendShardOrError(g.parity_shard, XorDeltaWrite(g, std::move(*delta))).ToStatus();
    if (!st.ok()) return StatusResp(st);
    ++stats_.parity_deltas;
  }
  Status st = SendShardOrError(g.parity_shard, LaneRecordWrite(g, info.lane, lane)).ToStatus();
  if (!st.ok()) return StatusResp(st);
  lane_cache_[info.gid] = lane;
  ++stats_.degraded_writes;
  NoteDegradedMutation(info);
  RpcResponse ok_resp;
  if (req.op == RpcOp::kAppend) ok_resp.value = lane.size;
  return ok_resp;
}

// ---------------------------------------------------------------------------
// Partition table (array-level)
// ---------------------------------------------------------------------------

Result<Bytes> ShardRouter::ReadGid(ObjectId gid, uint64_t offset, uint64_t length,
                                   std::optional<SimTime> at) {
  const ShardMap::GidInfo* info = map_.Find(gid);
  if (info == nullptr) {
    return Status::NotFound("unknown object id");
  }
  bool direct = Readable(info->shard);
  if (direct && at.has_value() && *at < rebuilt_since_[info->shard]) {
    direct = false;  // the spare holds no pre-rebuild history
  }
  if (direct) {
    RpcRequest read = AdminRequest(RpcOp::kRead, info->backend);
    read.offset = offset;
    read.length = length;  // the drive stops at EOF
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
    std::optional<SimTime> at) {
  S4_ASSIGN_OR_RETURN(Bytes raw, ReadGid(kFirstUserObjectId, 0, ~uint64_t{0}, at));
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
  RpcRequest w = AdminRequest(RpcOp::kWrite, kFirstUserObjectId);
  w.data = enc.Take();
  SubPlan plan = PlanSub(std::move(w), ctx);
  Drain(ctx);
  return ResolvePlan(plan, ctx).ToStatus();
}

RpcResponse ShardRouter::PartitionOp(const RpcRequest& req, BatchCtx& ctx) {
  switch (req.op) {
    case RpcOp::kPList: {
      auto table = PTabLoad(req.at);
      if (!table.ok()) return StatusResp(table.status());
      RpcResponse r;
      r.partitions = std::move(*table);
      return r;
    }
    case RpcOp::kPMount: {
      auto table = PTabLoad(req.at);
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
      auto table = PTabLoad(std::nullopt);
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
      auto table = PTabLoad(std::nullopt);
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
  if (req.sync) {
    // The op, then the array's Sync fan queued behind it: the same shard
    // envelopes as a batch of {op, Sync}.
    req.sync = false;
    RpcRequest sync;
    sync.op = RpcOp::kSync;
    sync.creds = req.creds;
    SubPlan plan = PlanSub(std::move(req), ctx);
    plan.fan = PlanSub(std::move(sync), ctx).fan;
    return plan;
  }
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
            // Rides the parity shard's envelope, ahead of the lane record. A
            // failure or an unexpected id leaves the group unprotected until
            // repair or rebuild (FlushShard counts it).
            Enqueue(ctx, a.parity_shard, AdminRequest(RpcOp::kCreate), /*maint=*/true,
                    a.parity_backend);
          } else {
            ++stats_.parity_skips;
            if (state_[a.parity_shard] == ShardState::kRebuilding && rebuild_ != nullptr) {
              rebuild_->NoteDirtyParity(a.group);
            }
          }
        }
        QueueParityDelta(ctx, *map_.Find(a.gid), ParityDelta{}, lane);
      }
      plan.resp.value = a.gid;
      return plan;
    }

    case RpcOp::kSync: {
      // Every held delta settles first, so each parity shard's Sync covers it.
      if (!ctx.held.empty()) {
        FlushAll(ctx);
        Settle(ctx);
      }
      plan.kind = SubPlan::kSyncFan;
      for (uint32_t s = 0; s < eps_.size(); ++s) {
        if (!Healthy(s)) continue;  // a rebuilding spare is synced per tick
        if (map_dirty_) {
          Enqueue(ctx, s, MapWrite(), /*maint=*/true);
        }
        RpcRequest sync;
        sync.op = RpcOp::kSync;
        sync.creds = req.creds;
        size_t idx = Enqueue(ctx, s, std::move(sync), /*maint=*/false);
        plan.fan.emplace_back(s, idx);
      }
      map_dirty_ = false;
      return plan;
    }

    case RpcOp::kFlush:
    case RpcOp::kSetWindow: {
      Drain(ctx);
      Status merged = Status::Ok();
      SimClock::FanOut fan(clock_);
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
      Drain(ctx);
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
    // queues and held deltas must drain first to preserve op order.
    Drain(ctx);
    plan.resp = DegradedOp(req, *info);
    return plan;
  }
  // Queues `req` on the data shard, translating the object id and keeping
  // the caller's creds.
  auto route = [&](RpcRequest sub) {
    sub.object = info->backend;
    plan.kind = SubPlan::kDirect;
    plan.shard = s;
    plan.idx = Enqueue(ctx, s, std::move(sub), /*maint=*/false);
  };

  switch (req.op) {
    case RpcOp::kRead:
    case RpcOp::kGetAttr:
    case RpcOp::kGetAclByUser:
    case RpcOp::kGetAclByIndex:
    case RpcOp::kGetVersionList:
    case RpcOp::kFlushObject:
    case RpcOp::kSetAcl: {
      // Pure routing. (SetAcl has no parity mirror: degraded mode
      // authenticates owners only, a documented §13 limitation.)
      route(std::move(req));
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
  Result<LaneImage> lane = EnsureLane(req.object);
  if (!lane.ok()) {
    plan.resp = StatusResp(lane.status());
    return plan;
  }
  const ObjectId gid = req.object;
  // This op plans on the image of any op still held on `gid`, and their
  // lane records carry its image (Settle writes the newest).
  bool shared = false;
  for (HeldDelta& h : ctx.held) {
    if (h.gid == gid) h.shared = shared = true;
  }
  if (!lane->live) {
    // A deleted object does not change: its data shard audits the attempt
    // and refuses it, so parity needs no delta, lane record or repair.
    route(std::move(req));
    return plan;
  }
  Result<ParityDelta> delta = MutationDelta(req, &*lane);
  if (!delta.ok()) {
    plan.resp = StatusResp(delta.status());
    return plan;
  }
  lane_cache_[gid] = std::move(*lane);
  plan.gid = gid;
  // With parity down no delta is sent, so nothing is read.
  const bool parity_live = info->group >= 0 && Healthy(map_.group(info->group).parity_shard);
  if (!parity_live || delta->old_length == 0) {
    // The delta rides the op's own fan; a failed op repairs the group.
    route(std::move(req));
    plan.repair_group = parity_live ? info->group : -1;
    QueueParityDelta(ctx, *info, std::move(*delta), lane_cache_[gid]);
    return plan;
  }
  // The old bytes are read in the op's envelope, directly ahead of it; the
  // delta waits for both (Settle).
  RpcRequest read = AdminRequest(RpcOp::kRead, info->backend);
  read.offset = delta->offset;
  read.length = delta->old_length;
  HeldDelta held;
  held.gid = gid;
  held.shard = s;
  held.read_idx = Enqueue(ctx, s, std::move(read), /*maint=*/false);
  route(std::move(req));
  held.op_idx = plan.idx;
  held.delta = std::move(*delta);
  held.shared = shared;
  ctx.held.push_back(std::move(held));
  return plan;
}

RpcResponse ShardRouter::ResolvePlan(SubPlan& plan, BatchCtx& ctx) {
  RpcResponse r;
  switch (plan.kind) {
    case SubPlan::kImmediate:
      r = std::move(plan.resp);
      break;
    case SubPlan::kDirect:
      S4_CHECK(plan.shard < ctx.results.size() && plan.idx < ctx.results[plan.shard].size());
      r = ctx.results[plan.shard][plan.idx];
      if (!r.ok()) {
        // The data sub-op failed (e.g. an ACL denial mid-batch). If its parity
        // delta went out with it, the group is recomputed from the members'
        // actual contents once the batch is done, so parity never drifts.
        if (plan.gid != 0) lane_cache_.erase(plan.gid);
        if (plan.repair_group >= 0) ctx.stale_groups.insert(plan.repair_group);
      }
      break;
    case SubPlan::kSyncFan:
      break;
  }
  // The Sync fan, a Sync's own or the one a sync-flagged op queued: its first
  // failure, unless the op already failed.
  for (const auto& f : plan.fan) {
    if (!r.ok()) break;
    S4_CHECK(f.first < ctx.results.size() && f.second < ctx.results[f.first].size());
    const RpcResponse& synced = ctx.results[f.first][f.second];
    if (!synced.ok()) r = StatusResp(synced.ToStatus());
  }
  return r;
}

Result<RpcResponse> ShardRouter::Call(RpcRequest req) {
  if (req.link) {
    // As a drive rejects a single frame with the flag.
    return ErrorResp(ErrorCode::kInvalidArgument, "rpc link flag outside a batch");
  }
  req.creds = creds_;
  BatchCtx ctx;
  SubPlan plan = PlanSub(std::move(req), ctx);
  Drain(ctx);
  RpcResponse resp = ResolvePlan(plan, ctx);
  RepairStaleGroups(ctx);
  return resp;
}

Result<std::vector<RpcResponse>> ShardRouter::CallBatch(std::vector<RpcRequest> reqs) {
  if (reqs.empty()) {
    return Status::InvalidArgument("empty batch");
  }
  S4_RETURN_IF_ERROR(CheckBatchLinks(reqs));
  BatchCtx ctx;
  std::vector<SubPlan> plans;
  plans.reserve(reqs.size());
  for (RpcRequest& req : reqs) {
    req.creds = creds_;
    if (req.link) {
      // A Create's response is known once planned, so its id is forwarded
      // with no flush, and the append shares the batch's one fan. Anything
      // else is flushed and resolved first; the flush also settles its held
      // delta, which then rides the append's fan. A skipped append is never
      // sent.
      SubPlan& prev = plans.back();
      if (prev.kind != SubPlan::kImmediate || !prev.fan.empty()) {
        FlushAll(ctx);
        Settle(ctx);
        SubPlan resolved;
        resolved.resp = ResolvePlan(prev, ctx);
        prev = std::move(resolved);
      }
      if (Status skipped = ResolveLink(prev.resp, &req); !skipped.ok()) {
        SubPlan plan;
        plan.resp = StatusResp(skipped);
        plans.push_back(std::move(plan));
        continue;
      }
    }
    plans.push_back(PlanSub(std::move(req), ctx));
  }
  Drain(ctx);
  std::vector<RpcResponse> out;
  out.reserve(plans.size());
  for (SubPlan& plan : plans) {
    out.push_back(ResolvePlan(plan, ctx));
  }
  RepairStaleGroups(ctx);
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
  busy_until_.push_back(0);
  S4_RETURN_IF_ERROR(CreateMapObject(n));
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
  SimClock::FanOut fan(clock_);
  for (uint32_t s = 0; s < eps_.size(); ++s) {
    if (state_[s] == ShardState::kDead) continue;
    S4Drive* d = eps_[s].drive;
    if (!d->CleanerNeeded()) continue;
    Status st = fan.Run([&] {
      return clock_->Occupy(&busy_until_[s], [&] { return d->RunCleanerPass(2).status(); });
    });
    S4_RETURN_IF_ERROR(st);
  }
  return Status::Ok();
}

}  // namespace s4
