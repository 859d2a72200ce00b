// S4Drive core: format, mount, crash recovery, checkpointing, caching, and
// the audit plumbing. The data-path operations live in drive_ops.cc, history
// reconstruction in drive_history.cc, and the cleaner in drive_cleaner.cc.
#include "src/drive/s4_drive.h"

#include <algorithm>
#include <functional>
#include <optional>

#include "src/util/check.h"
#include "src/util/crc32.h"
#include "src/util/logging.h"

namespace s4 {

namespace {

// Estimated resident cost of a cached object, for the object cache budget.
uint64_t CachedObjectCostImpl(uint64_t blocks, uint64_t pending, uint64_t opaque,
                              uint64_t acl_entries) {
  return 128 + blocks * 24 + pending * 96 + opaque + acl_entries * 8;
}

}  // namespace

const char* DriveOpSpanName(RpcOp op) {
  switch (op) {
    case RpcOp::kInvalid:
      return "drive.Invalid";
    case RpcOp::kCreate:
      return "drive.Create";
    case RpcOp::kDelete:
      return "drive.Delete";
    case RpcOp::kRead:
      return "drive.Read";
    case RpcOp::kWrite:
      return "drive.Write";
    case RpcOp::kAppend:
      return "drive.Append";
    case RpcOp::kTruncate:
      return "drive.Truncate";
    case RpcOp::kGetAttr:
      return "drive.GetAttr";
    case RpcOp::kSetAttr:
      return "drive.SetAttr";
    case RpcOp::kGetAclByUser:
      return "drive.GetACLByUser";
    case RpcOp::kGetAclByIndex:
      return "drive.GetACLByIndex";
    case RpcOp::kSetAcl:
      return "drive.SetACL";
    case RpcOp::kPCreate:
      return "drive.PCreate";
    case RpcOp::kPDelete:
      return "drive.PDelete";
    case RpcOp::kPList:
      return "drive.PList";
    case RpcOp::kPMount:
      return "drive.PMount";
    case RpcOp::kSync:
      return "drive.Sync";
    case RpcOp::kFlush:
      return "drive.Flush";
    case RpcOp::kFlushObject:
      return "drive.FlushO";
    case RpcOp::kSetWindow:
      return "drive.SetWindow";
    case RpcOp::kGetVersionList:
      return "drive.GetVersionList";
    case RpcOp::kBatch:
      return "drive.Batch";
    case RpcOp::kAuditChallenge:
      return "drive.AuditChallenge";
    case RpcOp::kXorWrite:
      return "drive.XorWrite";
  }
  return "drive.Unknown";
}

S4Drive::S4Drive(BlockDevice* device, SimClock* clock, S4DriveOptions options)
    : device_(device), clock_(clock), options_(options),
      detection_window_(options.detection_window) {
  InitMetrics();
  audit_codec_.set_chained(options_.audit_chain);
}

S4Drive::~S4Drive() = default;

void S4Drive::InitMetrics() {
  m_.ops_total = metrics_.GetCounter("drive.ops_total");
  m_.ops_denied = metrics_.GetCounter("drive.ops_denied");
  m_.time_based_reads = metrics_.GetCounter("drive.time_based_reads");
  m_.journal_entries = metrics_.GetCounter("drive.journal_entries");
  m_.journal_sectors_written = metrics_.GetCounter("drive.journal_sectors_written");
  m_.inode_checkpoints = metrics_.GetCounter("drive.inode_checkpoints");
  m_.data_blocks_written = metrics_.GetCounter("drive.data_blocks_written");
  m_.data_sectors_written = metrics_.GetCounter("drive.data_sectors_written");
  m_.device_checkpoints = metrics_.GetCounter("drive.device_checkpoints");
  m_.audit_records = metrics_.GetCounter("audit.records");
  m_.audit_blocks_written = metrics_.GetCounter("audit.blocks_written");
  m_.audit_sectors_written = metrics_.GetCounter("audit.sectors_written");
  m_.audit_chain_breaks = metrics_.GetCounter("audit.chain_breaks");
  m_.audit_clean_tail_truncations = metrics_.GetCounter("audit.clean_tail_truncations");
  m_.audit_records_dropped = metrics_.GetCounter("audit.records_dropped");
  m_.audit_marker_writes = metrics_.GetCounter("audit.marker_writes");
  m_.cleaner_passes = metrics_.GetCounter("cleaner.passes");
  m_.cleaner_segments_reclaimed = metrics_.GetCounter("cleaner.segments_reclaimed");
  m_.cleaner_segments_compacted = metrics_.GetCounter("cleaner.segments_compacted");
  m_.cleaner_sectors_expired = metrics_.GetCounter("cleaner.sectors_expired");
  m_.cleaner_sectors_copied = metrics_.GetCounter("cleaner.sectors_copied");
  m_.cleaner_time_us = metrics_.GetCounter("cleaner.time_us");
  m_.throttle_delays = metrics_.GetCounter("throttle.delays");
  m_.throttle_rejects = metrics_.GetCounter("throttle.rejects");
  m_.versions_purged = metrics_.GetCounter("history.versions_purged");
  m_.history_walks = metrics_.GetCounter("history.reconstruction_walks");
  m_.history_walk_sectors = metrics_.GetCounter("history.walk_sectors_read");
  m_.history_waypoint_seeks = metrics_.GetCounter("history.waypoint_seeks");
  m_.history_forward_walks = metrics_.GetCounter("history.forward_reconstructions");
  m_.jsector_cache_hits = metrics_.GetCounter("cache.jsector.hits");
  m_.jsector_cache_misses = metrics_.GetCounter("cache.jsector.misses");
  m_.cleaner_walk_sectors = metrics_.GetCounter("cleaner.walk_sectors_read");
  m_.cleaner_segments_swept = metrics_.GetCounter("cleaner.segments_swept");
  m_.cleaner_sweep_sectors_read = metrics_.GetCounter("cleaner.sweep_sectors_read");
  m_.cleaner_sweep_time_us = metrics_.GetCounter("cleaner.sweep_time_us");
  m_.cleaner_sweep_damage = metrics_.GetCounter("cleaner.sweep_damage");
  m_.cleaner_checkpoint_decode_errors =
      metrics_.GetCounter("cleaner.checkpoint_decode_errors");
  m_.recovery_clean_mounts = metrics_.GetCounter("recovery.clean_mounts");
  m_.recovery_segments_scanned = metrics_.GetCounter("recovery.segments_scanned");
  m_.recovery_segments_skipped = metrics_.GetCounter("recovery.segments_skipped");
  m_.recovery_superblock_votes = metrics_.GetCounter("recovery.superblock_votes");
  m_.recovery_superblocks_healed = metrics_.GetCounter("recovery.stale_superblocks_healed");
  m_.recovery_chunks_replayed = metrics_.GetCounter("recovery.chunks_replayed");
  m_.rpc_rejected_frames = metrics_.GetCounter("rpc.rejected_frames");
  m_.rpc_batches = metrics_.GetCounter("rpc.batches");
  m_.rpc_batched_sub_ops = metrics_.GetCounter("rpc.batched_sub_ops");
  m_.walk_sectors = metrics_.GetHistogram("history.walk_sectors");
  for (int op = 0; op <= kMaxRpcOp; ++op) {
    m_.op_latency[op] = metrics_.GetHistogram(
        std::string("drive.op.") + RpcOpName(static_cast<RpcOp>(op)) + ".latency");
  }
}

OpContext S4Drive::MakeContext(const Credentials& creds, RpcOp op) {
  OpContext ctx;
  ctx.request_id = tracer_.NextRequestId();
  ctx.creds = creds;
  ctx.op = op;
  ctx.start_time = clock_->Now();
  ctx.clock = clock_;
  ctx.tracer = &tracer_;
  return ctx;
}

Status S4Drive::BeginOp(OpContext& ctx, const OpArgs& args) {
  m_.ops_total->Inc();
  ChargeCpu(&ctx);
  if (args.time_based && args.op == RpcOp::kRead) {
    m_.time_based_reads->Inc();
  }
  if (args.admin_only && !IsAdmin(ctx.creds)) {
    return Status::PermissionDenied(std::string(RpcOpName(args.op)) +
                                    " requires administrative access");
  }
  if (args.admission_bytes > 0) {
    S4_RETURN_IF_ERROR(ThrottleCheck(ctx.creds, args.admission_bytes));
  }
  return Status::Ok();
}

void S4Drive::EndOp(OpContext& ctx, const OpArgs& args, const Status& result,
                    SimTime op_start) {
  if (result.code() == ErrorCode::kPermissionDenied) {
    m_.ops_denied->Inc();
  }
  Audit(ctx.creds, args.op, args.object, args.offset, args.length, result, args.time_based);
  m_.op_latency[static_cast<uint8_t>(args.op)]->Record(clock_->Now() - op_start);
}

void S4Drive::AuditRejectedFrame(OpContext& ctx, const Status& reason) {
  m_.ops_total->Inc();
  m_.rpc_rejected_frames->Inc();
  ChargeCpu(&ctx);
  Audit(ctx.creds, RpcOp::kInvalid, kInvalidObjectId, 0, 0, reason, false);
  m_.op_latency[0]->Record(clock_->Now() - ctx.start_time);
}

void S4Drive::AuditSkippedOp(OpContext& ctx, RpcOp op, ObjectId id, const Status& reason) {
  m_.ops_total->Inc();
  m_.ops_denied->Inc();
  ChargeCpu(&ctx);
  Audit(ctx.creds, op, id, 0, 0, reason, false);
}

void S4Drive::AuditBatchFrame(OpContext& ctx, uint64_t sub_ops, SimTime batch_start) {
  m_.rpc_batches->Inc();
  m_.rpc_batched_sub_ops->Add(sub_ops);
  Audit(ctx.creds, RpcOp::kBatch, kInvalidObjectId, 0, sub_ops, Status::Ok(), false);
  m_.op_latency[static_cast<uint8_t>(RpcOp::kBatch)]->Record(clock_->Now() - batch_start);
}

Result<std::unique_ptr<S4Drive>> S4Drive::Format(BlockDevice* device, SimClock* clock,
                                                 S4DriveOptions options) {
  std::unique_ptr<S4Drive> drive(new S4Drive(device, clock, options));
  S4_RETURN_IF_ERROR(drive->DoFormat());
  return drive;
}

Result<std::unique_ptr<S4Drive>> S4Drive::Mount(BlockDevice* device, SimClock* clock,
                                                S4DriveOptions options) {
  std::unique_ptr<S4Drive> drive(new S4Drive(device, clock, options));
  S4_RETURN_IF_ERROR(drive->DoMount());
  return drive;
}

Status S4Drive::DoFormat() {
  uint64_t total = device_->sector_count();
  // Checkpoint regions scale with the disk: object map + SUT must fit.
  uint32_t cp_sectors = static_cast<uint32_t>(std::max<uint64_t>(2048, total / 128));
  // Carry the epoch across reformats: a surviving replica of a previous
  // layout must never outvote the fresh one.
  uint64_t base_epoch = 0;
  {
    Bytes sector;
    if (device_->Read(0, 1, &sector).ok()) {
      auto old_sb = Superblock::Decode(sector);
      if (old_sb.ok()) {
        base_epoch = old_sb->epoch;
      }
    }
  }
  sb_ = Superblock();
  sb_.total_sectors = total;
  sb_.segment_sectors = options_.segment_sectors;
  sb_.checkpoint_a = 1;
  sb_.checkpoint_b = 1 + cp_sectors;
  sb_.checkpoint_sectors = cp_sectors;
  // Two dedicated sectors (A/B by marker generation parity) for the audit
  // commit marker, between the checkpoint regions and the segment area.
  sb_.audit_marker_a = 1 + 2ull * cp_sectors;
  sb_.audit_marker_b = sb_.audit_marker_a + 1;
  sb_.first_segment = sb_.audit_marker_b + 1;
  // Superblock replicas: the tail copy takes the device's last sector; the
  // mid-disk copy punches a one-sector hole at the would-be start of segment
  // mid_seg (the first segment boundary at or past the disk midpoint),
  // shifting every later segment by one sector. Both locations are
  // re-derivable at mount: the tail from geometry alone, the mid from the
  // fields of any valid copy.
  sb_.sb_tail = total - 1;
  uint64_t mid = total / 2;
  if (mid > sb_.first_segment && mid + 1 < sb_.sb_tail) {
    sb_.mid_seg = static_cast<SegmentId>((mid - sb_.first_segment +
                                          options_.segment_sectors - 1) /
                                         options_.segment_sectors);
    sb_.sb_mid = sb_.first_segment +
                 static_cast<uint64_t>(sb_.mid_seg) * options_.segment_sectors;
    if (sb_.sb_mid + 1 >= sb_.sb_tail) {
      sb_.sb_mid = 0;  // too little room past the midpoint: two copies only
      sb_.mid_seg = 0;
    }
  }
  // Count the segments that fit below the tail replica, hole included.
  sb_.segment_count = 0;
  while (sb_.SegmentStart(sb_.segment_count) + options_.segment_sectors <= sb_.sb_tail) {
    ++sb_.segment_count;
  }
  if (sb_.segment_count == 0) {
    return Status::InvalidArgument("device too small for S4 layout");
  }
  sb_.epoch = base_epoch;  // WriteSuperblockReplicas bumps to base_epoch + 1

  S4_RETURN_IF_ERROR(WriteSuperblockReplicas(/*clean=*/false, /*clean_seq=*/0));

  sut_ = std::make_unique<SegmentUsageTable>(sb_.segment_count, sb_.segment_sectors);
  writer_ = std::make_unique<SegmentWriter>(device_, &sb_, sut_.get(), clock_, /*next_seq=*/1);
  block_cache_ = std::make_unique<BlockCache>(device_, options_.block_cache_bytes, &metrics_);
  object_cache_ =
      std::make_unique<LruCache<ObjectId, ObjectHandle>>(options_.object_cache_bytes);
  object_cache_->set_evict_fn([this](const ObjectId& id, ObjectHandle&& obj) {
    Status s = EvictObject(id, std::move(obj));
    if (!s.ok() && eviction_error_.ok()) {
      eviction_error_ = s;
    }
  });

  S4_RETURN_IF_ERROR(InitReservedObjects());
  // Nothing is written before this instant, so the sweep has nothing to read
  // until the format time leaves the window.
  sweep_ = LogPosition{writer_->next_seq()};
  sweep_read_ = sweep_;
  sweep_time_ = clock_->Now();
  return WriteCheckpoint();
}

Status S4Drive::InitReservedObjects() {
  SimTime now = clock_->Now();
  // The audit log: a reserved object only the drive front end writes. It is
  // not user-writable and not versioned (section 4.2.3).
  {
    ObjectMapEntry e;
    e.create_time = now;
    object_map_.Put(kAuditLogObjectId, e);
    auto obj = std::make_shared<CachedObject>();
    obj->inode.id = kAuditLogObjectId;
    obj->inode.attrs.create_time = now;
    obj->inode.attrs.modify_time = now;
    obj->dirty = true;
    object_cache_->Put(kAuditLogObjectId, obj, CachedObjectCostImpl(0, 0, 0, 0));
  }
  // The partition (named object) table: versioned like any other object.
  {
    ObjectMapEntry e;
    e.create_time = now;
    object_map_.Put(kPartitionTableObjectId, e);
    auto obj = std::make_shared<CachedObject>();
    obj->inode.id = kPartitionTableObjectId;
    obj->inode.attrs.create_time = now;
    obj->inode.attrs.modify_time = now;
    obj->inode.acl.push_back(AclEntry{kEveryoneUserId, kPermRead});
    obj->dirty = true;
    object_cache_->Put(kPartitionTableObjectId, obj, CachedObjectCostImpl(0, 0, 0, 1));
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Device checkpoint
// ---------------------------------------------------------------------------

Result<Bytes> S4Drive::EncodeDeviceCheckpoint() const {
  Encoder enc(1 << 16);
  enc.PutU32(kCheckpointMagic);
  enc.PutU64(checkpoint_generation_);
  enc.PutU64(writer_->next_seq());
  enc.PutI64(detection_window_);
  object_map_.EncodeTo(&enc);
  sut_->EncodeTo(&enc);
  enc.PutVarint(sweep_.seq);
  enc.PutVarint(sweep_.segment);
  enc.PutVarint(sweep_.offset);
  enc.PutI64(sweep_time_);
  enc.PutVarint(purged_.size());
  for (const auto& [id, ranges] : purged_) {
    enc.PutVarint(id);
    enc.PutVarint(ranges.size());
    for (const auto& r : ranges) {
      enc.PutI64(r.from);
      enc.PutI64(r.to);
    }
  }
  // Audit chain state at checkpoint time. Serves as a second committed-size
  // floor at mount: destroying both marker sectors cannot shrink the audited
  // prefix below what the checkpoint vouches for.
  enc.PutVarint(audit_appended_state_.next_seq);
  enc.PutVarint(audit_appended_state_.next_offset);
  enc.PutU32(audit_appended_state_.link);
  Bytes out = enc.Take();
  size_t body = out.size();
  size_t total = ((body + 12 + kSectorSize - 1) / kSectorSize) * kSectorSize;
  if (total > static_cast<size_t>(sb_.checkpoint_sectors) * kSectorSize) {
    return Status::OutOfSpace("device checkpoint exceeds checkpoint region");
  }
  Encoder framed(total);
  framed.PutU64(body);
  framed.PutBytes(out);
  Bytes framed_bytes = framed.Take();
  framed_bytes.resize(total - 4, 0);
  uint32_t crc = Crc32c(framed_bytes);
  Encoder tail;
  tail.PutU32(crc);
  framed_bytes.insert(framed_bytes.end(), tail.bytes().begin(), tail.bytes().end());
  return framed_bytes;
}

Status S4Drive::SyncAuditTail() {
  S4_RETURN_IF_ERROR(FlushAllPending(/*force_audit=*/true));
  return writer_->Flush(actx());
}

Status S4Drive::CommitAuditTail() {
  S4_RETURN_IF_ERROR(SyncAuditTail());
  return WriteAuditMarker();
}

Status S4Drive::WriteCheckpoint() {
  S4_RETURN_IF_ERROR(CommitAuditTail());

  ++checkpoint_generation_;
  S4_ASSIGN_OR_RETURN(Bytes blob, EncodeDeviceCheckpoint());
  DiskAddr region = (checkpoint_generation_ % 2 == 0) ? sb_.checkpoint_a : sb_.checkpoint_b;
  S4_RETURN_IF_ERROR(device_->Write(region, blob, actx()));
  checkpoint_seq_ = writer_->next_seq();
  bytes_since_checkpoint_ = 0;
  m_.device_checkpoints->Inc();

  // Segments fully expired by the cleaner become allocatable only now: any
  // recovery from this point on starts from a checkpoint that already knows
  // they are empty, so stale chunks inside them can never be replayed.
  for (SegmentId seg = 0; seg < sut_->segment_count(); ++seg) {
    if (sut_->Reclaimable(seg)) {
      sut_->Reclaim(seg);
      m_.cleaner_segments_reclaimed->Inc();
    }
  }
  return Status::Ok();
}

Status S4Drive::LoadDeviceCheckpoint() {
  auto try_region = [&](DiskAddr region) -> Result<std::pair<uint64_t, Bytes>> {
    Bytes head;
    S4_RETURN_IF_ERROR(device_->Read(region, 1, &head));
    Decoder dec(head);
    S4_ASSIGN_OR_RETURN(uint64_t body, dec.U64());
    uint64_t total = ((body + 12 + kSectorSize - 1) / kSectorSize) * kSectorSize;
    if (total > static_cast<uint64_t>(sb_.checkpoint_sectors) * kSectorSize) {
      return Status::DataCorruption("checkpoint length invalid");
    }
    Bytes blob;
    S4_RETURN_IF_ERROR(device_->Read(region, total / kSectorSize, &blob));
    uint32_t stored_crc;
    {
      Decoder crc_dec(ByteSpan(blob).subspan(blob.size() - 4));
      S4_ASSIGN_OR_RETURN(stored_crc, crc_dec.U32());
    }
    if (Crc32c(ByteSpan(blob).subspan(0, blob.size() - 4)) != stored_crc) {
      return Status::DataCorruption("checkpoint crc mismatch");
    }
    Decoder body_dec(ByteSpan(blob).subspan(8, body));
    S4_ASSIGN_OR_RETURN(uint32_t magic, body_dec.U32());
    if (magic != kCheckpointMagic) {
      return Status::DataCorruption("checkpoint bad magic");
    }
    S4_ASSIGN_OR_RETURN(uint64_t generation, body_dec.U64());
    return std::make_pair(generation, Bytes(blob.begin() + 8, blob.begin() + 8 + body));
  };

  auto a = try_region(sb_.checkpoint_a);
  auto b = try_region(sb_.checkpoint_b);
  const Bytes* chosen = nullptr;
  uint64_t generation = 0;
  if (a.ok() && (!b.ok() || a->first >= b->first)) {
    chosen = &a->second;
    generation = a->first;
  } else if (b.ok()) {
    chosen = &b->second;
    generation = b->first;
  } else {
    return Status::DataCorruption("no valid device checkpoint");
  }

  Decoder dec(*chosen);
  S4_RETURN_IF_ERROR(dec.Skip(4 + 8));  // magic + generation
  S4_ASSIGN_OR_RETURN(uint64_t next_seq, dec.U64());
  S4_ASSIGN_OR_RETURN(detection_window_, dec.I64());
  S4_ASSIGN_OR_RETURN(object_map_, ObjectMap::DecodeFrom(&dec));
  S4_ASSIGN_OR_RETURN(SegmentUsageTable sut, SegmentUsageTable::DecodeFrom(&dec));
  sut_ = std::make_unique<SegmentUsageTable>(std::move(sut));
  S4_ASSIGN_OR_RETURN(sweep_.seq, dec.Varint());
  S4_ASSIGN_OR_RETURN(uint64_t sweep_segment, dec.Varint());
  S4_ASSIGN_OR_RETURN(uint64_t sweep_offset, dec.Varint());
  S4_ASSIGN_OR_RETURN(sweep_time_, dec.I64());
  sweep_.segment = static_cast<SegmentId>(sweep_segment);
  sweep_.offset = static_cast<uint32_t>(sweep_offset);
  sweep_read_ = sweep_;
  S4_ASSIGN_OR_RETURN(uint64_t npurged, dec.Varint());
  purged_.clear();
  for (uint64_t i = 0; i < npurged; ++i) {
    S4_ASSIGN_OR_RETURN(uint64_t id, dec.Varint());
    S4_ASSIGN_OR_RETURN(uint64_t nranges, dec.Varint());
    std::vector<PurgedRange> ranges;
    for (uint64_t k = 0; k < nranges; ++k) {
      PurgedRange r;
      S4_ASSIGN_OR_RETURN(r.from, dec.I64());
      S4_ASSIGN_OR_RETURN(r.to, dec.I64());
      ranges.push_back(r);
    }
    purged_[id] = std::move(ranges);
  }
  ckpt_chain_state_ = AuditChainState();
  if (!dec.done()) {
    S4_ASSIGN_OR_RETURN(ckpt_chain_state_.next_seq, dec.Varint());
    S4_ASSIGN_OR_RETURN(ckpt_chain_state_.next_offset, dec.Varint());
    S4_ASSIGN_OR_RETURN(ckpt_chain_state_.link, dec.U32());
  }
  checkpoint_generation_ = generation;
  checkpoint_seq_ = next_seq;
  // Mirror the reclaim WriteCheckpoint performs right after encoding: the
  // live drive freed every checkpointed-reclaimable segment the moment this
  // checkpoint landed, and may then have reused them. Loading them as kFull
  // would hide any post-checkpoint chunks inside them from roll-forward, and
  // would desynchronise the free-segment enumeration from the allocation
  // order the writer actually followed.
  for (SegmentId seg = 0; seg < sut_->segment_count(); ++seg) {
    if (sut_->Reclaimable(seg)) {
      sut_->Reclaim(seg);
    }
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Mount & crash recovery
// ---------------------------------------------------------------------------

Status S4Drive::WriteSuperblockReplicas(bool clean, uint64_t clean_seq) {
  // Every replica write is a new epoch: the vote at mount must be able to
  // tell a copy from this write apart from one a crash left behind.
  sb_.epoch += 1;
  sb_.clean = clean ? 1 : 0;
  sb_.clean_seq = clean ? clean_seq : 0;
  Bytes img = sb_.Encode();
  S4_RETURN_IF_ERROR(device_->Write(0, img, actx()));
  if (sb_.sb_mid != 0) {
    S4_RETURN_IF_ERROR(device_->Write(sb_.sb_mid, img, actx()));
  }
  if (sb_.sb_tail != 0) {
    S4_RETURN_IF_ERROR(device_->Write(sb_.sb_tail, img, actx()));
  }
  return Status::Ok();
}

Status S4Drive::LoadSuperblockQuorum(bool* clean) {
  struct Copy {
    DiskAddr addr;
    std::optional<Superblock> sb;
  };
  auto read_copy = [&](DiskAddr addr) -> std::optional<Superblock> {
    Bytes sector;
    if (!device_->Read(addr, 1, &sector).ok()) {
      return std::nullopt;
    }
    auto sb = Superblock::Decode(sector);
    if (!sb.ok()) {
      return std::nullopt;
    }
    return *sb;
  };
  // Sector 0 and the device tail are derivable from geometry alone. The
  // mid-disk replica's address is a layout decision, so it can only be
  // learned from a copy already read — if both outer copies are torn, the
  // mid copy is unreachable, which is fine: the quorum tolerates one torn
  // copy, not two.
  uint64_t total = device_->sector_count();
  std::vector<Copy> copies;
  copies.push_back({0, read_copy(0)});
  if (total > 1) {
    copies.push_back({total - 1, read_copy(total - 1)});
  }
  DiskAddr mid = 0;
  for (const auto& c : copies) {
    if (c.sb.has_value() && c.sb->sb_mid != 0) {
      mid = c.sb->sb_mid;
      break;
    }
  }
  if (mid != 0 && mid != total - 1) {
    copies.push_back({mid, read_copy(mid)});
  }

  // Vote: every copy is self-certifying (CRC), so the highest epoch among the
  // valid ones is the newest state any completed replica write produced.
  const Superblock* winner = nullptr;
  uint64_t valid = 0;
  for (const auto& c : copies) {
    if (!c.sb.has_value()) {
      continue;
    }
    ++valid;
    if (winner == nullptr || c.sb->epoch > winner->epoch) {
      winner = &*c.sb;
    }
  }
  if (winner == nullptr) {
    return Status::DataCorruption("no valid superblock replica");
  }
  m_.recovery_superblock_votes->Add(valid);
  sb_ = *winner;

  // Heal copies the winner outvoted (torn or stale), at the addresses the
  // winner itself declares — never at locations a dead layout named, and
  // never on a pre-replica volume (sb_tail == 0), whose tail sector is
  // segment space. Healing runs even for a clean winner: every later
  // replica-write round (dirty re-mark, clean unmount) bumps the epoch and
  // writes sector 0 first, so starting a round with a torn tail risks a cut
  // leaving BOTH outer copies torn — and the mid copy, whose address only an
  // outer copy can reveal, unreachable. Heal writes carry the winner's exact
  // image, so a cut mid-heal just leaves the same copy torn for the retry.
  // Sector 0 is rewritten first in every round, so it can be torn but never
  // stale while others are newer; healing in declared order therefore fixes
  // the (at most one) torn copy before any write that could tear another.
  if (sb_.sb_tail != 0) {
    std::vector<DiskAddr> declared = {0, sb_.sb_tail};
    if (sb_.sb_mid != 0) {
      declared.push_back(sb_.sb_mid);
    }
    Bytes img = sb_.Encode();
    for (DiskAddr addr : declared) {
      bool current = false;
      for (const auto& c : copies) {
        if (c.addr == addr && c.sb.has_value() && c.sb->epoch == sb_.epoch) {
          current = true;
          break;
        }
      }
      if (current) {
        continue;
      }
      m_.recovery_superblocks_healed->Inc();
      S4_RETURN_IF_ERROR(device_->Write(addr, img, actx()));
    }
  }
  *clean = sb_.clean != 0;
  return Status::Ok();
}

Status S4Drive::ResumeWriterFromCheckpoint() {
  // A checkpoint stores at most one active segment (the writer fills one at a
  // time); written_sectors is its exact on-disk fill, because every pending
  // record is flushed before the checkpoint encodes the table.
  for (SegmentId seg = 0; seg < sut_->segment_count(); ++seg) {
    if (sut_->Info(seg).state == SegmentState::kActive) {
      writer_->Resume(seg, sut_->Info(seg).written_sectors);
      return Status::Ok();
    }
  }
  return Status::Ok();
}

Status S4Drive::DoMount() {
  OpContext mount_ctx;
  mount_ctx.request_id = tracer_.NextRequestId();
  mount_ctx.clock = clock_;
  mount_ctx.tracer = &tracer_;

  bool clean = false;
  {
    ScopedSpan span(&mount_ctx, "mount.superblock_vote");
    S4_RETURN_IF_ERROR(LoadSuperblockQuorum(&clean));
  }
  {
    ScopedSpan span(&mount_ctx, "mount.checkpoint_load");
    S4_RETURN_IF_ERROR(LoadDeviceCheckpoint());
  }

  block_cache_ = std::make_unique<BlockCache>(device_, options_.block_cache_bytes, &metrics_);
  object_cache_ =
      std::make_unique<LruCache<ObjectId, ObjectHandle>>(options_.object_cache_bytes);
  object_cache_->set_evict_fn([this](const ObjectId& id, ObjectHandle&& obj) {
    Status s = EvictObject(id, std::move(obj));
    if (!s.ok() && eviction_error_.ok()) {
      eviction_error_ = s;
    }
  });
  writer_ = std::make_unique<SegmentWriter>(device_, &sb_, sut_.get(), clock_, checkpoint_seq_);

  const bool fast_path = clean && sb_.clean_seq == checkpoint_seq_;
  if (fast_path) {
    // Clean unmount vouched for this exact checkpoint: the log holds nothing
    // newer, so the scan has nothing to find. O(checkpoint), not O(journal).
    m_.recovery_clean_mounts->Inc();
    m_.recovery_segments_skipped->Add(sut_->segment_count());
    S4_RETURN_IF_ERROR(ResumeWriterFromCheckpoint());
  } else {
    S4_RETURN_IF_ERROR(RollForward(checkpoint_seq_, &mount_ctx));
  }

  // Mark the volume dirty before anything can touch the log (the audit-chain
  // pass below may trim a torn tail): a crash from here on must roll forward.
  if (sb_.clean != 0) {
    S4_RETURN_IF_ERROR(WriteSuperblockReplicas(/*clean=*/false, /*clean_seq=*/0));
  }

  // The audit sweep runs on BOTH paths, clean mounts included. The chronicle
  // is tamper evidence: a byte flipped offline in a committed frame changes
  // neither the object size nor any marker, so only re-hashing the chain can
  // catch it. Its cost is O(audit log), proportional to operation count —
  // not to the journal bytes the skipped log scan would have read.
  ScopedSpan span(&mount_ctx, "mount.audit_verify");
  return VerifyAuditChainAtMount();
}

Status S4Drive::RollForward(uint64_t checkpoint_seq, OpContext* ctx) {
  // Candidate segments — the only ones that can hold post-checkpoint chunks:
  //
  //   1. The checkpoint-time active segment (at most one), which the writer
  //      may have kept filling past its checkpointed fill.
  //   2. Free segments, in round-robin order from the persisted allocation
  //      hint. Between checkpoints the free set only shrinks, and it shrinks
  //      exactly in Allocate()'s round-robin order, so the allocations the
  //      crashed writer performed are a prefix of that enumeration.
  //
  // Everything else was sealed at (or reclaimed before) the checkpoint and
  // cannot have been written since. The free-segment chain ends at the first
  // candidate with no fresh chunk: a rollover flushes the pending tail into
  // the old segment before sealing it, so every allocated segment except
  // possibly the newest holds at least one flushed chunk.
  struct SegmentScan {
    SegmentId seg = kNullSegment;
    uint32_t start = 0;                // checkpointed fill (scan starts here)
    std::vector<ScannedChunk> chunks;  // fresh chunks only (seq >= checkpoint)
    uint32_t fill_sectors = 0;         // on-disk fill = start + fresh sectors
  };
  auto scan_one = [&](SegmentScan* s) -> Status {
    SegmentScanOptions opts;
    opts.start_offset = s->start;
    opts.min_seq = checkpoint_seq;
    S4_ASSIGN_OR_RETURN(s->chunks, ScanSegment(device_, sb_, s->seg, opts));
    uint32_t fill = s->start;
    for (const auto& chunk : s->chunks) {
      uint32_t sectors = 1;
      for (const auto& r : chunk.records) {
        sectors += r.sectors;
      }
      fill += sectors;
    }
    s->fill_sectors = fill;
    return Status::Ok();
  };

  std::vector<SegmentScan> actives;
  std::vector<SegmentId> free_order;
  {
    uint32_t n = sut_->segment_count();
    for (SegmentId seg = 0; seg < n; ++seg) {
      if (sut_->Info(seg).state == SegmentState::kActive) {
        SegmentScan s;
        s.seg = seg;
        s.start = sut_->Info(seg).written_sectors;
        actives.push_back(std::move(s));
      }
    }
    SegmentId hint = sut_->next_alloc_hint();
    for (uint32_t i = 0; i < n; ++i) {
      SegmentId seg = (hint + i) % n;
      if (sut_->Info(seg).state == SegmentState::kFree) {
        free_order.push_back(seg);
      }
    }
  }

  std::vector<SegmentScan> scans;  // non-empty scans, for replay and resume
  uint64_t scanned = 0;
  {
    ScopedSpan span(ctx, "mount.scan");
    // The checkpoint-time active(s) are scanned unconditionally — a rollover
    // with an empty pending queue seals the old active without planting a
    // chunk in its successor, so "active yielded nothing" must not end the
    // chain.
    for (auto& s : actives) {
      S4_RETURN_IF_ERROR(scan_one(&s));
      ++scanned;
      if (!s.chunks.empty()) {
        scans.push_back(s);  // copy: `actives` also feeds the resume fallback
      }
    }
    // The free chain, serially in allocation order, up to the first segment
    // with no fresh chunk. One disk arm serves every candidate, so segments
    // are read back to back rather than interleaved, and nothing past the
    // end of the chain is read.
    for (SegmentId seg : free_order) {
      SegmentScan s;
      s.seg = seg;
      S4_RETURN_IF_ERROR(scan_one(&s));
      ++scanned;
      if (s.chunks.empty()) {
        break;
      }
      scans.push_back(std::move(s));
    }
  }
  m_.recovery_segments_scanned->Add(scanned);
  if (sut_->segment_count() > scanned) {
    m_.recovery_segments_skipped->Add(sut_->segment_count() - scanned);
  }

  // Gather fresh chunks in global seq order. The scans above only return
  // chunks at or past the checkpoint seq, so everything here replays.
  std::vector<const ScannedChunk*> fresh;
  for (const auto& scan : scans) {
    for (const auto& chunk : scan.chunks) {
      fresh.push_back(&chunk);
    }
  }
  std::sort(fresh.begin(), fresh.end(),
            [](const ScannedChunk* a, const ScannedChunk* b) { return a->seq < b->seq; });
  m_.recovery_chunks_replayed->Add(fresh.size());
  ScopedSpan replay_span(ctx, "mount.replay");

  // Replay. Objects touched post-checkpoint are materialised as LoadObject
  // would (inode checkpoint plus the chain the checkpointed map references)
  // and mutated forward so deletes can account their blocks. The replay keeps
  // its own map so recovery never depends on the object cache.
  std::map<ObjectId, std::shared_ptr<CachedObject>> rebuilt;

  uint64_t max_seq = checkpoint_seq > 0 ? checkpoint_seq - 1 : 0;
  for (const ScannedChunk* chunk : fresh) {
    max_seq = std::max(max_seq, chunk->seq);
    SegmentId seg = chunk->segment;
    if (sut_->Info(seg).state == SegmentState::kFree) {
      sut_->SetState(seg, SegmentState::kActive);
    }
    sut_->AddChunk(seg, chunk->seq);
    for (const auto& rec : chunk->records) {
      sut_->AddWritten(seg, rec.sectors);
      if (rec.kind != RecordKind::kJournal) {
        continue;  // accounted when a journal entry references it
      }
      sut_->AddLive(seg, 1);
      // The scan captured the journal sector's bytes while it had the
      // segment in hand; decode in memory rather than seeking back to it.
      Bytes raw = rec.raw;
      if (raw.empty()) {
        S4_RETURN_IF_ERROR(device_->Read(rec.addr, 1, &raw));
      }
      S4_ASSIGN_OR_RETURN(JournalSector sector, JournalSector::Decode(raw));
      ObjectId id = sector.object_id;
      ObjectMapEntry* entry = object_map_.Find(id);
      for (const auto& e : sector.entries) {
        if (e.type == JournalEntryType::kCreate) {
          ObjectMapEntry fresh_entry;
          fresh_entry.create_time = e.time;
          object_map_.Put(id, fresh_entry);
          object_map_.ReserveThrough(id);
          entry = object_map_.Find(id);
          auto obj = std::make_shared<CachedObject>();
          obj->inode.id = id;
          rebuilt[id] = obj;
        }
        if (entry == nullptr) {
          return Status::DataCorruption("journal entry for unknown object");
        }
        std::shared_ptr<CachedObject>& obj = rebuilt[id];
        if (obj == nullptr) {
          S4_ASSIGN_OR_RETURN(obj, MaterializeObject(id, *entry));
        }
        // Count live what the writer counted when it appended the records
        // this entry names: its new blocks, and a checkpoint not yet
        // installed (a kDelete entry names the one its kCheckpoint entry
        // already installed). The rest is the entry's own effect.
        for (const auto& d : e.blocks) {
          if (d.new_addr != kNullAddr) {
            sut_->AddLive(sb_.SegmentOf(d.new_addr), DataRecordSectors(e.new_size, d.block_index));
          }
        }
        if (e.checkpoint_addr != kNullAddr && e.checkpoint_addr != entry->checkpoint_addr) {
          sut_->AddLive(sb_.SegmentOf(e.checkpoint_addr), e.checkpoint_sectors);
        }
        ApplyEntry(id, obj.get(), e);
      }
      if (sector.prev == kNullAddr && entry->journal_head != kNullAddr) {
        // A fresh chain: after the checkpoint, a sweep freed this object's
        // whole chain, so its barrier had reached the old head's newest
        // entry. Restore that barrier (and prune the waypoints under it), or a
        // read below it would walk the truncated chain and return a newer
        // version. The old head cannot have been reused: reuse needs a
        // device checkpoint.
        S4_ASSIGN_OR_RETURN(std::shared_ptr<const JournalSector> old_head,
                            ReadJournalSector(entry->journal_head, nullptr));
        if (old_head != nullptr && old_head->object_id == id && !old_head->entries.empty()) {
          entry->history_barrier =
              std::max(entry->history_barrier, old_head->entries.back().time);
          entry->PruneWaypoints(entry->history_barrier);
        }
      }
      entry->journal_head = rec.addr;
      // Rebuild the waypoint cadence exactly as FlushObjectJournal laid it
      // down: sectors_since_waypoint was checkpointed, and post-checkpoint
      // sectors are re-noted here in append order, so recovery converges on
      // the same waypoints the crashed drive had (modulo never-flushed ones).
      if (!sector.entries.empty()) {
        entry->NoteJournalSector(sector.entries.back().time, rec.addr,
                                 options_.waypoint_interval_sectors);
      }
    }
  }

  // Resume the writer in the segment holding the newest chunk; with no fresh
  // chunk anywhere, fall back to the checkpointed active at its checkpointed
  // fill. Every other active seals: the writer moved past it before the
  // crash, or it was abandoned by a recovery this one supersedes.
  writer_ = std::make_unique<SegmentWriter>(device_, &sb_, sut_.get(), clock_, max_seq + 1);
  SegmentId resume_seg = kNullSegment;
  uint32_t resume_fill = 0;
  uint64_t best_seq = 0;
  for (const auto& scan : scans) {
    uint64_t seg_max = scan.chunks.back().seq;
    if (seg_max >= best_seq) {
      best_seq = seg_max;
      resume_seg = scan.seg;
      resume_fill = scan.fill_sectors;
    }
  }
  if (resume_seg == kNullSegment && !actives.empty()) {
    resume_seg = actives.front().seg;
    resume_fill = actives.front().start;
  }
  for (SegmentId seg = 0; seg < sut_->segment_count(); ++seg) {
    if (seg != resume_seg && sut_->Info(seg).state == SegmentState::kActive) {
      sut_->SetState(seg, SegmentState::kFull);
    }
  }
  if (resume_seg != kNullSegment) {
    if (sut_->Info(resume_seg).state != SegmentState::kActive) {
      sut_->SetState(resume_seg, SegmentState::kActive);
    }
    writer_->Resume(resume_seg, resume_fill);
  }

  // The replay just reconstructed every object the fresh journal touched —
  // the same state LoadObject would rebuild by walking the object's journal
  // chain backward, one clustered read per link. Seed the cache so the
  // audit-chain sweep and first post-mount accesses start warm instead of
  // re-paying that walk (on a long-crashed volume the audit log's chain is
  // one link per sync since the last checkpoint).
  for (auto& [id, obj] : rebuilt) {
    const ObjectMapEntry* entry = object_map_.Find(id);
    if (entry == nullptr) {
      continue;
    }
    obj->exists = entry->live();
    obj->inode.id = id;
    object_cache_->Put(id, obj,
                       CachedObjectCostImpl(obj->inode.blocks.size(), obj->pending.size(),
                                            obj->inode.attrs.opaque.size(),
                                            obj->inode.acl.size()));
  }
  return Status::Ok();
}

void S4Drive::ApplyEntryForward(Inode* inode, bool* exists, const JournalEntry& e) {
  switch (e.type) {
    case JournalEntryType::kCreate: {
      Decoder acl_dec(e.old_blob);
      auto acl = DecodeAcl(&acl_dec);
      if (acl.ok()) {
        inode->acl = *acl;
      }
      inode->attrs.opaque = e.new_blob;
      inode->attrs.create_time = e.time;
      inode->attrs.modify_time = e.time;
      *exists = true;
      break;
    }
    case JournalEntryType::kWrite:
    case JournalEntryType::kTruncate:
      inode->attrs.size = e.new_size;
      inode->attrs.modify_time = e.time;
      for (const auto& d : e.blocks) {
        if (d.new_addr == kNullAddr) {
          inode->blocks.erase(d.block_index);
        } else {
          inode->blocks[d.block_index] = d.new_addr;
        }
      }
      break;
    case JournalEntryType::kSetAttr:
      inode->attrs.opaque = e.new_blob;
      inode->attrs.modify_time = e.time;
      break;
    case JournalEntryType::kSetAcl: {
      Decoder acl_dec(e.new_blob);
      auto acl = DecodeAcl(&acl_dec);
      if (acl.ok()) {
        inode->acl = *acl;
      }
      break;
    }
    case JournalEntryType::kDelete:
      *exists = false;
      break;
    case JournalEntryType::kCheckpoint:
      break;
    case JournalEntryType::kMove:  // not a version: size and modify time stay
      for (const auto& d : e.blocks) {
        if (auto it = inode->blocks.find(d.block_index);
            it != inode->blocks.end() && it->second == d.old_addr) {
          it->second = d.new_addr;
        }
      }
      break;
  }
}

void S4Drive::ApplyEntry(ObjectId id, CachedObject* obj, const JournalEntry& e) {
  // A move is not a version: its old copy is freed, never kept as history.
  const bool move = e.type == JournalEntryType::kMove;
  const bool history = ObjectIsVersioned(id) && !move;
  for (const auto& d : e.blocks) {
    if (d.old_addr != kNullAddr) {
      SupersedeBlock(d.old_addr, DataRecordSectors(e.old_size, d.block_index), history);
    }
  }
  // Only these three touch the map entry; a write does not pay for the map
  // lookup.
  if (e.type == JournalEntryType::kCheckpoint || e.type == JournalEntryType::kDelete || move) {
    ObjectMapEntry* entry = object_map_.Find(id);
    S4_CHECK(entry != nullptr);
    if (move) {
      entry->move_time = e.time;
    }
    if (e.checkpoint_addr != kNullAddr && e.checkpoint_addr != entry->checkpoint_addr) {
      // Versions are rebuilt from the current state plus undo entries, never
      // from an old checkpoint, so the one this replaces is released. The
      // delete-time checkpoint is never replaced.
      if (entry->checkpoint_addr != kNullAddr) {
        ReleaseSectors(entry->checkpoint_addr, entry->checkpoint_sectors, /*history=*/false);
      }
      entry->checkpoint_addr = e.checkpoint_addr;
      entry->checkpoint_sectors = e.checkpoint_sectors;
      entry->checkpoint_time = e.time;
    }
    if (e.type == JournalEntryType::kDelete) {
      for (const auto& [index, addr] : obj->inode.blocks) {
        SupersedeBlock(addr, DataRecordSectors(obj->inode.attrs.size, index), history);
      }
      entry->delete_time = e.time;
    }
  }
  ApplyEntryForward(&obj->inode, &obj->exists, e);
}

void S4Drive::SupersedeBlock(DiskAddr old_addr, uint32_t sectors, bool history) {
  if (history) {
    sut_->LiveToHistory(sb_.SegmentOf(old_addr), sectors);
    // History is read only by time-based recovery: it must never push
    // current data out of the cache.
    block_cache_->Demote(old_addr);
  } else {
    ReleaseSectors(old_addr, sectors, /*history=*/false);
  }
}

// ---------------------------------------------------------------------------
// Object cache and journal/checkpoint plumbing
// ---------------------------------------------------------------------------

void S4Drive::ChargeCpu(OpContext* ctx) {
  clock_->Advance(kCpuPerOp);
  if (ctx != nullptr) {
    ctx->cpu_time += kCpuPerOp;
  }
}

bool S4Drive::ObjectIsVersioned(ObjectId id) const {
  if (id == kAuditLogObjectId) {
    return false;
  }
  return options_.versioning_enabled;
}

Result<Bytes> S4Drive::ReadRecord(DiskAddr addr, uint32_t sectors) {
  Bytes out;
  S4_ASSIGN_OR_RETURN(bool pending, writer_->ReadPending(addr, sectors, &out));
  if (!pending) {
    S4_RETURN_IF_ERROR(block_cache_->Read(addr, sectors, &out, actx()));
  }
  return out;
}

void S4Drive::ReleaseSectors(DiskAddr addr, uint32_t sectors, bool history) {
  SegmentId seg = sb_.SegmentOf(addr);
  if (history) {
    sut_->ReleaseHistory(seg, sectors);
  } else {
    sut_->ReleaseLive(seg, sectors);
  }
  block_cache_->Invalidate(addr);
  jsector_cache_.Remove(addr);
}

Result<std::shared_ptr<const JournalSector>> S4Drive::ReadJournalSector(
    DiskAddr addr, uint64_t* sectors_visited) {
  if (sectors_visited != nullptr) {
    ++*sectors_visited;
  }
  if (auto* cached = jsector_cache_.Get(addr); cached != nullptr) {
    m_.jsector_cache_hits->Inc();
    return *cached;
  }
  m_.jsector_cache_misses->Inc();
  Bytes raw;
  S4_ASSIGN_OR_RETURN(bool pending, writer_->ReadPending(addr, 1, &raw));
  if (!pending) {
    S4_RETURN_IF_ERROR(block_cache_->ReadUncached(addr, 1, &raw, actx()));
  }
  auto decoded = JournalSector::Decode(raw);
  if (!decoded.ok()) {
    // Not an error to the walker: the chain crossed into reclaimed (possibly
    // reused) territory. Device read failures above DID propagate.
    return std::shared_ptr<const JournalSector>();
  }
  auto sector = std::make_shared<const JournalSector>(*std::move(decoded));
  jsector_cache_.Put(addr, sector, kSectorSize);
  return sector;
}

Result<S4Drive::ObjectHandle> S4Drive::LoadObject(ObjectId id) {
  if (ObjectHandle* cached = object_cache_->Get(id); cached != nullptr) {
    return *cached;
  }
  const ObjectMapEntry* entry = object_map_.Find(id);
  if (entry == nullptr) {
    return Status::NotFound("no such object");
  }
  S4_ASSIGN_OR_RETURN(ObjectHandle obj, MaterializeObject(id, *entry));
  object_cache_->Put(id, obj,
                     CachedObjectCostImpl(obj->inode.blocks.size(), obj->pending.size(),
                                          obj->inode.attrs.opaque.size(), obj->inode.acl.size()));
  return obj;
}

Result<S4Drive::ObjectHandle> S4Drive::MaterializeObject(ObjectId id,
                                                         const ObjectMapEntry& entry) {
  auto obj = std::make_shared<CachedObject>();
  if (entry.checkpoint_addr != kNullAddr) {
    S4_ASSIGN_OR_RETURN(Bytes record, ReadRecord(entry.checkpoint_addr,
                                                 entry.checkpoint_sectors));
    S4_ASSIGN_OR_RETURN(obj->inode, Inode::DecodeCheckpoint(record));
  }
  // Replay, oldest first, the entries logged after the kCheckpoint entry
  // that installed the checkpoint: one at its own instant may follow it.
  std::vector<std::shared_ptr<const JournalSector>> sectors;
  size_t first = 0;  // the replay's start in the oldest sector collected
  DiskAddr addr = entry.journal_head;
  while (addr != kNullAddr) {
    S4_ASSIGN_OR_RETURN(std::shared_ptr<const JournalSector> sector,
                        ReadJournalSector(addr, nullptr));
    if (sector == nullptr || sector->object_id != id) {
      break;  // chain crossed the history barrier into reclaimed space
    }
    sectors.push_back(sector);
    const std::vector<JournalEntry>& es = sector->entries;
    auto installed = std::find_if(es.rbegin(), es.rend(), [&](const JournalEntry& e) {
      return e.type == JournalEntryType::kCheckpoint && e.checkpoint_addr == entry.checkpoint_addr;
    });
    if (installed != es.rend()) {
      first = static_cast<size_t>(installed.base() - es.begin());
      break;
    }
    if (!es.empty() && es.front().time <= entry.history_barrier) {
      break;
    }
    addr = sector->prev;
  }
  bool exists = true;  // the replay's liveness is unused: the map entry decides
  for (auto it = sectors.rbegin(); it != sectors.rend(); ++it) {
    const std::vector<JournalEntry>& es = (*it)->entries;
    for (size_t i = it == sectors.rbegin() ? first : 0; i < es.size(); ++i) {
      ApplyEntryForward(&obj->inode, &exists, es[i]);
    }
  }
  obj->inode.id = id;
  obj->exists = entry.live();
  return obj;
}

Status S4Drive::EvictObject(ObjectId id, ObjectHandle obj) {
  S4_RETURN_IF_ERROR(FlushObjectJournal(id, obj.get()));
  if (obj->dirty) {
    S4_RETURN_IF_ERROR(CheckpointObject(id, obj.get()));
  }
  return Status::Ok();
}

Status S4Drive::LogEntry(ObjectId id, CachedObject* obj, JournalEntry e, bool last) {
  ApplyEntry(id, obj, e);
  obj->pending.push_back(std::move(e));
  m_.journal_entries->Inc();
  pending_dirty_.insert(id);
  obj->dirty = true;
  if (last && obj->pending.size() >= options_.journal_flush_entries) {
    return FlushObjectJournal(id, obj);
  }
  return Status::Ok();
}

Status S4Drive::FlushObjectJournal(ObjectId id, CachedObject* obj) {
  if (obj->pending.empty()) {
    return Status::Ok();
  }
  ObjectMapEntry* entry = object_map_.Find(id);
  S4_CHECK(entry != nullptr);
  S4_ASSIGN_OR_RETURN(PackedJournal packed,
                      PackJournalEntries(id, entry->journal_head, obj->pending));
  DiskAddr head = entry->journal_head;
  for (auto& sector : packed.sectors) {
    sector.prev = head;
    S4_ASSIGN_OR_RETURN(Bytes encoded, sector.Encode());
    S4_ASSIGN_OR_RETURN(DiskAddr addr,
                        writer_->Append(RecordKind::kJournal, id, 0, encoded, actx()));
    if (!sector.entries.empty()) {
      entry->NoteJournalSector(sector.entries.back().time, addr,
                               options_.waypoint_interval_sectors);
    }
    // Warm-insert the decoded form where history walks will read it: recent
    // sectors of versioned objects (the common diagnosis case). The audit
    // log's one sector per Sync would only push those out.
    if (ObjectIsVersioned(id)) {
      jsector_cache_.Put(addr, std::make_shared<const JournalSector>(std::move(sector)),
                         kSectorSize);
    }
    head = addr;
    m_.journal_sectors_written->Inc();
  }
  entry->journal_head = head;
  obj->pending.clear();
  pending_dirty_.erase(id);
  return Status::Ok();
}

Status S4Drive::CheckpointObject(ObjectId id, CachedObject* obj) {
  S4_RETURN_IF_ERROR(FlushObjectJournal(id, obj));
  Bytes record = obj->inode.EncodeCheckpoint();
  uint32_t sectors = static_cast<uint32_t>(record.size() / kSectorSize);
  S4_ASSIGN_OR_RETURN(DiskAddr addr,
                      writer_->Append(RecordKind::kInodeCheckpoint, id, 0, record, actx()));
  block_cache_->Insert(addr, std::move(record));

  // Journal the checkpoint location so chain replay knows where to restart;
  // applying the entry installs it.
  JournalEntry cp;
  cp.type = JournalEntryType::kCheckpoint;
  cp.time = clock_->Now();
  cp.checkpoint_addr = addr;
  cp.checkpoint_sectors = sectors;
  S4_RETURN_IF_ERROR(LogEntry(id, obj, std::move(cp)));
  S4_RETURN_IF_ERROR(FlushObjectJournal(id, obj));
  obj->dirty = false;
  m_.inode_checkpoints->Inc();
  return Status::Ok();
}

Status S4Drive::FlushAllPending(bool force_audit) {
  // Audit records first: their append creates journal entries on the audit
  // object that must be part of this flush. Unless forced (device checkpoint
  // or unmount), sub-block audit tails stay buffered so audit writes
  // piggyback on normal segment writes in whole blocks (section 4.2.3).
  S4_RETURN_IF_ERROR(AppendAuditBuffered(force_audit));
  // Pack the pending journal entries of every dirty object. (Eviction
  // flushes as well, so a dirty id may already be gone from the cache.)
  std::vector<ObjectId> dirty(pending_dirty_.begin(), pending_dirty_.end());
  for (ObjectId id : dirty) {
    if (ObjectHandle* obj = object_cache_->Peek(id); obj != nullptr) {
      S4_RETURN_IF_ERROR(FlushObjectJournal(id, obj->get()));
    } else {
      pending_dirty_.erase(id);
    }
  }
  // A sticky eviction failure is NOT consumed here: internal callers (device
  // checkpoint, cleaner) would silently swallow it. It stays set until the
  // next client Sync surfaces it.
  return Status::Ok();
}

Status S4Drive::MaybeAutoCheckpoint() {
  if (bytes_since_checkpoint_ >= options_.checkpoint_interval_bytes) {
    return WriteCheckpoint();
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Audit plumbing
// ---------------------------------------------------------------------------

void S4Drive::Audit(const Credentials& creds, RpcOp op, ObjectId id, uint64_t offset,
                    uint64_t length, const Status& result, bool time_based) {
  if (!options_.audit_enabled) {
    return;
  }
  AuditRecord rec;
  rec.time = clock_->Now();
  rec.client = creds.client;
  rec.user = creds.user;
  rec.op = op;
  rec.object = id;
  rec.offset = offset;
  rec.length = length;
  rec.result = static_cast<uint8_t>(result.code());
  rec.time_based = time_based;
  audit_codec_.Buffer(rec);
  m_.audit_records->Inc();
  // Whole blocks of audit data ride along with normal segment writes.
  if (audit_codec_.buffered_bytes() >= kBlockSize) {
    Status s = AppendAuditBuffered(/*force=*/false);
    if (!s.ok()) {
      S4_LOG(kWarning) << "audit append failed: " << s.ToString();
    }
  }
}

Status S4Drive::WriteAuditMarker() {
  if (!options_.audit_enabled || !audit_codec_.chained() || sb_.audit_marker_a == 0) {
    return Status::Ok();
  }
  if (audit_marker_.generation > 0 &&
      audit_marker_.committed_size == audit_appended_state_.next_offset) {
    return Status::Ok();  // nothing new became durable since the last marker
  }
  AuditCommitMarker next;
  next.generation = audit_marker_.generation + 1;
  next.committed_size = audit_appended_state_.next_offset;
  next.chain_seq = audit_appended_state_.next_seq;
  next.chain_link = audit_appended_state_.link;
  // A/B by generation parity: a torn marker write can only hit the sector the
  // previous good marker is NOT in.
  DiskAddr sector = (next.generation % 2 == 1) ? sb_.audit_marker_a : sb_.audit_marker_b;
  S4_RETURN_IF_ERROR(device_->Write(sector, next.EncodeSector(), actx()));
  audit_marker_ = next;
  m_.audit_marker_writes->Inc();
  return Status::Ok();
}

Status S4Drive::LoadAuditMarker() {
  audit_marker_ = AuditCommitMarker();
  if (sb_.audit_marker_a == 0) {
    return Status::Ok();  // pre-chain volume: no marker sectors
  }
  for (DiskAddr addr : {sb_.audit_marker_a, sb_.audit_marker_b}) {
    Bytes raw;
    Status read = device_->Read(addr, 1, &raw);
    if (!read.ok()) {
      continue;  // unreadable sector: the sibling may still hold a marker
    }
    auto marker = AuditCommitMarker::DecodeSector(raw);
    if (marker.ok() && marker->generation > audit_marker_.generation) {
      audit_marker_ = *marker;
    }
  }
  return Status::Ok();
}

Status S4Drive::VerifyAuditChainAtMount() {
  if (!options_.audit_enabled || !options_.audit_chain) {
    return Status::Ok();
  }
  S4_RETURN_IF_ERROR(LoadAuditMarker());
  S4_ASSIGN_OR_RETURN(ObjectHandle obj, LoadObject(kAuditLogObjectId));
  const uint64_t raw_size = obj->inode.attrs.size;
  S4_ASSIGN_OR_RETURN(Bytes raw, ReadCurrent(*obj, 0, raw_size));
  // Committed floor: the marker's vouched size OR the chain offset recorded
  // in the device checkpoint, whichever is larger. An attacker who destroys
  // both marker sectors still cannot pass off a truncated chain as a torn
  // tail below what the checkpoint saw.
  const uint64_t committed =
      std::max(audit_marker_.committed_size, ckpt_chain_state_.next_offset);
  AuditChainScan scan = ScanChain(raw, 0, AuditChainState(), committed, nullptr);
  AuditChainState state = scan.end_state;
  switch (scan.verdict) {
    case AuditVerdict::kOk:
      break;
    case AuditVerdict::kCleanTail:
      // A torn flush the crash ate: trim it so future appends stay contiguous
      // with the verified prefix.
      m_.audit_clean_tail_truncations->Inc();
      S4_LOG(kInfo) << "audit chain: trimming torn tail, " << scan.detail;
      S4_RETURN_IF_ERROR(TrimAuditObject(state.next_offset));
      break;
    case AuditVerdict::kCorrupted:
      m_.audit_chain_breaks->Inc();
      audit_chain_broken_ = true;
      S4_LOG(kError) << "audit chain BREAK (tampering or bit-rot): " << scan.detail;
      // Preserve the evidence: keep the damaged bytes on disk and append new
      // frames after them. The chain stays reported-broken until an
      // administrator resolves it.
      state.next_offset = raw_size;
      break;
  }
  // Cross-check the marker against the chain state observed at its boundary:
  // a marker that vouches for a size the chain reaches with a different
  // (seq, link) is itself evidence of tampering.
  if (scan.verdict != AuditVerdict::kCorrupted && audit_marker_.generation > 0 &&
      committed == audit_marker_.committed_size && scan.commit_state_seen &&
      (scan.commit_state.next_seq != audit_marker_.chain_seq ||
       scan.commit_state.link != audit_marker_.chain_link)) {
    m_.audit_chain_breaks->Inc();
    audit_chain_broken_ = true;
    S4_LOG(kError) << "audit chain BREAK: commit marker disagrees with chain state at "
                   << audit_marker_.committed_size;
  }
  audit_codec_.ResetChain(state);
  audit_appended_state_ = state;
  return Status::Ok();
}

Status S4Drive::CheckAccess(const CachedObject& obj, const Credentials& creds,
                            uint8_t needed) const {
  if (IsAdmin(creds)) {
    return Status::Ok();
  }
  if (!AclAllows(obj.inode.acl, creds, needed)) {
    return Status::PermissionDenied("acl denies access");
  }
  return Status::Ok();
}

bool S4Drive::IsAdmin(const Credentials& creds) const {
  return creds.admin_key != 0 && creds.admin_key == options_.admin_key;
}

double S4Drive::SpaceUtilization() const {
  return 1.0 - static_cast<double>(sut_->FreeOrReclaimableSegments()) / sut_->segment_count();
}

uint64_t S4Drive::HistoryPoolBytes() const {
  return sut_->HistorySectorsTotal() * kSectorSize;
}

uint64_t S4Drive::LiveBytes() const { return sut_->LiveSectorsTotal() * kSectorSize; }

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

Result<std::vector<DiskAddr>> S4Drive::DebugObjectBlockAddrs(ObjectId id) {
  S4_ASSIGN_OR_RETURN(ObjectHandle obj, LoadObject(id));
  std::vector<DiskAddr> out;
  for (const auto& [index, addr] : obj->inode.blocks) {
    (void)index;
    if (addr != kNullAddr) {
      out.push_back(addr);
    }
  }
  return out;
}

std::optional<ObjectMapEntry> S4Drive::DebugObjectEntry(ObjectId id) const {
  const ObjectMapEntry* e = object_map_.Find(id);
  if (e == nullptr) {
    return std::nullopt;
  }
  return *e;
}

Status S4Drive::VerifyObjectWaypoints(ObjectId id) {
  const ObjectMapEntry* entry = object_map_.Find(id);
  if (entry == nullptr) {
    return Status::NotFound("no such object");
  }
  SimTime prev_time = entry->history_barrier;
  for (const JournalWaypoint& w : entry->waypoints) {
    if (w.time <= prev_time) {
      return Status::DataCorruption("waypoint times must ascend strictly above the barrier");
    }
    prev_time = w.time;
  }
  if (entry->waypoints.empty()) {
    return Status::Ok();
  }
  if (entry->journal_head == kNullAddr) {
    return Status::DataCorruption("waypoints without a journal chain");
  }
  // Walk the on-disk chain newest-to-oldest; waypoints (kept oldest-first)
  // must appear in back-to-front order, each at its recorded address with its
  // recorded newest-entry time.
  size_t next = entry->waypoints.size();
  DiskAddr addr = entry->journal_head;
  while (addr != kNullAddr && next > 0) {
    S4_ASSIGN_OR_RETURN(std::shared_ptr<const JournalSector> sector,
                        ReadJournalSector(addr, nullptr));
    if (sector == nullptr || sector->object_id != id) {
      break;
    }
    if (!sector->entries.empty() && sector->entries.back().time <= entry->history_barrier) {
      break;
    }
    const JournalWaypoint& w = entry->waypoints[next - 1];
    if (addr == w.addr) {
      if (sector->entries.empty() || sector->entries.back().time != w.time) {
        return Status::DataCorruption("waypoint time does not match its sector");
      }
      --next;
    }
    if (!sector->entries.empty() && sector->entries.front().time <= entry->history_barrier) {
      break;
    }
    addr = sector->prev;
  }
  if (next > 0) {
    return Status::DataCorruption("waypoint sector not reachable from journal_head");
  }
  return Status::Ok();
}

Status S4Drive::VerifyAllWaypoints() {
  for (const auto& [id, entry] : object_map_.entries()) {
    (void)entry;
    S4_RETURN_IF_ERROR(VerifyObjectWaypoints(id));
  }
  return Status::Ok();
}

Status S4Drive::Unmount() {
  // Append the buffered audit tail before the cache drains: eviction writes
  // each dirty object's inode checkpoint, and the audit object's checkpoint
  // must already cover the final records. Appending after would journal them
  // at the same SimTime as the checkpoint, and replay-at-mount skips entries
  // at or before the checkpoint time.
  S4_RETURN_IF_ERROR(FlushAllPending(/*force_audit=*/true));
  object_cache_->Clear();
  S4_RETURN_IF_ERROR(WriteCheckpoint());
  // The clean mark, recording the checkpoint it vouches for. A crash between
  // the checkpoint and here just leaves the volume dirty — the next mount
  // rolls forward and finds an empty delta.
  S4_RETURN_IF_ERROR(WriteSuperblockReplicas(/*clean=*/true, checkpoint_seq_));
  if (!eviction_error_.ok()) {
    Status err = eviction_error_;
    eviction_error_ = Status::Ok();
    return err;
  }
  return Status::Ok();
}

}  // namespace s4
