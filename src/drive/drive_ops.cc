// S4Drive data path: the Table 1 object, partition, and device operations.
//
// Every op here is a thin Execute() body: the shared prologue (op count, CPU
// charge, admin gate, throttle) and epilogue (denial count, audit record,
// latency histogram) live in BeginOp/EndOp in s4_drive.cc. Bodies mutate the
// OpArgs audit fields as the op learns them (e.g. the resolved append
// offset), so the audit record describes what actually happened.
//
// Every mutation is a journal entry queued by LogEntry (s4_drive.cc), which
// applies it with the ApplyEntry that roll-forward uses too. Data blocks are
// appended only by WriteBlocks, the one block path (compaction's copies are
// kMove entries through it); with CheckpointObject it is one of the two
// places a record is appended and inserted into the block cache.
#include <algorithm>
#include <cstring>

#include "src/drive/s4_drive.h"
#include "src/util/check.h"

namespace s4 {

namespace {

// Caps that keep every journal entry within a single journal sector.
constexpr size_t kMaxOpaqueAttrBytes = 200;
constexpr size_t kMaxAclEntries = 40;
constexpr size_t kMaxPartitionName = 255;

// One challenge/response round returns at most this many proof bytes; the
// auditor iterates until it catches up to the drive's claimed chain end.
constexpr uint64_t kMaxChallengeRoundBytes = 1ull << 20;

}  // namespace

// ---------------------------------------------------------------------------
// Object operations
// ---------------------------------------------------------------------------

Result<ObjectId> S4Drive::Create(OpContext& ctx, Bytes opaque_attrs) {
  OpArgs a{RpcOp::kCreate};
  a.length = opaque_attrs.size();
  return Execute(ctx, a, [&](OpArgs& args) -> Result<ObjectId> {
    if (opaque_attrs.size() > kMaxOpaqueAttrBytes) {
      return Status::InvalidArgument("opaque attrs too large");
    }
    SimTime now = clock_->Now();
    ObjectId id = object_map_.AllocateId();
    ObjectMapEntry entry;
    entry.create_time = now;
    object_map_.Put(id, entry);

    auto obj = std::make_shared<CachedObject>();
    obj->inode.id = id;
    object_cache_->Put(id, obj, 256);
    args.object = id;
    args.length = 0;

    JournalEntry e;
    e.type = JournalEntryType::kCreate;
    e.time = now;
    Encoder acl_enc;
    EncodeAcl(Acl{AclEntry{ctx.creds.user, kPermAll}}, &acl_enc);
    e.old_blob = acl_enc.Take();
    e.new_blob = std::move(opaque_attrs);
    S4_RETURN_IF_ERROR(LogEntry(id, obj.get(), std::move(e)));
    return id;
  });
}

Result<ObjectId> S4Drive::Create(const Credentials& creds, Bytes opaque_attrs) {
  OpContext ctx = MakeContext(creds, RpcOp::kCreate);
  return Create(ctx, std::move(opaque_attrs));
}

Result<S4Drive::ObjectHandle> S4Drive::ResolveForWrite(const Credentials& creds, ObjectId id,
                                                       uint8_t needed) {
  if (id == kAuditLogObjectId || id == kPartitionTableObjectId) {
    return Status::PermissionDenied("reserved object is drive-managed");
  }
  S4_ASSIGN_OR_RETURN(ObjectHandle obj, LoadObject(id));
  if (!obj->exists) {
    return Status::FailedPrecondition("object is deleted");
  }
  S4_RETURN_IF_ERROR(CheckAccess(*obj, creds, needed));
  return obj;
}

Result<Bytes> S4Drive::BuildBlockContent(const CachedObject& obj, uint64_t block_index,
                                         uint64_t new_size, uint64_t write_off,
                                         ByteSpan data) {
  // Invariant maintained by all writers: on-disk bytes at offsets >= object
  // size are zero, so reads never leak stale data across truncate/extend.
  const uint64_t old_size = obj.inode.attrs.size;
  const uint64_t valid_bytes = std::min(old_size, new_size);
  uint64_t block_start = block_index * kBlockSize;
  uint64_t valid_in_block =
      valid_bytes > block_start ? std::min<uint64_t>(valid_bytes - block_start, kBlockSize) : 0;
  uint64_t write_end = write_off + data.size();
  uint64_t copy_from = std::max(write_off, block_start);
  uint64_t copy_to = std::min(write_end, block_start + kBlockSize);
  // Read the old block only when some of its valid bytes lie outside the
  // written range: a write that covers them all replaces the block outright.
  bool covered = valid_in_block == 0 ||
                 (copy_from <= block_start && copy_to >= block_start + valid_in_block);
  // The new record holds the block's live sectors at the new size; the old
  // one has its length at the old size, and only its valid prefix carries
  // over. Built at its exact length, so the cache charges what it holds.
  Bytes content(DataRecordSectors(new_size, block_index) * kSectorSize, 0);
  DiskAddr old_addr = obj.inode.BlockAddr(block_index);
  if (old_addr != kNullAddr && !covered) {
    S4_ASSIGN_OR_RETURN(Bytes old, ReadRecord(old_addr, DataRecordSectors(old_size, block_index)));
    std::memcpy(content.data(), old.data(), valid_in_block);
  }
  // Lay in the new data overlapping this block.
  if (copy_from < copy_to) {
    std::memcpy(content.data() + (copy_from - block_start), data.data() + (copy_from - write_off),
                copy_to - copy_from);
  }
  return content;
}

Status S4Drive::WriteBlocks(JournalEntryType type, ObjectId id, CachedObject* obj,
                            uint64_t offset, ByteSpan data, uint64_t new_size) {
  const SimTime now = clock_->Now();
  const uint64_t old_size = obj->inode.attrs.size;
  // Rebuild every block the data touches; a shrink rebuilds its boundary
  // block instead, so the bytes past the new end read as zeros.
  uint64_t first = 0;
  uint64_t end = 0;
  if (!data.empty()) {
    first = offset / kBlockSize;
    end = (offset + data.size() - 1) / kBlockSize + 1;
  } else if (new_size < old_size && new_size % kBlockSize != 0 &&
             obj->inode.BlockAddr(new_size / kBlockSize) != kNullAddr) {
    first = new_size / kBlockSize;
    end = first + 1;
  }
  const bool audit = id == kAuditLogObjectId;
  Counter* written = audit ? m_.audit_blocks_written : m_.data_blocks_written;
  Counter* sectors_written = audit ? m_.audit_sectors_written : m_.data_sectors_written;
  std::vector<BlockDelta> deltas;
  auto rebuild = [&](uint64_t b) -> Status {
    S4_ASSIGN_OR_RETURN(Bytes content, BuildBlockContent(*obj, b, new_size, offset, data));
    sectors_written->Add(content.size() / kSectorSize);
    S4_ASSIGN_OR_RETURN(DiskAddr addr, writer_->Append(RecordKind::kData, id, b, content, actx()));
    block_cache_->Insert(addr, std::move(content));
    // The copy this one replaces must not push current data out of the
    // cache while the rest of the write comes in.
    DiskAddr old_addr = obj->inode.BlockAddr(b);
    block_cache_->Demote(old_addr);
    deltas.push_back(BlockDelta{b, old_addr, addr});
    written->Inc();
    return Status::Ok();
  };
  Status built = [&]() -> Status {
    // Growth that leaves the old last block untouched (a write starting past
    // it, a truncate that extends) rebuilds it too when its record length
    // changes, so every current record's length follows from the size.
    if (new_size > old_size && old_size > 0) {
      const uint64_t last = (old_size - 1) / kBlockSize;
      if ((last < first || last >= end) && obj->inode.BlockAddr(last) != kNullAddr &&
          DataRecordSectors(old_size, last) != DataRecordSectors(new_size, last)) {
        S4_RETURN_IF_ERROR(rebuild(last));
      }
    }
    for (uint64_t b = first; b < end; ++b) {
      S4_RETURN_IF_ERROR(rebuild(b));
    }
    return Status::Ok();
  }();
  if (!built.ok()) {
    // Nothing is journaled: release what this write appended, so the object
    // and the usage table are as they were.
    for (const BlockDelta& d : deltas) {
      ReleaseSectors(d.new_addr, DataRecordSectors(new_size, d.block_index), /*history=*/false);
    }
    return built;
  }
  const uint64_t keep_blocks = (new_size + kBlockSize - 1) / kBlockSize;
  for (auto it = obj->inode.blocks.lower_bound(keep_blocks); it != obj->inode.blocks.end();
       ++it) {
    deltas.push_back(BlockDelta{it->first, it->second, kNullAddr});
  }
  // Split into entries that each fit a single journal sector.
  size_t i = 0;
  do {
    JournalEntry e;
    e.type = type;
    e.time = now;
    e.old_size = old_size;
    e.new_size = new_size;
    size_t n = std::min<size_t>(kMaxDeltasPerEntry, deltas.size() - i);
    e.blocks.assign(deltas.begin() + i, deltas.begin() + i + n);
    i += n;
    S4_RETURN_IF_ERROR(LogEntry(id, obj, std::move(e), /*last=*/i == deltas.size()));
  } while (i < deltas.size());
  return Status::Ok();
}

Status S4Drive::WriteBody(OpContext& ctx, OpArgs& args, ObjectId id, uint64_t offset,
                          ByteSpan data, bool is_append) {
  S4_ASSIGN_OR_RETURN(ObjectHandle obj, ResolveForWrite(ctx.creds, id, kPermWrite));

  uint64_t old_size = obj->inode.attrs.size;
  uint64_t start = is_append ? old_size : offset;
  args.offset = start;
  if (data.empty()) {
    args.length = 0;
    return Status::Ok();
  }
  S4_RETURN_IF_ERROR(WriteBlocks(JournalEntryType::kWrite, id, obj.get(), start, data,
                                 std::max(old_size, start + data.size())));

  bytes_since_checkpoint_ += data.size();
  NoteClientWrite(ctx.creds.client, data.size());
  return MaybeAutoCheckpoint();
}

Status S4Drive::Write(OpContext& ctx, ObjectId id, uint64_t offset, ByteSpan data) {
  OpArgs a{RpcOp::kWrite};
  a.object = id;
  a.offset = offset;
  a.length = data.size();
  a.admission_bytes = data.size();
  return Execute(ctx, a, [&](OpArgs& args) -> Status {
    return WriteBody(ctx, args, id, offset, data, /*is_append=*/false);
  });
}

Status S4Drive::Write(const Credentials& creds, ObjectId id, uint64_t offset, ByteSpan data) {
  OpContext ctx = MakeContext(creds, RpcOp::kWrite);
  return Write(ctx, id, offset, data);
}

Result<uint64_t> S4Drive::Append(OpContext& ctx, ObjectId id, ByteSpan data) {
  OpArgs a{RpcOp::kAppend};
  a.object = id;
  a.length = data.size();
  a.admission_bytes = data.size();
  return Execute(ctx, a, [&](OpArgs& args) -> Result<uint64_t> {
    S4_RETURN_IF_ERROR(WriteBody(ctx, args, id, 0, data, /*is_append=*/true));
    S4_ASSIGN_OR_RETURN(ObjectHandle obj, LoadObject(id));
    return obj->inode.attrs.size;
  });
}

Result<uint64_t> S4Drive::Append(const Credentials& creds, ObjectId id, ByteSpan data) {
  OpContext ctx = MakeContext(creds, RpcOp::kAppend);
  return Append(ctx, id, data);
}

Status S4Drive::XorWrite(OpContext& ctx, ObjectId id, uint64_t offset, ByteSpan data) {
  OpArgs a{RpcOp::kXorWrite};
  a.object = id;
  a.offset = offset;
  a.length = data.size();
  a.admission_bytes = data.size();
  return Execute(ctx, a, [&](OpArgs& args) -> Status {
    S4_ASSIGN_OR_RETURN(ObjectHandle obj, ResolveForWrite(ctx.creds, id, kPermWrite));
    Bytes mixed(data.begin(), data.end());
    if (!mixed.empty()) {
      // Bytes past the current size XOR against zeros, so only the resident
      // prefix needs reading.
      S4_ASSIGN_OR_RETURN(Bytes old, ReadCurrent(*obj, offset, mixed.size()));
      for (size_t i = 0; i < old.size(); ++i) {
        mixed[i] = static_cast<uint8_t>(mixed[i] ^ old[i]);
      }
    }
    return WriteBody(ctx, args, id, offset, mixed, /*is_append=*/false);
  });
}

Status S4Drive::XorWrite(const Credentials& creds, ObjectId id, uint64_t offset,
                         ByteSpan data) {
  OpContext ctx = MakeContext(creds, RpcOp::kXorWrite);
  return XorWrite(ctx, id, offset, data);
}

Result<Bytes> S4Drive::ReadCurrent(const CachedObject& obj, uint64_t offset, uint64_t length) {
  uint64_t size = obj.inode.attrs.size;
  if (offset >= size || length == 0) {
    return Bytes{};  // and `last` below cannot wrap
  }
  length = std::min(length, size - offset);
  Bytes out(length, 0);
  uint64_t first = offset / kBlockSize;
  uint64_t last = (offset + length - 1) / kBlockSize;
  for (uint64_t b = first; b <= last; ++b) {
    DiskAddr addr = obj.inode.BlockAddr(b);
    uint64_t block_start = b * kBlockSize;
    uint64_t from = std::max(offset, block_start);
    uint64_t to = std::min(offset + length, block_start + kBlockSize);
    if (addr == kNullAddr) {
      continue;  // hole: already zero
    }
    S4_ASSIGN_OR_RETURN(Bytes content, ReadRecord(addr, DataRecordSectors(size, b)));
    std::memcpy(out.data() + (from - offset), content.data() + (from - block_start), to - from);
  }
  return out;
}

Result<Bytes> S4Drive::Read(OpContext& ctx, ObjectId id, uint64_t offset, uint64_t length,
                            std::optional<SimTime> at) {
  OpArgs a{RpcOp::kRead};
  a.object = id;
  a.offset = offset;
  a.length = length;
  a.time_based = at.has_value();
  return Execute(ctx, a, [&](OpArgs&) -> Result<Bytes> {
    if (at.has_value()) {
      if (!options_.versioning_enabled) {
        return Status::Unimplemented("versioning disabled");
      }
      S4_ASSIGN_OR_RETURN(VersionView view, ReconstructForAccess(ctx, id, *at));
      return ReadVersionBytes(view, offset, length);
    }
    S4_ASSIGN_OR_RETURN(ObjectHandle obj, LoadObject(id));
    if (!obj->exists) {
      return Status::FailedPrecondition("object is deleted");
    }
    // The audit log is admin-readable only; everything else goes by ACL.
    if (id == kAuditLogObjectId && !IsAdmin(ctx.creds)) {
      return Status::PermissionDenied("audit log is admin-only");
    }
    if (id != kAuditLogObjectId) {
      S4_RETURN_IF_ERROR(CheckAccess(*obj, ctx.creds, kPermRead));
    }
    return ReadCurrent(*obj, offset, length);
  });
}

Result<Bytes> S4Drive::Read(const Credentials& creds, ObjectId id, uint64_t offset,
                            uint64_t length, std::optional<SimTime> at) {
  OpContext ctx = MakeContext(creds, RpcOp::kRead);
  return Read(ctx, id, offset, length, at);
}

Status S4Drive::Truncate(OpContext& ctx, ObjectId id, uint64_t new_size) {
  OpArgs a{RpcOp::kTruncate};
  a.object = id;
  a.offset = new_size;
  return Execute(ctx, a, [&](OpArgs&) -> Status {
    S4_ASSIGN_OR_RETURN(ObjectHandle obj, ResolveForWrite(ctx.creds, id, kPermWrite));
    if (new_size == obj->inode.attrs.size) {
      return Status::Ok();
    }
    return WriteBlocks(JournalEntryType::kTruncate, id, obj.get(), new_size, ByteSpan{},
                       new_size);
  });
}

Status S4Drive::Truncate(const Credentials& creds, ObjectId id, uint64_t new_size) {
  OpContext ctx = MakeContext(creds, RpcOp::kTruncate);
  return Truncate(ctx, id, new_size);
}

Status S4Drive::Delete(OpContext& ctx, ObjectId id) {
  OpArgs a{RpcOp::kDelete};
  a.object = id;
  return Execute(ctx, a, [&](OpArgs&) -> Status {
    S4_ASSIGN_OR_RETURN(ObjectHandle obj, ResolveForWrite(ctx.creds, id, kPermDelete));
    ObjectMapEntry* entry = object_map_.Find(id);
    S4_CHECK(entry != nullptr);

    // Checkpoint the final state: the anchor from which pre-deletion versions
    // are reconstructed. The kDelete entry names it; applying the entry makes
    // all current data history (or frees it when unversioned).
    S4_RETURN_IF_ERROR(CheckpointObject(id, obj.get()));
    JournalEntry e;
    e.type = JournalEntryType::kDelete;
    e.time = clock_->Now();
    e.checkpoint_addr = entry->checkpoint_addr;
    e.checkpoint_sectors = entry->checkpoint_sectors;
    S4_RETURN_IF_ERROR(LogEntry(id, obj.get(), std::move(e)));
    S4_RETURN_IF_ERROR(FlushObjectJournal(id, obj.get()));
    obj->dirty = false;  // a tombstone is never checkpointed again
    return Status::Ok();
  });
}

Status S4Drive::Delete(const Credentials& creds, ObjectId id) {
  OpContext ctx = MakeContext(creds, RpcOp::kDelete);
  return Delete(ctx, id);
}

Result<ObjectAttrs> S4Drive::GetAttr(OpContext& ctx, ObjectId id, std::optional<SimTime> at) {
  OpArgs a{RpcOp::kGetAttr};
  a.object = id;
  a.time_based = at.has_value();
  return Execute(ctx, a, [&](OpArgs&) -> Result<ObjectAttrs> {
    if (at.has_value()) {
      if (!options_.versioning_enabled) {
        return Status::Unimplemented("versioning disabled");
      }
      S4_ASSIGN_OR_RETURN(VersionView view, ReconstructForAccess(ctx, id, *at));
      ObjectAttrs attrs;
      attrs.size = view.size;
      attrs.create_time = view.create_time;
      S4_ASSIGN_OR_RETURN(attrs.modify_time, ModifyTimeAt(id, view, *at));
      attrs.opaque = view.opaque;
      return attrs;
    }
    S4_ASSIGN_OR_RETURN(ObjectHandle obj, LoadObject(id));
    if (!obj->exists) {
      return Status::FailedPrecondition("object is deleted");
    }
    S4_RETURN_IF_ERROR(CheckAccess(*obj, ctx.creds, kPermRead));
    return obj->inode.attrs;
  });
}

Result<ObjectAttrs> S4Drive::GetAttr(const Credentials& creds, ObjectId id,
                                     std::optional<SimTime> at) {
  OpContext ctx = MakeContext(creds, RpcOp::kGetAttr);
  return GetAttr(ctx, id, at);
}

Status S4Drive::SetAttr(OpContext& ctx, ObjectId id, Bytes opaque_attrs) {
  OpArgs a{RpcOp::kSetAttr};
  a.object = id;
  a.length = opaque_attrs.size();
  return Execute(ctx, a, [&](OpArgs& args) -> Status {
    if (opaque_attrs.size() > kMaxOpaqueAttrBytes) {
      return Status::InvalidArgument("opaque attrs too large");
    }
    S4_ASSIGN_OR_RETURN(ObjectHandle obj, ResolveForWrite(ctx.creds, id, kPermSetAttr));
    args.length = 0;
    JournalEntry e;
    e.type = JournalEntryType::kSetAttr;
    e.time = clock_->Now();
    e.old_blob = obj->inode.attrs.opaque;
    e.new_blob = std::move(opaque_attrs);
    return LogEntry(id, obj.get(), std::move(e));
  });
}

Status S4Drive::SetAttr(const Credentials& creds, ObjectId id, Bytes opaque_attrs) {
  OpContext ctx = MakeContext(creds, RpcOp::kSetAttr);
  return SetAttr(ctx, id, std::move(opaque_attrs));
}

Result<AclEntry> S4Drive::GetAclByUser(OpContext& ctx, ObjectId id, UserId user,
                                       std::optional<SimTime> at) {
  OpArgs a{RpcOp::kGetAclByUser};
  a.object = id;
  a.offset = user;
  a.time_based = at.has_value();
  return Execute(ctx, a, [&](OpArgs&) -> Result<AclEntry> {
    auto find = [&](const Acl& acl) -> Result<AclEntry> {
      for (const auto& e : acl) {
        if (e.user == user) {
          return e;
        }
      }
      return Status::NotFound("no acl entry for user");
    };
    if (at.has_value()) {
      S4_ASSIGN_OR_RETURN(VersionView view, ReconstructForAccess(ctx, id, *at));
      return find(view.acl);
    }
    S4_ASSIGN_OR_RETURN(ObjectHandle obj, LoadObject(id));
    S4_RETURN_IF_ERROR(CheckAccess(*obj, ctx.creds, kPermRead));
    return find(obj->inode.acl);
  });
}

Result<AclEntry> S4Drive::GetAclByUser(const Credentials& creds, ObjectId id, UserId user,
                                       std::optional<SimTime> at) {
  OpContext ctx = MakeContext(creds, RpcOp::kGetAclByUser);
  return GetAclByUser(ctx, id, user, at);
}

Result<AclEntry> S4Drive::GetAclByIndex(OpContext& ctx, ObjectId id, uint32_t index,
                                        std::optional<SimTime> at) {
  OpArgs a{RpcOp::kGetAclByIndex};
  a.object = id;
  a.offset = index;
  a.time_based = at.has_value();
  return Execute(ctx, a, [&](OpArgs&) -> Result<AclEntry> {
    auto pick = [&](const Acl& acl) -> Result<AclEntry> {
      if (index >= acl.size()) {
        return Status::NotFound("acl index out of range");
      }
      return acl[index];
    };
    if (at.has_value()) {
      S4_ASSIGN_OR_RETURN(VersionView view, ReconstructForAccess(ctx, id, *at));
      return pick(view.acl);
    }
    S4_ASSIGN_OR_RETURN(ObjectHandle obj, LoadObject(id));
    S4_RETURN_IF_ERROR(CheckAccess(*obj, ctx.creds, kPermRead));
    return pick(obj->inode.acl);
  });
}

Result<AclEntry> S4Drive::GetAclByIndex(const Credentials& creds, ObjectId id, uint32_t index,
                                        std::optional<SimTime> at) {
  OpContext ctx = MakeContext(creds, RpcOp::kGetAclByIndex);
  return GetAclByIndex(ctx, id, index, at);
}

Status S4Drive::SetAcl(OpContext& ctx, ObjectId id, AclEntry new_entry) {
  OpArgs a{RpcOp::kSetAcl};
  a.object = id;
  a.offset = new_entry.user;
  return Execute(ctx, a, [&](OpArgs&) -> Status {
    S4_ASSIGN_OR_RETURN(ObjectHandle obj, ResolveForWrite(ctx.creds, id, kPermSetAcl));
    Acl new_acl = obj->inode.acl;
    bool replaced = false;
    for (auto& e : new_acl) {
      if (e.user == new_entry.user) {
        e = new_entry;
        replaced = true;
        break;
      }
    }
    if (!replaced) {
      if (new_acl.size() >= kMaxAclEntries) {
        return Status::InvalidArgument("acl full");
      }
      new_acl.push_back(new_entry);
    }

    JournalEntry e;
    e.type = JournalEntryType::kSetAcl;
    e.time = clock_->Now();
    Encoder old_enc;
    EncodeAcl(obj->inode.acl, &old_enc);
    e.old_blob = old_enc.Take();
    Encoder new_enc;
    EncodeAcl(new_acl, &new_enc);
    e.new_blob = new_enc.Take();
    return LogEntry(id, obj.get(), std::move(e));
  });
}

Status S4Drive::SetAcl(const Credentials& creds, ObjectId id, AclEntry entry) {
  OpContext ctx = MakeContext(creds, RpcOp::kSetAcl);
  return SetAcl(ctx, id, entry);
}

// ---------------------------------------------------------------------------
// Partition (named object) table
// ---------------------------------------------------------------------------

Result<std::vector<std::pair<std::string, ObjectId>>> S4Drive::ReadPartitionTable(
    std::optional<SimTime> at) {
  Bytes raw;
  if (at.has_value()) {
    S4_ASSIGN_OR_RETURN(VersionView view, ReconstructVersion(kPartitionTableObjectId, *at));
    S4_ASSIGN_OR_RETURN(raw, ReadVersionBytes(view, 0, view.size));
  } else {
    S4_ASSIGN_OR_RETURN(ObjectHandle obj, LoadObject(kPartitionTableObjectId));
    S4_ASSIGN_OR_RETURN(raw, ReadCurrent(*obj, 0, obj->inode.attrs.size));
  }
  std::vector<std::pair<std::string, ObjectId>> table;
  if (raw.empty()) {
    return table;
  }
  Decoder dec(raw);
  S4_ASSIGN_OR_RETURN(uint64_t n, dec.Varint());
  for (uint64_t i = 0; i < n; ++i) {
    S4_ASSIGN_OR_RETURN(std::string name, dec.String());
    S4_ASSIGN_OR_RETURN(uint64_t id, dec.Varint());
    table.emplace_back(std::move(name), id);
  }
  return table;
}

Status S4Drive::WritePartitionTable(
    const std::vector<std::pair<std::string, ObjectId>>& table) {
  Encoder enc;
  enc.PutVarint(table.size());
  for (const auto& [name, id] : table) {
    enc.PutString(name);
    enc.PutVarint(id);
  }
  Bytes data = enc.Take();
  S4_ASSIGN_OR_RETURN(ObjectHandle obj, LoadObject(kPartitionTableObjectId));
  return WriteBlocks(JournalEntryType::kWrite, kPartitionTableObjectId, obj.get(), 0, data,
                     data.size());
}

Status S4Drive::PCreate(OpContext& ctx, const std::string& name, ObjectId id) {
  OpArgs a{RpcOp::kPCreate};
  a.object = id;
  return Execute(ctx, a, [&](OpArgs&) -> Status {
    if (name.empty() || name.size() > kMaxPartitionName) {
      return Status::InvalidArgument("bad partition name");
    }
    if (object_map_.Find(id) == nullptr) {
      return Status::NotFound("no such object");
    }
    S4_ASSIGN_OR_RETURN(auto table, ReadPartitionTable(std::nullopt));
    for (const auto& [existing, eid] : table) {
      (void)eid;
      if (existing == name) {
        return Status::AlreadyExists("partition name in use");
      }
    }
    table.emplace_back(name, id);
    return WritePartitionTable(table);
  });
}

Status S4Drive::PCreate(const Credentials& creds, const std::string& name, ObjectId id) {
  OpContext ctx = MakeContext(creds, RpcOp::kPCreate);
  return PCreate(ctx, name, id);
}

Status S4Drive::PDelete(OpContext& ctx, const std::string& name) {
  OpArgs a{RpcOp::kPDelete};
  return Execute(ctx, a, [&](OpArgs&) -> Status {
    S4_ASSIGN_OR_RETURN(auto table, ReadPartitionTable(std::nullopt));
    auto it = std::find_if(table.begin(), table.end(),
                           [&](const auto& p) { return p.first == name; });
    if (it == table.end()) {
      return Status::NotFound("no such partition");
    }
    table.erase(it);
    return WritePartitionTable(table);
  });
}

Status S4Drive::PDelete(const Credentials& creds, const std::string& name) {
  OpContext ctx = MakeContext(creds, RpcOp::kPDelete);
  return PDelete(ctx, name);
}

Result<std::vector<std::pair<std::string, ObjectId>>> S4Drive::PList(OpContext& ctx,
                                                                     std::optional<SimTime> at) {
  OpArgs a{RpcOp::kPList};
  a.object = kPartitionTableObjectId;
  a.time_based = at.has_value();
  return Execute(ctx, a,
                 [&](OpArgs&) -> Result<std::vector<std::pair<std::string, ObjectId>>> {
                   return ReadPartitionTable(at);
                 });
}

Result<std::vector<std::pair<std::string, ObjectId>>> S4Drive::PList(const Credentials& creds,
                                                                     std::optional<SimTime> at) {
  OpContext ctx = MakeContext(creds, RpcOp::kPList);
  return PList(ctx, at);
}

Result<ObjectId> S4Drive::PMount(OpContext& ctx, const std::string& name,
                                 std::optional<SimTime> at) {
  OpArgs a{RpcOp::kPMount};
  a.time_based = at.has_value();
  return Execute(ctx, a, [&](OpArgs& args) -> Result<ObjectId> {
    S4_ASSIGN_OR_RETURN(auto table, ReadPartitionTable(at));
    for (const auto& [existing, id] : table) {
      if (existing == name) {
        args.object = id;
        return id;
      }
    }
    return Status::NotFound("no such partition");
  });
}

Result<ObjectId> S4Drive::PMount(const Credentials& creds, const std::string& name,
                                 std::optional<SimTime> at) {
  OpContext ctx = MakeContext(creds, RpcOp::kPMount);
  return PMount(ctx, name, at);
}

// ---------------------------------------------------------------------------
// Device operations
// ---------------------------------------------------------------------------

Status S4Drive::Sync(OpContext& ctx) {
  OpArgs a{RpcOp::kSync};
  return Execute(ctx, a, [&](OpArgs&) -> Status {
    // Sync is the durability point clients reason about: force the audit tail
    // out with everything else (a sub-block tail would otherwise sit buffered
    // in RAM and a power cut would eat records clients believe are durable).
    // The commit marker deliberately lags — advancing it here would cost a
    // seek off the log head on every sync-per-op NFS operation. Un-vouched
    // frames still verify (their chain links must hold); they are merely
    // eligible for clean-tail trimming, and the marker catches up at the next
    // checkpoint, purge, challenge, or unmount.
    S4_RETURN_IF_ERROR(SyncAuditTail());
    // A dirty object whose cache eviction failed to write back has lost the
    // durability this Sync is promising: surface the stored failure to this
    // client instead of swallowing it.
    if (!eviction_error_.ok()) {
      Status err = eviction_error_;
      eviction_error_ = Status::Ok();
      return err;
    }
    return MaybeAutoCheckpoint();
  });
}

Status S4Drive::Sync(const Credentials& creds) {
  OpContext ctx = MakeContext(creds, RpcOp::kSync);
  return Sync(ctx);
}

Status S4Drive::SetWindow(OpContext& ctx, SimDuration window) {
  OpArgs a{RpcOp::kSetWindow};
  a.admin_only = true;
  return Execute(ctx, a, [&](OpArgs& args) -> Status {
    if (window < 0) {
      return Status::InvalidArgument("negative window");
    }
    detection_window_ = window;
    args.length = static_cast<uint64_t>(window);
    return Status::Ok();
  });
}

Status S4Drive::SetWindow(const Credentials& creds, SimDuration window) {
  OpContext ctx = MakeContext(creds, RpcOp::kSetWindow);
  return SetWindow(ctx, window);
}

Status S4Drive::AppendAuditBuffered(bool force) {
  if (audit_codec_.buffered_bytes() == 0) {
    return Status::Ok();
  }
  if (!force && audit_codec_.buffered_bytes() < kBlockSize) {
    return Status::Ok();
  }
  const size_t taken_records = audit_codec_.buffered_records();
  const AuditChainState chained_to = audit_codec_.chain_state();
  Bytes data = audit_codec_.TakeBuffered();
  bool landed = false;
  Status appended = [&]() -> Status {
    S4_ASSIGN_OR_RETURN(ObjectHandle obj, LoadObject(kAuditLogObjectId));
    uint64_t start = obj->inode.attrs.size;
    // Chained frames self-address their object offset; the append cursor must
    // therefore agree with where the codec framed them.
    S4_CHECK(!audit_codec_.chained() || start == audit_appended_state_.next_offset);
    Status written = WriteBlocks(JournalEntryType::kWrite, kAuditLogObjectId, obj.get(), start,
                                 data, start + data.size());
    // A failed journal pack still leaves the write applied and queued.
    landed = obj->inode.attrs.size == start + data.size();
    return written;
  }();
  if (!landed) {
    // The taken frames never became part of the object (a failed WriteBlocks
    // leaves it as it was). Account the loss and rewind the codec chain so
    // the next append re-frames contiguously with what is actually on disk.
    m_.audit_records_dropped->Add(taken_records);
    audit_codec_.ResetChain(audit_appended_state_);
    return appended;
  }
  if (audit_codec_.chained()) {
    audit_appended_state_ = chained_to;
  }
  return appended;
}

// Truncates the audit object to `new_size` without the Execute/ACL wrapper:
// mount-time recovery trims torn chain tails before any client op runs. The
// trim is idempotent — re-running after a crash mid-trim converges on the
// same verified prefix.
Status S4Drive::TrimAuditObject(uint64_t new_size) {
  S4_ASSIGN_OR_RETURN(ObjectHandle obj, LoadObject(kAuditLogObjectId));
  if (new_size >= obj->inode.attrs.size) {
    return Status::Ok();
  }
  return WriteBlocks(JournalEntryType::kTruncate, kAuditLogObjectId, obj.get(), new_size,
                     ByteSpan{}, new_size);
}

Result<std::vector<AuditRecord>> S4Drive::QueryAudit(const Credentials& creds,
                                                     const AuditQuery& query) {
  if (!IsAdmin(creds)) {
    return Status::PermissionDenied("audit log is admin-only");
  }
  // Include buffered records: flush them into the object first.
  S4_RETURN_IF_ERROR(AppendAuditBuffered(/*force=*/true));
  S4_ASSIGN_OR_RETURN(ObjectHandle obj, LoadObject(kAuditLogObjectId));
  S4_ASSIGN_OR_RETURN(Bytes raw, ReadCurrent(*obj, 0, obj->inode.attrs.size));
  std::vector<AuditRecord> out;
  if (audit_codec_.chained()) {
    // Post-mount content is chain-verified end to end (mount trims torn
    // tails), so every byte must account: any break here is corruption.
    AuditChainScan scan = ScanChain(raw, 0, AuditChainState(), raw.size(),
                                    [&](const AuditRecord& rec) {
                                      if (query.Matches(rec)) {
                                        out.push_back(rec);
                                      }
                                    });
    if (scan.verdict != AuditVerdict::kOk) {
      m_.audit_chain_breaks->Inc();
      audit_chain_broken_ = true;
      return Status::DataCorruption("audit chain break: " + scan.detail);
    }
    return out;
  }
  S4_RETURN_IF_ERROR(AuditLogCodec::DecodeAll(raw, query, &out));
  return out;
}

Result<AuditChallengeProof> S4Drive::AuditChallenge(OpContext& ctx, uint64_t from_offset) {
  OpArgs a{RpcOp::kAuditChallenge};
  a.object = kAuditLogObjectId;
  a.offset = from_offset;
  a.admin_only = true;
  return Execute(ctx, a, [&](OpArgs& args) -> Result<AuditChallengeProof> {
    if (!options_.audit_enabled || !audit_codec_.chained()) {
      return Status::FailedPrecondition("audit chain disabled");
    }
    // Make the whole buffered tail durable and marked, so the proof can
    // extend all the way to a committed state the drive stands behind.
    S4_RETURN_IF_ERROR(CommitAuditTail());
    const uint64_t committed = audit_marker_.committed_size;
    if (from_offset > committed) {
      return Status::InvalidArgument("challenge offset beyond committed audit size");
    }
    S4_ASSIGN_OR_RETURN(ObjectHandle obj, LoadObject(kAuditLogObjectId));
    uint64_t want = std::min<uint64_t>(committed - from_offset, kMaxChallengeRoundBytes);
    S4_ASSIGN_OR_RETURN(Bytes chunk, ReadCurrent(*obj, from_offset, want));
    // Cut the round at a frame boundary: proofs are verified as whole-frame
    // chain continuations. Frames are <= 64KB so a full round always makes
    // progress.
    size_t cut = 0;
    while (cut + 2 <= chunk.size()) {
      size_t frame_len = static_cast<size_t>(chunk[cut]) |
                         (static_cast<size_t>(chunk[cut + 1]) << 8);
      if (cut + 2 + frame_len > chunk.size()) {
        break;
      }
      cut += 2 + frame_len;
    }
    AuditChallengeProof proof;
    proof.end_state.next_seq = audit_marker_.chain_seq;
    proof.end_state.next_offset = audit_marker_.committed_size;
    proof.end_state.link = audit_marker_.chain_link;
    proof.frames.assign(chunk.begin(), chunk.begin() + cut);
    args.length = proof.frames.size();
    return proof;
  });
}

Result<AuditChallengeProof> S4Drive::AuditChallenge(const Credentials& creds,
                                                    uint64_t from_offset) {
  OpContext ctx = MakeContext(creds, RpcOp::kAuditChallenge);
  return AuditChallenge(ctx, from_offset);
}

}  // namespace s4
