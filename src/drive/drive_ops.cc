// S4Drive data path: the Table 1 object, partition, and device operations.
//
// Every op here is a thin Execute() body: the shared prologue (op count, CPU
// charge, admin gate, throttle) and epilogue (denial count, audit record,
// latency histogram) live in BeginOp/EndOp in s4_drive.cc. Bodies mutate the
// OpArgs audit fields as the op learns them (e.g. the resolved append
// offset), so the audit record describes what actually happened.
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
    entry.oldest_time = now;
    UpdateExpiryIndex(id, &object_map_.Put(id, entry));

    auto obj = std::make_shared<CachedObject>();
    obj->inode.id = id;
    obj->inode.attrs.create_time = now;
    obj->inode.attrs.modify_time = now;
    obj->inode.attrs.opaque = opaque_attrs;
    obj->inode.acl.push_back(AclEntry{ctx.creds.user, kPermAll});
    obj->dirty = true;

    JournalEntry e;
    e.type = JournalEntryType::kCreate;
    e.time = now;
    Encoder acl_enc;
    EncodeAcl(obj->inode.acl, &acl_enc);
    e.old_blob = acl_enc.Take();
    e.new_blob = std::move(opaque_attrs);
    obj->pending.push_back(std::move(e));
    m_.journal_entries->Inc();
    pending_dirty_.insert(id);

    object_cache_->Put(id, obj, 256);
    args.object = id;
    args.length = 0;
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
                                         uint64_t valid_bytes, uint64_t write_off,
                                         ByteSpan data) {
  // Invariant maintained by all writers: on-disk bytes at offsets >= object
  // size are zero, so reads never leak stale data across truncate/extend.
  uint64_t block_start = block_index * kBlockSize;
  Bytes content;
  DiskAddr old_addr = obj.inode.BlockAddr(block_index);
  if (old_addr != kNullAddr) {
    S4_ASSIGN_OR_RETURN(content, ReadRecord(old_addr, kSectorsPerBlock));
  } else {
    content.assign(kBlockSize, 0);
  }
  // Zero anything beyond the currently valid prefix of this block.
  uint64_t valid_in_block =
      valid_bytes > block_start ? std::min<uint64_t>(valid_bytes - block_start, kBlockSize) : 0;
  if (valid_in_block < kBlockSize) {
    std::memset(content.data() + valid_in_block, 0, kBlockSize - valid_in_block);
  }
  // Lay in the new data overlapping this block.
  uint64_t write_end = write_off + data.size();
  uint64_t block_end = block_start + kBlockSize;
  uint64_t copy_from = std::max(write_off, block_start);
  uint64_t copy_to = std::min(write_end, block_end);
  if (copy_from < copy_to) {
    std::memcpy(content.data() + (copy_from - block_start), data.data() + (copy_from - write_off),
                copy_to - copy_from);
  }
  return content;
}

void S4Drive::SupersedeBlock(ObjectId id, DiskAddr old_addr) {
  if (old_addr == kNullAddr) {
    return;
  }
  if (ObjectIsVersioned(id)) {
    sut_->LiveToHistory(sb_.SegmentOf(old_addr), kSectorsPerBlock);
  } else {
    ReleaseSectors(old_addr, kSectorsPerBlock, /*history=*/false);
  }
}

Status S4Drive::ApplyBlockWrite(ObjectId id, CachedObject* obj, SimTime now, uint64_t old_size,
                                uint64_t new_size, std::vector<BlockDelta> deltas) {
  // Split into journal entries that each fit a single journal sector.
  size_t i = 0;
  do {
    JournalEntry e;
    e.type = JournalEntryType::kWrite;
    e.time = now;
    e.old_size = old_size;
    e.new_size = new_size;
    size_t n = std::min<size_t>(kMaxDeltasPerEntry, deltas.size() - i);
    e.blocks.assign(deltas.begin() + i, deltas.begin() + i + n);
    i += n;
    obj->pending.push_back(std::move(e));
    m_.journal_entries->Inc();
  } while (i < deltas.size());
  pending_dirty_.insert(id);

  obj->inode.attrs.size = new_size;
  obj->inode.attrs.modify_time = now;
  obj->dirty = true;

  if (obj->pending.size() >= options_.journal_flush_entries) {
    S4_RETURN_IF_ERROR(FlushObjectJournal(id, obj));
  }
  return Status::Ok();
}

Status S4Drive::WriteBody(OpContext& ctx, OpArgs& args, ObjectId id, uint64_t offset,
                          ByteSpan data, bool is_append) {
  S4_ASSIGN_OR_RETURN(ObjectHandle obj, ResolveForWrite(ctx.creds, id, kPermWrite));

  SimTime now = clock_->Now();
  uint64_t old_size = obj->inode.attrs.size;
  uint64_t start = is_append ? old_size : offset;
  args.offset = start;
  if (data.empty()) {
    args.length = 0;
    return Status::Ok();
  }
  uint64_t new_size = std::max(old_size, start + data.size());

  uint64_t first = start / kBlockSize;
  uint64_t last = (start + data.size() - 1) / kBlockSize;
  std::vector<BlockDelta> deltas;
  deltas.reserve(last - first + 1);
  for (uint64_t b = first; b <= last; ++b) {
    S4_ASSIGN_OR_RETURN(Bytes content, BuildBlockContent(*obj, b, old_size, start, data));
    S4_ASSIGN_OR_RETURN(DiskAddr addr, writer_->Append(RecordKind::kData, id, b, content, actx()));
    block_cache_->Insert(addr, content);
    DiskAddr old_addr = obj->inode.BlockAddr(b);
    deltas.push_back(BlockDelta{b, old_addr, addr});
    obj->inode.blocks[b] = addr;
    SupersedeBlock(id, old_addr);
    m_.data_blocks_written->Inc();
  }
  S4_RETURN_IF_ERROR(ApplyBlockWrite(id, obj.get(), now, old_size, new_size, std::move(deltas)));

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
  if (offset >= size) {
    return Bytes{};
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
    S4_ASSIGN_OR_RETURN(Bytes content, ReadRecord(addr, kSectorsPerBlock));
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
    SimTime now = clock_->Now();
    uint64_t old_size = obj->inode.attrs.size;
    if (new_size == old_size) {
      return Status::Ok();
    }

    std::vector<BlockDelta> deltas;
    if (new_size < old_size) {
      // Drop whole blocks past the new end.
      uint64_t keep_blocks = (new_size + kBlockSize - 1) / kBlockSize;
      auto it = obj->inode.blocks.lower_bound(keep_blocks);
      while (it != obj->inode.blocks.end()) {
        deltas.push_back(BlockDelta{it->first, it->second, kNullAddr});
        SupersedeBlock(id, it->second);
        it = obj->inode.blocks.erase(it);
      }
      // Rewrite the boundary block with a zeroed tail to preserve the
      // "bytes beyond size are zero" invariant.
      if (new_size % kBlockSize != 0) {
        uint64_t b = new_size / kBlockSize;
        DiskAddr old_addr = obj->inode.BlockAddr(b);
        if (old_addr != kNullAddr) {
          S4_ASSIGN_OR_RETURN(Bytes content, BuildBlockContent(*obj, b, new_size, 0, ByteSpan{}));
          S4_ASSIGN_OR_RETURN(DiskAddr addr,
                              writer_->Append(RecordKind::kData, id, b, content, actx()));
          block_cache_->Insert(addr, content);
          deltas.push_back(BlockDelta{b, old_addr, addr});
          obj->inode.blocks[b] = addr;
          SupersedeBlock(id, old_addr);
          m_.data_blocks_written->Inc();
        }
      }
    }

    JournalEntry e;
    e.type = JournalEntryType::kTruncate;
    e.time = now;
    e.old_size = old_size;
    e.new_size = new_size;
    // Split oversized delta lists across multiple entries.
    if (deltas.size() <= kMaxDeltasPerEntry) {
      e.blocks = std::move(deltas);
      obj->pending.push_back(std::move(e));
      m_.journal_entries->Inc();
    } else {
      for (size_t i = 0; i < deltas.size(); i += kMaxDeltasPerEntry) {
        JournalEntry part = e;
        size_t n = std::min<size_t>(kMaxDeltasPerEntry, deltas.size() - i);
        part.blocks.assign(deltas.begin() + i, deltas.begin() + i + n);
        obj->pending.push_back(std::move(part));
        m_.journal_entries->Inc();
      }
    }
    pending_dirty_.insert(id);
    obj->inode.attrs.size = new_size;
    obj->inode.attrs.modify_time = now;
    obj->dirty = true;
    if (obj->pending.size() >= options_.journal_flush_entries) {
      S4_RETURN_IF_ERROR(FlushObjectJournal(id, obj.get()));
    }
    return Status::Ok();
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
    // are reconstructed.
    S4_RETURN_IF_ERROR(CheckpointObject(id, obj.get()));
    SimTime now = clock_->Now();
    JournalEntry e;
    e.type = JournalEntryType::kDelete;
    e.time = now;
    e.checkpoint_addr = entry->checkpoint_addr;
    e.checkpoint_sectors = entry->checkpoint_sectors;
    obj->pending.push_back(std::move(e));
    m_.journal_entries->Inc();
    pending_dirty_.insert(id);
    S4_RETURN_IF_ERROR(FlushObjectJournal(id, obj.get()));

    // All current data becomes history (or is freed when unversioned).
    for (const auto& [index, addr] : obj->inode.blocks) {
      (void)index;
      SupersedeBlock(id, addr);
    }
    entry->delete_time = now;
    UpdateExpiryIndex(id, entry);
    obj->exists = false;
    obj->dirty = false;
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
      attrs.modify_time = view.modify_time;
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
    SimTime now = clock_->Now();
    JournalEntry e;
    e.type = JournalEntryType::kSetAttr;
    e.time = now;
    e.old_blob = obj->inode.attrs.opaque;
    e.new_blob = opaque_attrs;
    obj->pending.push_back(std::move(e));
    m_.journal_entries->Inc();
    pending_dirty_.insert(id);
    obj->inode.attrs.opaque = std::move(opaque_attrs);
    obj->inode.attrs.modify_time = now;
    obj->dirty = true;
    if (obj->pending.size() >= options_.journal_flush_entries) {
      S4_RETURN_IF_ERROR(FlushObjectJournal(id, obj.get()));
    }
    args.length = 0;
    return Status::Ok();
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

    SimTime now = clock_->Now();
    JournalEntry e;
    e.type = JournalEntryType::kSetAcl;
    e.time = now;
    Encoder old_enc;
    EncodeAcl(obj->inode.acl, &old_enc);
    e.old_blob = old_enc.Take();
    Encoder new_enc;
    EncodeAcl(new_acl, &new_enc);
    e.new_blob = new_enc.Take();
    obj->pending.push_back(std::move(e));
    m_.journal_entries->Inc();
    pending_dirty_.insert(id);
    obj->inode.acl = std::move(new_acl);
    obj->dirty = true;
    if (obj->pending.size() >= options_.journal_flush_entries) {
      S4_RETURN_IF_ERROR(FlushObjectJournal(id, obj.get()));
    }
    return Status::Ok();
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
  uint64_t old_size = obj->inode.attrs.size;
  SimTime now = clock_->Now();

  uint64_t last = data.empty() ? 0 : (data.size() - 1) / kBlockSize;
  std::vector<BlockDelta> deltas;
  for (uint64_t b = 0; b <= last && !data.empty(); ++b) {
    S4_ASSIGN_OR_RETURN(Bytes content, BuildBlockContent(*obj, b, old_size, 0, data));
    S4_ASSIGN_OR_RETURN(DiskAddr addr, writer_->Append(RecordKind::kData, kPartitionTableObjectId,
                                                       b, content, actx()));
    block_cache_->Insert(addr, content);
    DiskAddr old_addr = obj->inode.BlockAddr(b);
    deltas.push_back(BlockDelta{b, old_addr, addr});
    obj->inode.blocks[b] = addr;
    SupersedeBlock(kPartitionTableObjectId, old_addr);
    m_.data_blocks_written->Inc();
  }
  // Drop blocks past the new end (table shrank).
  uint64_t keep_blocks = (data.size() + kBlockSize - 1) / kBlockSize;
  auto it = obj->inode.blocks.lower_bound(keep_blocks);
  while (it != obj->inode.blocks.end()) {
    deltas.push_back(BlockDelta{it->first, it->second, kNullAddr});
    SupersedeBlock(kPartitionTableObjectId, it->second);
    it = obj->inode.blocks.erase(it);
  }
  return ApplyBlockWrite(kPartitionTableObjectId, obj.get(), now, old_size, data.size(),
                         std::move(deltas));
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
  Status appended = [&]() -> Status {
    S4_ASSIGN_OR_RETURN(ObjectHandle obj, LoadObject(kAuditLogObjectId));
    uint64_t old_size = obj->inode.attrs.size;
    uint64_t start = old_size;
    // Chained frames self-address their object offset; the append cursor must
    // therefore agree with where the codec framed them.
    S4_CHECK(!audit_codec_.chained() || start == audit_appended_state_.next_offset);
    SimTime now = clock_->Now();
    uint64_t first = start / kBlockSize;
    uint64_t last = (start + data.size() - 1) / kBlockSize;
    std::vector<BlockDelta> deltas;
    for (uint64_t b = first; b <= last; ++b) {
      S4_ASSIGN_OR_RETURN(Bytes content, BuildBlockContent(*obj, b, old_size, start, data));
      S4_ASSIGN_OR_RETURN(DiskAddr addr, writer_->Append(RecordKind::kData, kAuditLogObjectId,
                                                         b, content, actx()));
      block_cache_->Insert(addr, content);
      DiskAddr old_addr = obj->inode.BlockAddr(b);
      deltas.push_back(BlockDelta{b, old_addr, addr});
      obj->inode.blocks[b] = addr;
      SupersedeBlock(kAuditLogObjectId, old_addr);
      m_.audit_blocks_written->Inc();
    }
    return ApplyBlockWrite(kAuditLogObjectId, obj.get(), now, old_size, start + data.size(),
                           std::move(deltas));
  }();
  if (!appended.ok()) {
    // The taken frames never became part of the object (its size is only
    // advanced by ApplyBlockWrite, the last step). Account the loss and
    // rewind the codec chain so the next append re-frames contiguously with
    // what is actually on disk.
    m_.audit_records_dropped->Add(taken_records);
    audit_codec_.ResetChain(audit_appended_state_);
    return appended;
  }
  if (audit_codec_.chained()) {
    audit_appended_state_ = chained_to;
  }
  return Status::Ok();
}

// Truncates the audit object to `new_size` without the Execute/ACL wrapper:
// mount-time recovery trims torn chain tails before any client op runs. The
// trim is idempotent — re-running after a crash mid-trim converges on the
// same verified prefix.
Status S4Drive::TrimAuditObject(uint64_t new_size) {
  S4_ASSIGN_OR_RETURN(ObjectHandle obj, LoadObject(kAuditLogObjectId));
  uint64_t old_size = obj->inode.attrs.size;
  if (new_size >= old_size) {
    return Status::Ok();
  }
  SimTime now = clock_->Now();
  std::vector<BlockDelta> deltas;
  uint64_t keep_blocks = (new_size + kBlockSize - 1) / kBlockSize;
  auto it = obj->inode.blocks.lower_bound(keep_blocks);
  while (it != obj->inode.blocks.end()) {
    deltas.push_back(BlockDelta{it->first, it->second, kNullAddr});
    SupersedeBlock(kAuditLogObjectId, it->second);
    it = obj->inode.blocks.erase(it);
  }
  // Re-zero the boundary block's tail so later appends can rely on the
  // "bytes beyond size are zero" invariant.
  if (new_size % kBlockSize != 0) {
    uint64_t b = new_size / kBlockSize;
    DiskAddr old_addr = obj->inode.BlockAddr(b);
    if (old_addr != kNullAddr) {
      S4_ASSIGN_OR_RETURN(Bytes content, BuildBlockContent(*obj, b, new_size, 0, ByteSpan{}));
      S4_ASSIGN_OR_RETURN(DiskAddr addr,
                          writer_->Append(RecordKind::kData, kAuditLogObjectId, b, content,
                                          actx()));
      block_cache_->Insert(addr, content);
      deltas.push_back(BlockDelta{b, old_addr, addr});
      obj->inode.blocks[b] = addr;
      SupersedeBlock(kAuditLogObjectId, old_addr);
      m_.audit_blocks_written->Inc();
    }
  }
  JournalEntry e;
  e.type = JournalEntryType::kTruncate;
  e.time = now;
  e.old_size = old_size;
  e.new_size = new_size;
  if (deltas.size() <= kMaxDeltasPerEntry) {
    e.blocks = std::move(deltas);
    obj->pending.push_back(std::move(e));
    m_.journal_entries->Inc();
  } else {
    for (size_t i = 0; i < deltas.size(); i += kMaxDeltasPerEntry) {
      JournalEntry part = e;
      size_t n = std::min<size_t>(kMaxDeltasPerEntry, deltas.size() - i);
      part.blocks.assign(deltas.begin() + i, deltas.begin() + i + n);
      obj->pending.push_back(std::move(part));
      m_.journal_entries->Inc();
    }
  }
  pending_dirty_.insert(kAuditLogObjectId);
  obj->inode.attrs.size = new_size;
  obj->inode.attrs.modify_time = now;
  obj->dirty = true;
  return Status::Ok();
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
