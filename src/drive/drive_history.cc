// S4Drive history pool: version reconstruction (time-based access), version
// enumeration, and administrative purging (Flush/FlushO).
#include <algorithm>
#include <cstring>

#include "src/drive/s4_drive.h"
#include "src/util/check.h"

namespace s4 {

// Defined in s4_drive.cc; the forward-replay reconstruction path reuses it.
void ApplyEntryForward(Inode* inode, bool* exists, const JournalEntry& e);

DiskAddr S4Drive::VersionView::BlockAt(uint64_t index) const {
  auto it = overlay.find(index);
  if (it != overlay.end()) {
    return it->second;
  }
  return base->inode.BlockAddr(index);
}

Status S4Drive::WalkJournal(ObjectId id, const CachedObject* obj, std::optional<SimTime> start_at,
                            const std::function<Result<bool>(const JournalEntry&)>& fn) {
  const ObjectMapEntry* entry = object_map_.Find(id);
  if (entry == nullptr) {
    return Status::NotFound("no such object");
  }
  SimTime barrier = entry->history_barrier;
  uint64_t visited = 0;

  auto walk = [&]() -> Status {
    // Newest first: in-memory pending entries...
    if (obj != nullptr) {
      for (auto it = obj->pending.rbegin(); it != obj->pending.rend(); ++it) {
        if (it->time <= barrier) {
          return Status::Ok();
        }
        S4_ASSIGN_OR_RETURN(bool keep_going, fn(*it));
        if (!keep_going) {
          return Status::Ok();
        }
      }
    }
    // ...then the on-disk backward chain. A time bound lets the walk seek:
    // the oldest waypoint *above* `start_at` marks the newest sector that can
    // matter — every sector newer than it holds only entries newer than the
    // bound (the chain is strictly time-ordered), so they are skipped
    // wholesale. Callers passing `start_at` must not need entries above it.
    DiskAddr addr = entry->journal_head;
    if (start_at.has_value() && addr != kNullAddr) {
      if (const JournalWaypoint* w = entry->SeekWaypointAbove(*start_at);
          w != nullptr && w->addr != addr) {
        addr = w->addr;
        m_.history_waypoint_seeks->Inc();
      }
    }
    while (addr != kNullAddr) {
      S4_ASSIGN_OR_RETURN(std::shared_ptr<const JournalSector> sector,
                          ReadJournalSector(addr, &visited));
      if (sector == nullptr || sector->object_id != id) {
        // The chain crossed into reclaimed space; everything older is gone.
        return Status::Ok();
      }
      for (auto it = sector->entries.rbegin(); it != sector->entries.rend(); ++it) {
        if (it->time <= barrier) {
          return Status::Ok();
        }
        S4_ASSIGN_OR_RETURN(bool keep_going, fn(*it));
        if (!keep_going) {
          return Status::Ok();
        }
      }
      // Never follow the chain past fully expired territory.
      if (!sector->entries.empty() && sector->entries.front().time <= barrier) {
        return Status::Ok();
      }
      addr = sector->prev;
    }
    return Status::Ok();
  };
  Status result = walk();
  m_.history_walk_sectors->Add(visited);
  m_.walk_sectors->Record(static_cast<int64_t>(visited));
  return result;
}

bool S4Drive::IsPurged(ObjectId id, SimTime t) const {
  auto it = purged_.find(id);
  if (it == purged_.end()) {
    return false;
  }
  for (const auto& r : it->second) {
    if (t > r.from && t <= r.to) {
      return true;
    }
  }
  return false;
}

// One step of backward reconstruction: undoes `e` (a mutation newer than
// `at`) on the view, or — once the walk reaches the first entry at or before
// `at` — stamps the version's modify time and stops. Entries inside an
// administratively purged range have had their old data destroyed; affected
// blocks get the sentinel so reads fail loudly instead of returning reused
// disk contents.
Result<bool> S4Drive::ApplyEntryUndo(ObjectId id, const JournalEntry& e, SimTime at,
                                     VersionView* view) {
  if (e.time <= at) {
    view->modify_time = e.time;
    return false;
  }
  bool purged = IsPurged(id, e.time);
  switch (e.type) {
    case JournalEntryType::kWrite:
    case JournalEntryType::kTruncate:
      view->size = e.old_size;
      for (const auto& d : e.blocks) {
        view->overlay[d.block_index] =
            purged && d.old_addr != kNullAddr ? kPurgedAddr : d.old_addr;
      }
      break;
    case JournalEntryType::kSetAttr:
      view->opaque = e.old_blob;
      break;
    case JournalEntryType::kSetAcl: {
      Decoder dec(e.old_blob);
      S4_ASSIGN_OR_RETURN(view->acl, DecodeAcl(&dec));
      break;
    }
    case JournalEntryType::kCreate:
      view->existed = false;
      return false;
    case JournalEntryType::kDelete:
    case JournalEntryType::kCheckpoint:
      break;
  }
  return true;
}

Result<S4Drive::VersionView> S4Drive::ReconstructVersion(ObjectId id, SimTime at) {
  const ObjectMapEntry* entry = object_map_.Find(id);
  if (entry == nullptr) {
    return Status::NotFound("no such object");
  }
  if (at < entry->create_time) {
    return Status::NotFound("object did not exist at that time");
  }
  if (!entry->live() && at >= entry->delete_time) {
    return Status::NotFound("object was deleted at that time");
  }
  if (at < entry->history_barrier) {
    return Status::FailedPrecondition("version aged out of the history pool");
  }
  m_.history_walks->Inc();
  ScopedSpan span(actx(), "history.reconstruct");
  S4_ASSIGN_OR_RETURN(ObjectHandle obj, LoadObject(id));

  VersionView view;
  view.existed = true;
  view.base = obj;
  view.create_time = entry->create_time;
  view.modify_time = entry->create_time;

  // Two ways to build the version, costed by the waypoint index. Backward
  // undo starts from the current state and must visit every entry *newer*
  // than `at` — O(distance from the present). Forward replay starts from the
  // create entry and visits every entry *at or below* `at` — O(distance from
  // creation) thanks to the waypoint seek — but is only sound when the whole
  // chain back to the create entry is intact (nothing expired) and no
  // administrative purge has destroyed data the replayed addresses reference
  // (purge knowledge hangs off the *superseding* entries, which forward
  // replay never visits).
  size_t below = entry->WaypointsAtOrBelow(at);
  size_t above = entry->waypoints.size() - below;
  bool forward_ok = options_.waypoint_interval_sectors > 0 && below < above &&
                    entry->history_barrier < entry->create_time &&
                    purged_.find(id) == purged_.end();
  if (forward_ok) {
    m_.history_forward_walks->Inc();
    std::vector<JournalEntry> replay;
    Status walk = WalkJournal(id, obj.get(), at, [&](const JournalEntry& e) -> Result<bool> {
      if (e.time <= at) {
        replay.push_back(e);
      }
      return true;
    });
    S4_RETURN_IF_ERROR(walk);
    std::reverse(replay.begin(), replay.end());  // walk order is newest-first
    Inode past;
    past.id = id;
    bool existed = false;
    SimTime modify = entry->create_time;
    for (const JournalEntry& e : replay) {
      ApplyEntryForward(&past, &existed, e);
      modify = e.time;
    }
    if (!existed) {
      return Status::NotFound("object did not exist at that time");
    }
    view.size = past.attrs.size;
    view.opaque = past.attrs.opaque;
    view.acl = past.acl;
    view.modify_time = modify;
    // The overlay must fully shadow the current state: any current block the
    // replayed inode does not have was a hole (or not yet written) at `at`.
    for (const auto& [index, addr] : obj->inode.blocks) {
      (void)addr;
      view.overlay[index] = kNullAddr;
    }
    for (const auto& [index, addr] : past.blocks) {
      view.overlay[index] = addr;
    }
    return view;
  }

  view.size = obj->inode.attrs.size;
  view.opaque = obj->inode.attrs.opaque;
  view.acl = obj->inode.acl;
  // Undo every mutation newer than `at`, newest first. No `start_at` bound:
  // the undo direction needs exactly the entries a bound would skip.
  Status walk = WalkJournal(id, obj.get(), std::nullopt,
                            [&](const JournalEntry& e) -> Result<bool> {
                              return ApplyEntryUndo(id, e, at, &view);
                            });
  S4_RETURN_IF_ERROR(walk);
  if (!view.existed) {
    return Status::NotFound("object did not exist at that time");
  }
  return view;
}

Result<S4Drive::VersionView> S4Drive::ReconstructForAccess(OpContext& ctx, ObjectId id,
                                                           SimTime at) {
  S4_ASSIGN_OR_RETURN(VersionView view, ReconstructVersion(id, at));
  S4_RETURN_IF_ERROR(CheckHistoryAccess(view.acl, ctx.creds));
  return view;
}

Result<Bytes> S4Drive::ReadVersionBytes(const VersionView& view, uint64_t offset,
                                        uint64_t length) {
  if (offset >= view.size) {
    return Bytes{};
  }
  length = std::min(length, view.size - offset);
  Bytes out(length, 0);
  uint64_t first = offset / kBlockSize;
  uint64_t last = (offset + length - 1) / kBlockSize;
  for (uint64_t b = first; b <= last; ++b) {
    DiskAddr addr = view.BlockAt(b);
    if (addr == kNullAddr) {
      continue;  // hole
    }
    if (addr == kPurgedAddr) {
      return Status::FailedPrecondition("version data was administratively purged");
    }
    uint64_t block_start = b * kBlockSize;
    uint64_t from = std::max(offset, block_start);
    uint64_t to = std::min(offset + length, block_start + kBlockSize);
    S4_ASSIGN_OR_RETURN(Bytes content, ReadRecord(addr, kSectorsPerBlock));
    std::memcpy(out.data() + (from - offset), content.data() + (from - block_start), to - from);
  }
  return out;
}

Status S4Drive::CheckHistoryAccess(const Acl& version_acl, const Credentials& creds) const {
  if (IsAdmin(creds)) {
    return Status::Ok();
  }
  // The Recovery flag (section 3.4): a user may resurrect old versions only
  // when the version's ACL granted them both Read and Recovery.
  if (AclAllows(version_acl, creds, kPermRead | kPermRecovery)) {
    return Status::Ok();
  }
  return Status::PermissionDenied("history pool access requires the Recovery flag or admin");
}

Result<std::vector<VersionInfo>> S4Drive::GetVersionList(OpContext& ctx, ObjectId id) {
  OpArgs a{RpcOp::kGetVersionList};
  a.object = id;
  return Execute(ctx, a, [&](OpArgs& args) -> Result<std::vector<VersionInfo>> {
    const ObjectMapEntry* entry = object_map_.Find(id);
    if (entry == nullptr) {
      return Status::NotFound("no such object");
    }
    S4_ASSIGN_OR_RETURN(ObjectHandle obj, LoadObject(id));
    S4_RETURN_IF_ERROR(CheckHistoryAccess(obj->inode.acl, ctx.creds));
    m_.history_walks->Inc();
    std::vector<VersionInfo> versions;
    // No time bound: the list spans the whole reconstructible history.
    Status walk = WalkJournal(id, obj.get(), std::nullopt,
                              [&](const JournalEntry& e) -> Result<bool> {
                                if (e.type != JournalEntryType::kCheckpoint) {
                                  versions.push_back(VersionInfo{e.time, e.type});
                                }
                                return true;
                              });
    S4_RETURN_IF_ERROR(walk);
    std::reverse(versions.begin(), versions.end());
    args.length = versions.size();
    return versions;
  });
}

Result<std::vector<VersionInfo>> S4Drive::GetVersionList(const Credentials& creds, ObjectId id) {
  OpContext ctx = MakeContext(creds, RpcOp::kGetVersionList);
  return GetVersionList(ctx, id);
}

Status S4Drive::PurgeObjectVersions(ObjectId id, SimTime from, SimTime to) {
  ObjectMapEntry* entry = object_map_.Find(id);
  if (entry == nullptr) {
    return Status::NotFound("no such object");
  }
  ObjectHandle obj;
  if (auto loaded = LoadObject(id); loaded.ok()) {
    obj = *loaded;
  }
  bool versioned = ObjectIsVersioned(id);
  uint64_t purged_count = 0;
  // Bound the walk at `to`: entries newer than the purged range are skipped
  // by the waypoint seek instead of being read and ignored.
  Status walk = WalkJournal(id, obj.get(), to, [&](const JournalEntry& e) -> Result<bool> {
    if (e.time <= from) {
      return false;
    }
    if (e.time > to || IsPurged(id, e.time)) {
      return true;
    }
    if (e.type == JournalEntryType::kWrite || e.type == JournalEntryType::kTruncate) {
      for (const auto& d : e.blocks) {
        if (d.old_addr != kNullAddr && versioned) {
          ReleaseSectors(d.old_addr, kSectorsPerBlock, /*history=*/true);
        }
      }
      ++purged_count;
    }
    return true;
  });
  S4_RETURN_IF_ERROR(walk);
  if (purged_count > 0) {
    auto& ranges = purged_[id];
    ranges.push_back(PurgedRange{from, to});
    m_.versions_purged->Add(purged_count);
  }
  return Status::Ok();
}

Status S4Drive::FlushObject(OpContext& ctx, ObjectId id, SimTime from, SimTime to) {
  OpArgs a{RpcOp::kFlushObject};
  a.object = id;
  a.admin_only = true;
  Status result = Execute(ctx, a, [&](OpArgs& args) -> Status {
    args.offset = static_cast<uint64_t>(from);
    args.length = static_cast<uint64_t>(to);
    // History purges are irreversible: make the audit trail that led up to
    // them durable (and marker-committed) before any version disappears.
    S4_RETURN_IF_ERROR(CommitAuditTail());
    return PurgeObjectVersions(id, from, to);
  });
  // The record attesting the purge itself must also survive a crash: nothing
  // acknowledges an irreversible history deletion that the chronicle could
  // then forget.
  if (result.ok()) {
    S4_RETURN_IF_ERROR(CommitAuditTail());
  }
  return result;
}

Status S4Drive::FlushObject(const Credentials& creds, ObjectId id, SimTime from, SimTime to) {
  OpContext ctx = MakeContext(creds, RpcOp::kFlushObject);
  return FlushObject(ctx, id, from, to);
}

Status S4Drive::Flush(OpContext& ctx, SimTime from, SimTime to) {
  OpArgs a{RpcOp::kFlush};
  a.admin_only = true;
  Status result = Execute(ctx, a, [&](OpArgs& args) -> Status {
    args.offset = static_cast<uint64_t>(from);
    args.length = static_cast<uint64_t>(to);
    // As in FlushObject: the pre-purge audit trail must be durable first.
    S4_RETURN_IF_ERROR(CommitAuditTail());
    std::vector<ObjectId> ids;
    for (const auto& [id, entry] : object_map_.entries()) {
      (void)entry;
      if (id != kAuditLogObjectId) {
        ids.push_back(id);
      }
    }
    for (ObjectId id : ids) {
      Status s = PurgeObjectVersions(id, from, to);
      if (!s.ok() && s.code() != ErrorCode::kNotFound) {
        return s;
      }
    }
    return Status::Ok();
  });
  // As in FlushObject: the purge's own record is committed before the ack.
  if (result.ok()) {
    S4_RETURN_IF_ERROR(CommitAuditTail());
  }
  return result;
}

Status S4Drive::Flush(const Credentials& creds, SimTime from, SimTime to) {
  OpContext ctx = MakeContext(creds, RpcOp::kFlush);
  return Flush(ctx, from, to);
}

}  // namespace s4
