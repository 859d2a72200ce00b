// S4Drive cleaner (paper section 4.2.1) and space-exhaustion throttle
// (section 3.3).
//
// Unlike a classic LFS cleaner, liveness is not sufficient for reclamation:
// a deprecated version may only be freed once it has aged out of the
// detection window. The cleaner therefore works object-by-object — it scans
// the object map for objects whose oldest retained version predates the
// window, walks their journal chains (the extra reads the paper blames for
// S4's higher cleaning cost), and frees expired data, journal sectors, and
// delete-time checkpoints. Segments whose live and history counts both reach
// zero become reclaimable; they are actually reused only after the next
// device checkpoint so crash recovery can never replay stale chunks.
#include <algorithm>
#include <cmath>

#include "src/drive/s4_drive.h"
#include "src/util/check.h"
#include "src/util/logging.h"

namespace s4 {

Result<uint64_t> S4Drive::ExpireObjectHistory(ObjectId id, ObjectMapEntry* entry,
                                              SimTime cutoff, uint64_t* sectors_read) {
  bool versioned = ObjectIsVersioned(id);
  bool full_expiry = !entry->live() && entry->delete_time <= cutoff;
  uint64_t freed_sectors = 0;
  SimTime barrier = entry->history_barrier;
  SimTime oldest_surviving = INT64_MAX;
  // Journal entries newer than the last inode checkpoint are the only record
  // of the object's current state; their sectors may not be freed even when
  // every version they describe has aged out. When such sectors block
  // reclamation, the object is checkpointed at the end of this visit so the
  // next visit can free them.
  bool need_checkpoint = false;

  // Walk the chain from the head, sector by sector, so expired journal
  // sectors themselves can be freed. When the chain survives in part, the
  // waypoint index lets the walk skip straight past the unexpirable prefix:
  // every sector newer than the oldest waypoint above the cutoff holds only
  // in-window entries. Those skipped sectors all survive, and the seek-start
  // sector contributes a surviving entry no newer than any skipped entry, so
  // `oldest_surviving` (hence the barrier) stays globally correct. A full
  // expiry must free the whole chain, so it never seeks.
  m_.cleaner_objects_visited->Inc();
  DiskAddr addr = entry->journal_head;
  bool chain_fully_freed = true;
  if (options_.cleaner_incremental && !full_expiry) {
    if (const JournalWaypoint* w = entry->SeekWaypointAbove(cutoff);
        w != nullptr && w->addr != addr) {
      addr = w->addr;
      chain_fully_freed = false;  // the skipped newer sectors remain
    }
  }
  while (addr != kNullAddr) {
    S4_ASSIGN_OR_RETURN(std::shared_ptr<const JournalSector> sector,
                        ReadJournalSector(addr, sectors_read));
    if (sector == nullptr || sector->object_id != id) {
      break;  // already reclaimed territory
    }
    if (!sector->entries.empty() && sector->entries.back().time <= barrier) {
      break;  // entirely below the barrier: freed in an earlier pass
    }
    bool sector_fully_expired = true;
    for (const auto& e : sector->entries) {
      if (e.time <= barrier) {
        continue;  // freed in an earlier pass
      }
      if (e.time > cutoff && !full_expiry) {
        sector_fully_expired = false;
        oldest_surviving = std::min(oldest_surviving, e.time);
        continue;
      }
      // Entries newer than the inode checkpoint are still needed to replay
      // the current state; defer them (and keep the barrier below them) until
      // the end-of-visit checkpoint clears the way.
      if (entry->live() && e.time > entry->checkpoint_time &&
          e.type != JournalEntryType::kCheckpoint) {
        sector_fully_expired = false;
        need_checkpoint = true;
        oldest_surviving = std::min(oldest_surviving, e.time);
        continue;
      }
      // Expired entry: release the data it superseded.
      if (e.type == JournalEntryType::kWrite || e.type == JournalEntryType::kTruncate) {
        for (const auto& d : e.blocks) {
          if (d.old_addr != kNullAddr && versioned && !IsPurged(id, e.time)) {
            ReleaseSectors(d.old_addr, kSectorsPerBlock, /*history=*/true);
            freed_sectors += kSectorsPerBlock;
          }
        }
      }
    }
    if (sector_fully_expired) {
      ReleaseSectors(addr, 1, /*history=*/false);
      ++freed_sectors;
    } else {
      chain_fully_freed = false;
    }
    if (!sector->entries.empty() && sector->entries.front().time <= barrier) {
      break;  // older sectors were freed in earlier passes
    }
    addr = sector->prev;
  }

  if (full_expiry) {
    // Release the final state itself: current blocks (history since the
    // delete) and the delete-time checkpoint.
    if (entry->checkpoint_addr != kNullAddr) {
      auto raw = ReadRecord(entry->checkpoint_addr, entry->checkpoint_sectors);
      Result<Inode> inode = raw.ok() ? Inode::DecodeCheckpoint(*raw) : Result<Inode>(raw.status());
      if (inode.ok()) {
        if (versioned) {
          for (const auto& [index, baddr] : inode->blocks) {
            (void)index;
            if (baddr != kNullAddr) {
              ReleaseSectors(baddr, kSectorsPerBlock, /*history=*/true);
              freed_sectors += kSectorsPerBlock;
            }
          }
        }
      } else {
        // The checkpoint sectors themselves are still reclaimed below, but
        // the history blocks the unreadable checkpoint references cannot be
        // released — a permanent space leak if it keeps happening. Expiry
        // must not fail over one bad object, so surface the swallowed error
        // through the obs plane instead of propagating it.
        m_.cleaner_checkpoint_decode_errors->Inc();
        S4_LOG(kWarning) << "cleaner: checkpoint of object " << id << " at addr "
                         << entry->checkpoint_addr
                         << " unreadable during full expiry: "
                         << inode.status().ToString();
      }
      ReleaseSectors(entry->checkpoint_addr, entry->checkpoint_sectors, /*history=*/false);
      freed_sectors += entry->checkpoint_sectors;
    }
    (void)chain_fully_freed;
    object_cache_->Remove(id);
    purged_.erase(id);
    object_map_.Erase(id);
    UpdateExpiryIndex(id, nullptr);
  } else {
    // The barrier never passes an entry whose reclamation was deferred.
    entry->history_barrier =
        oldest_surviving == INT64_MAX ? cutoff : std::min(cutoff, oldest_surviving - 1);
    entry->oldest_time = oldest_surviving == INT64_MAX ? clock_->Now() : oldest_surviving;
    if (chain_fully_freed && oldest_surviving == INT64_MAX) {
      // Every reachable sector is gone; drop the head so this object stops
      // being an expiry candidate until it is written again. (The current
      // state lives in the inode checkpoint — the gate above guarantees no
      // replay-needed entry is ever freed.)
      entry->journal_head = kNullAddr;
    }
    // Waypoints at or below the barrier point into freed territory (a freed
    // sector's newest entry never outlives the post-visit barrier); drop
    // them so no later seek can land on a reclaimed sector.
    entry->PruneWaypoints(entry->history_barrier);
    if (need_checkpoint) {
      // Checkpoint, then re-walk once: with checkpoint_time now ahead of the
      // cutoff nothing is gated, so the deferred sectors free immediately.
      S4_ASSIGN_OR_RETURN(ObjectHandle obj, LoadObject(id));
      S4_RETURN_IF_ERROR(CheckpointObject(id, obj.get()));
      entry = object_map_.Find(id);
      S4_CHECK(entry != nullptr);
      m_.cleaner_sectors_expired->Add(freed_sectors);
      S4_ASSIGN_OR_RETURN(uint64_t more, ExpireObjectHistory(id, entry, cutoff, sectors_read));
      return freed_sectors + more;
    }
    UpdateExpiryIndex(id, entry);
  }
  m_.cleaner_sectors_expired->Add(freed_sectors);
  return freed_sectors;
}

bool S4Drive::CleanerNeeded() const {
  if (!options_.cleaner_enabled) {
    return false;
  }
  return sut_->FreeOrReclaimableSegments() <
         std::max<uint32_t>(sut_->segment_count() / 4, kReserveSegments * 2);
}

Result<uint32_t> S4Drive::RunCleanerPass(uint32_t max_compactions, bool force_compaction) {
  // The cleaner is an internal actor: it gets its own context so its disk
  // traffic shows up in the trace under a request id, distinct from any op.
  OpContext cleaner_ctx = MakeContext(Credentials{}, RpcOp::kInvalid);
  ScopedSpan span(&cleaner_ctx, "cleaner.pass");
  ScopedActiveContext active(this, &cleaner_ctx);
  m_.cleaner_passes->Inc();
  SimTime t0 = clock_->Now();
  SimTime cutoff =
      options_.versioning_enabled ? clock_->Now() - detection_window_ : clock_->Now();

  // Phase 1: age-based expiry. Expiry is batched when space is plentiful: an
  // object is visited only once a quarter-window of entries has expired, so
  // frequently cleaned long chains (directories) are walked O(1) times per
  // window instead of on every pass. Under space pressure the batching is
  // dropped so every expirable byte is reclaimed. Reclamation is only ever
  // lazier than the guarantee, never earlier.
  SimDuration slack =
      options_.versioning_enabled && !CleanerNeeded() ? detection_window_ / 4 : 0;
  auto ripe = [&](const ObjectMapEntry& entry) {
    return entry.oldest_time + slack <= cutoff ||
           (!entry.live() && entry.delete_time <= cutoff);
  };
  uint64_t walk_sectors = 0;
  if (options_.cleaner_incremental) {
    // Incremental: pop candidates off the expiry index in oldest-first order
    // instead of scanning the whole object map. The pop bound is the bare
    // cutoff (not cutoff - slack) so dead objects whose delete aged out still
    // surface; objects that are indexed-expirable but batched away by the
    // slack go back in unchanged. A per-pass sector budget caps the walk
    // cost; whatever is left stays queued for the next pass.
    uint64_t budget = options_.cleaner_pass_sector_budget;
    std::vector<std::pair<SimTime, ObjectId>> unripe;
    while (!expiry_index_.empty() && expiry_index_.begin()->first <= cutoff) {
      if (budget != 0 && walk_sectors >= budget) {
        break;
      }
      auto [key, id] = *expiry_index_.begin();
      expiry_index_.erase(expiry_index_.begin());
      expiry_pos_.erase(id);
      ObjectMapEntry* entry = object_map_.Find(id);
      if (entry == nullptr || entry->journal_head == kNullAddr) {
        continue;  // stale index residue; stays dropped
      }
      if (!ripe(*entry)) {
        // Batched away (or the key aged ahead of the entry). Reinsert after
        // the loop — putting it straight back would pop it again forever.
        m_.cleaner_objects_skipped_unripe->Inc();
        unripe.emplace_back(key, id);
        continue;
      }
      auto freed = ExpireObjectHistory(id, entry, cutoff, &walk_sectors);
      if (!freed.ok()) {
        for (const auto& [k, uid] : unripe) {
          if (expiry_pos_.find(uid) == expiry_pos_.end()) {
            expiry_pos_.emplace(uid, expiry_index_.emplace(k, uid));
          }
        }
        return freed.status();
      }
    }
    for (const auto& [k, uid] : unripe) {
      if (expiry_pos_.find(uid) == expiry_pos_.end()) {
        expiry_pos_.emplace(uid, expiry_index_.emplace(k, uid));
      }
    }
    // Candidates deferred by the budget (still indexed at or below the
    // cutoff, beyond the unripe ones just reinserted).
    uint64_t ready = 0;
    for (auto it = expiry_index_.begin();
         it != expiry_index_.end() && it->first <= cutoff; ++it) {
      ++ready;
    }
    if (ready > static_cast<uint64_t>(unripe.size())) {
      m_.cleaner_objects_skipped_budget->Add(ready - unripe.size());
    }
  } else {
    // Full scan (the pre-index behaviour; kept as the bench baseline).
    std::vector<ObjectId> candidates;
    for (const auto& [id, entry] : object_map_.entries()) {
      if (ripe(entry) && entry.journal_head != kNullAddr) {
        candidates.push_back(id);
      }
    }
    // Visit candidates in log order: objects written together have adjacent
    // journal sectors, so the clustered reads of one walk feed the next.
    std::sort(candidates.begin(), candidates.end(), [this](ObjectId a, ObjectId b) {
      const ObjectMapEntry* ea = object_map_.Find(a);
      const ObjectMapEntry* eb = object_map_.Find(b);
      return ea->journal_head < eb->journal_head;
    });
    for (ObjectId id : candidates) {
      ObjectMapEntry* entry = object_map_.Find(id);
      if (entry != nullptr) {
        auto freed = ExpireObjectHistory(id, entry, cutoff, &walk_sectors);
        if (!freed.ok()) {
          return freed.status();
        }
      }
    }
  }
  m_.cleaner_walk_sectors->Add(walk_sectors);

  // Phase 2: compaction of fragmented segments when space is low.
  uint32_t compacted = 0;
  while (compacted < max_compactions && (force_compaction || CleanerNeeded())) {
    auto victim = sut_->CompactionVictim();
    if (!victim.has_value()) {
      break;
    }
    const SegmentInfo& info = sut_->Info(*victim);
    double ratio = info.written_sectors == 0
                       ? 1.0
                       : static_cast<double>(info.live_sectors + info.history_sectors) /
                             info.written_sectors;
    if (ratio > 0.85) {
      break;  // nothing worth copying out, even for a continuous cleaner
    }
    S4_ASSIGN_OR_RETURN(bool moved, CompactSegment(*victim));
    ++compacted;
    m_.cleaner_segments_compacted->Inc();
    if (!moved) {
      break;
    }
  }

  // Phase 3: make expired segments allocatable. Reclamation requires a
  // device checkpoint (see WriteCheckpoint) so roll-forward never replays a
  // reused segment's previous life.
  uint32_t reclaimable = 0;
  for (SegmentId seg = 0; seg < sut_->segment_count(); ++seg) {
    if (sut_->Reclaimable(seg)) {
      ++reclaimable;
    }
  }
  if (reclaimable > 0) {
    S4_RETURN_IF_ERROR(WriteCheckpoint());
  }
  m_.cleaner_time_us->Add(clock_->Now() - t0);
  return reclaimable;
}

Result<bool> S4Drive::CompactSegment(SegmentId seg) {
  S4_ASSIGN_OR_RETURN(std::vector<ScannedChunk> chunks, ScanSegment(device_, sb_, seg));
  bool moved_any = false;
  std::vector<ObjectId> touched;
  for (const auto& chunk : chunks) {
    for (const auto& rec : chunk.records) {
      if (rec.kind == RecordKind::kData) {
        // Relocate only blocks that are the object's *current* data; history
        // blocks and journal sectors pin the segment until they expire —
        // that is exactly the extra cleaning pressure the history pool adds.
        const ObjectMapEntry* entry = object_map_.Find(rec.object_id);
        if (entry == nullptr || !entry->live()) {
          continue;
        }
        auto loaded = LoadObject(rec.object_id);
        if (!loaded.ok()) {
          continue;  // skip is safe: the record stays where it is, unfreed
        }
        ObjectHandle obj = *loaded;
        if (obj->inode.BlockAddr(rec.block_index) != rec.addr) {
          continue;  // superseded: history or dead
        }
        S4_ASSIGN_OR_RETURN(Bytes content, ReadRecord(rec.addr, rec.sectors));
        S4_ASSIGN_OR_RETURN(
            DiskAddr new_addr,
            writer_->Append(RecordKind::kData, rec.object_id, rec.block_index, content, actx()));
        block_cache_->Insert(new_addr, content);
        obj->inode.blocks[rec.block_index] = new_addr;
        obj->dirty = true;
        // A physical move, not a new version: the old copy's live count moves
        // with it rather than becoming history.
        ReleaseSectors(rec.addr, rec.sectors, /*history=*/false);
        m_.cleaner_sectors_copied->Add(rec.sectors);
        moved_any = true;
        if (std::find(touched.begin(), touched.end(), rec.object_id) == touched.end()) {
          touched.push_back(rec.object_id);
        }
      } else if (rec.kind == RecordKind::kInodeCheckpoint) {
        ObjectMapEntry* entry = object_map_.Find(rec.object_id);
        if (entry == nullptr || entry->checkpoint_addr != rec.addr || !entry->live()) {
          continue;  // stale or pinned (delete-time checkpoints stay put)
        }
        auto loaded = LoadObject(rec.object_id);
        if (!loaded.ok()) {
          continue;  // skip is safe: the old checkpoint stays valid in place
        }
        // Re-checkpointing writes a fresh copy at the log head and releases
        // this one.
        S4_RETURN_IF_ERROR(CheckpointObject(rec.object_id, loaded->get()));
        m_.cleaner_sectors_copied->Add(rec.sectors);
        moved_any = true;
      }
    }
  }
  // Relocations bypass the journal; affected objects must be re-checkpointed
  // before the vacated space can ever be reused, so that crash recovery
  // never resolves a block to its old address.
  for (ObjectId id : touched) {
    auto loaded = LoadObject(id);
    if (loaded.ok()) {
      S4_RETURN_IF_ERROR(CheckpointObject(id, loaded->get()));
    }
  }
  return moved_any;
}

// ---------------------------------------------------------------------------
// Space-exhaustion throttle (section 3.3)
// ---------------------------------------------------------------------------

void S4Drive::NoteClientWrite(ClientId client, uint64_t bytes) {
  constexpr double kTauSeconds = 5.0;
  ClientLoad& load = client_load_[client];
  SimTime now = clock_->Now();
  double dt = ToSeconds(now - load.last_update);
  load.bytes_per_sec = load.bytes_per_sec * std::exp(-dt / kTauSeconds) +
                       static_cast<double>(bytes) / kTauSeconds;
  load.last_update = now;
}

Status S4Drive::ThrottleCheck(const Credentials& creds, uint64_t bytes) {
  if (IsAdmin(creds)) {
    return Status::Ok();
  }
  double util = SpaceUtilization();
  if (util < options_.throttle_threshold) {
    return Status::Ok();
  }
  auto it = client_load_.find(creds.client);
  double rate = it == client_load_.end() ? 0.0 : it->second.bytes_per_sec;
  if (rate <= options_.fair_share_bytes_per_sec) {
    return Status::Ok();  // well-behaved clients keep full service
  }
  if (util >= options_.reject_threshold) {
    m_.throttle_rejects->Inc();
    return Status::Throttled("history pool near exhaustion; writes from this client refused");
  }
  // Progressive penalty: scale the delay with how far past the threshold the
  // device is and how far past fair share the client is.
  double pressure = (util - options_.throttle_threshold) /
                    (options_.reject_threshold - options_.throttle_threshold);
  double overuse = rate / options_.fair_share_bytes_per_sec;
  double delay_seconds =
      pressure * std::min(overuse, 16.0) *
      (static_cast<double>(bytes) / options_.fair_share_bytes_per_sec);
  clock_->Advance(static_cast<SimDuration>(delay_seconds * kSecond));
  m_.throttle_delays->Inc();
  return Status::Ok();
}

}  // namespace s4
