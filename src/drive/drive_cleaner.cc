// S4Drive cleaner (paper section 4.2.1) and space-exhaustion throttle
// (section 3.3).
//
// Unlike a classic LFS cleaner, liveness is not sufficient for reclamation:
// a deprecated version may only be freed once it has aged out of the
// detection window. The paper's S4 cleans object by object, walking each
// object's journal chain, and blames those random reads for its extra
// cleaning cost. This cleaner instead sweeps the log itself in write (chunk
// seq) order, one sequential read per segment range, as retention-aware
// log-structured stores do: the log is written in time order, so everything
// that has left the window sits behind one cursor.
//
//   Cursor. sweep_ names the next unswept chunk and advances after every
//   chunk, so each journal sector is freed exactly once. It is persisted in
//   the device checkpoint next to the usage table, which it must agree with:
//   after a crash the sweep redoes exactly the frees the checkpoint lost.
//   Entry times cannot serve as the cursor — Delete writes its checkpoint
//   sector and its kDelete sector at the same instant.
//   Eligibility. A chunk is swept once its write_time (its flush time, which
//   bounds every entry in it) is at or below the cutoff — the active
//   segment's flushed chunks included.
//   Order. Segments are visited by the seq of their first chunk, and each is
//   read only up to its current fill (written_sectors when sealed, the
//   writer's flushed fill when active), so a reused segment's previous life
//   is never read as current.
//   Damage. The scan walks chunk summaries, which carry their own CRC, and
//   each journal sector is decoded against its own CRC: a rotten record is
//   counted on the metrics plane and stepped over, never a reason to stop.
//   No I/O when nothing is old enough. sweep_time_ bounds the write time of
//   the next unswept chunk (the format time, then the stopping chunk's time,
//   or the pass time at the log head), so an idle pass reads nothing.
//
// Per journal sector the rules are the window's: entries newer than a live
// object's inode checkpoint are the only record of its current state, so the
// object is checkpointed first; purged versions and unversioned objects
// release no history; an object's kDelete sector fully expires it (the
// delete-time checkpoint and the blocks it references). Segments whose live
// and history counts both reach zero become reclaimable; they are reused only
// after the next device checkpoint so crash recovery can never replay stale
// chunks.
//
// Compaction copies a segment's current blocks to the log head, each as a
// kMove journal entry through WriteBlocks: ApplyEntry, live and at
// roll-forward, points the block at the copy and frees the old one (a move
// is not a version), so nothing is re-checkpointed to make up for it.
#include <algorithm>
#include <cmath>

#include "src/drive/s4_drive.h"
#include "src/util/check.h"
#include "src/util/logging.h"

namespace s4 {

namespace {

// Sector offset, within its segment, just past a scanned chunk.
uint32_t ChunkEnd(const Superblock& sb, const ScannedChunk& chunk) {
  const ScannedRecord& last = chunk.records.back();
  return static_cast<uint32_t>(last.addr + last.sectors - sb.SegmentStart(chunk.segment));
}

}  // namespace

Status S4Drive::SweepExpiredLog(SimTime cutoff) {
  if (cutoff < sweep_time_) {
    return Status::Ok();  // nothing unswept is old enough
  }
  ScopedSpan span(actx(), "cleaner.sweep");
  SimTime t0 = clock_->Now();
  Status swept = [&]() -> Status {
    while (true) {
      if (sweep_ahead_.empty()) {
        S4_ASSIGN_OR_RETURN(bool read, ReadAheadOfSweep());
        if (!read) {
          sweep_time_ = clock_->Now();  // at the log head
          return Status::Ok();
        }
        continue;
      }
      const ScannedChunk& chunk = sweep_ahead_.front();
      if (chunk.write_time > cutoff) {
        sweep_time_ = chunk.write_time;
        return Status::Ok();
      }
      S4_RETURN_IF_ERROR(ExpireChunk(chunk));
      sweep_ = LogPosition{chunk.seq + 1, chunk.segment, ChunkEnd(sb_, chunk)};
      sweep_ahead_.pop_front();
    }
  }();
  m_.cleaner_sweep_time_us->Add(clock_->Now() - t0);
  return swept;
}

Result<bool> S4Drive::ReadAheadOfSweep() {
  auto fill = [this](SegmentId seg) {
    return seg == writer_->active_segment() ? writer_->flushed_fill()
                                            : sut_->Info(seg).written_sectors;
  };
  // Continue in the segment last read while it is still the same life (its
  // first chunk precedes the read position) and has fill left to read. Past
  // its end, or once it was reclaimed, the log continues in the segment
  // whose first chunk is next in seq order.
  SegmentId seg = sweep_read_.segment;
  uint32_t start = sweep_read_.offset;
  bool same_life = seg != kNullSegment && sut_->Info(seg).state != SegmentState::kFree &&
                   sut_->Info(seg).first_seq != 0 && sut_->Info(seg).first_seq < sweep_read_.seq;
  if (!same_life || (start >= fill(seg) && seg != writer_->active_segment())) {
    seg = kNullSegment;
    start = 0;
    for (SegmentId s = 0; s < sut_->segment_count(); ++s) {
      const SegmentInfo& info = sut_->Info(s);
      if (info.state != SegmentState::kFree && info.first_seq >= sweep_read_.seq &&
          (seg == kNullSegment || info.first_seq < sut_->Info(seg).first_seq)) {
        seg = s;
      }
    }
    if (seg == kNullSegment) {
      return false;
    }
  }
  const uint32_t end = fill(seg);
  if (start >= end) {
    return false;  // the writer's segment holds nothing newer
  }
  // Straight to the device, not through the block cache: a sweep must never
  // evict the working set.
  SegmentScanOptions opts;
  opts.start_offset = start;
  opts.end_offset = end;
  opts.ctx = actx();
  S4_ASSIGN_OR_RETURN(std::vector<ScannedChunk> chunks, ScanSegment(device_, sb_, seg, opts));
  m_.cleaner_segments_swept->Inc();
  m_.cleaner_sweep_sectors_read->Add(end - start);
  uint32_t reached = start;
  for (ScannedChunk& chunk : chunks) {
    if (chunk.records.empty()) {
      continue;  // the writer never flushes one; nothing to sweep in it
    }
    reached = ChunkEnd(sb_, chunk);
    sweep_read_.seq = chunk.seq + 1;
    sweep_ahead_.push_back(std::move(chunk));
  }
  if (reached < end) {
    // A summary failed its CRC: where the chunks behind it start is lost, so
    // the rest of this segment cannot be swept. Step past it.
    m_.cleaner_sweep_damage->Inc();
    sweep_read_.seq = std::max(sweep_read_.seq, sut_->Info(seg).first_seq + 1);
  }
  sweep_read_.segment = seg;
  sweep_read_.offset = end;
  return true;
}

Status S4Drive::ExpireChunk(const ScannedChunk& chunk) {
  if (!chunk.payload_intact) {
    m_.cleaner_sweep_damage->Inc();
  }
  std::vector<std::pair<DiskAddr, JournalSector>> sectors;
  for (const ScannedRecord& rec : chunk.records) {
    if (rec.kind != RecordKind::kJournal) {
      continue;
    }
    auto decoded = JournalSector::Decode(rec.raw);
    if (!decoded.ok()) {
      m_.cleaner_sweep_damage->Inc();  // stays allocated: its entries are unknown
      continue;
    }
    sectors.emplace_back(rec.addr, *std::move(decoded));
  }
  m_.cleaner_walk_sectors->Add(sectors.size());
  // Entries newer than a live object's inode checkpoint are the only record
  // of its current state: checkpoint such objects before anything is freed.
  // Every fallible step happens here, so an error leaves the chunk whole for
  // the next pass to sweep.
  for (const auto& [addr, sector] : sectors) {
    (void)addr;
    const ObjectMapEntry* entry = object_map_.Find(sector.object_id);
    if (entry == nullptr || !entry->live()) {
      continue;
    }
    // A move at the checkpoint's own instant may have been logged after it.
    bool replays = std::any_of(sector.entries.begin(), sector.entries.end(),
                               [entry](const JournalEntry& e) {
                                 return e.type != JournalEntryType::kCheckpoint &&
                                        (e.time > entry->checkpoint_time ||
                                         (e.type == JournalEntryType::kMove &&
                                          e.time == entry->checkpoint_time));
                               });
    if (replays) {
      S4_ASSIGN_OR_RETURN(ObjectHandle obj, LoadObject(sector.object_id));
      S4_RETURN_IF_ERROR(CheckpointObject(sector.object_id, obj.get()));
    }
  }
  uint64_t freed = 0;
  for (const auto& [addr, sector] : sectors) {
    freed += ExpireJournalSector(addr, sector);
  }
  m_.cleaner_sectors_expired->Add(freed);
  return Status::Ok();
}

uint64_t S4Drive::ExpireJournalSector(DiskAddr addr, const JournalSector& sector) {
  ReleaseSectors(addr, 1, /*history=*/false);
  uint64_t freed = 1;
  ObjectId id = sector.object_id;
  ObjectMapEntry* entry = object_map_.Find(id);
  if (entry == nullptr) {
    return freed;
  }
  bool versioned = ObjectIsVersioned(id);
  bool deleted_here = false;
  for (const JournalEntry& e : sector.entries) {
    deleted_here |= e.type == JournalEntryType::kDelete;
    // An expired entry releases the data it superseded.
    if ((e.type == JournalEntryType::kWrite || e.type == JournalEntryType::kTruncate) &&
        versioned && !IsPurged(id, e.time)) {
      for (const auto& d : e.blocks) {
        if (d.old_addr != kNullAddr) {
          const uint32_t sectors = DataRecordSectors(e.old_size, d.block_index);
          ReleaseSectors(d.old_addr, sectors, /*history=*/true);
          freed += sectors;
        }
      }
    }
  }
  if (deleted_here && !entry->live()) {
    return freed + ExpireDeletedObject(id, *entry);
  }
  if (!sector.entries.empty()) {
    entry->history_barrier = std::max(entry->history_barrier, sector.entries.back().time);
  }
  if (entry->journal_head == addr) {
    // The whole chain is gone; the current state lives in the inode
    // checkpoint (the guard in ExpireChunk saw to that).
    entry->journal_head = kNullAddr;
  }
  // Waypoints at or below the barrier point into freed territory.
  entry->PruneWaypoints(entry->history_barrier);
  return freed;
}

uint64_t S4Drive::ExpireDeletedObject(ObjectId id, const ObjectMapEntry& entry) {
  uint64_t freed = 0;
  if (entry.checkpoint_addr != kNullAddr) {
    // The delete-time checkpoint holds the final state, whose blocks became
    // history at the delete, each at its length for the final size.
    auto raw = ReadRecord(entry.checkpoint_addr, entry.checkpoint_sectors);
    Result<Inode> inode = raw.ok() ? Inode::DecodeCheckpoint(*raw) : Result<Inode>(raw.status());
    if (inode.ok()) {
      if (ObjectIsVersioned(id)) {
        for (const auto& [index, baddr] : inode->blocks) {
          if (baddr != kNullAddr) {
            const uint32_t sectors = DataRecordSectors(inode->attrs.size, index);
            ReleaseSectors(baddr, sectors, /*history=*/true);
            freed += sectors;
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
                       << entry.checkpoint_addr
                       << " unreadable during full expiry: " << inode.status().ToString();
    }
    ReleaseSectors(entry.checkpoint_addr, entry.checkpoint_sectors, /*history=*/false);
    freed += entry.checkpoint_sectors;
  }
  object_cache_->Remove(id);
  purged_.erase(id);
  object_map_.Erase(id);
  return freed;
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

  // Phase 1: age-based expiry. The sweep takes everything that aged since
  // the last pass; reclamation is only ever lazier than the guarantee.
  SimTime cutoff =
      options_.versioning_enabled ? clock_->Now() - detection_window_ : clock_->Now();
  S4_RETURN_IF_ERROR(SweepExpiredLog(cutoff));

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
        // A kMove entry on the one block path: applying it frees the old copy.
        S4_ASSIGN_OR_RETURN(Bytes content, ReadRecord(rec.addr, rec.sectors));
        S4_RETURN_IF_ERROR(WriteBlocks(JournalEntryType::kMove, rec.object_id, obj.get(),
                                       rec.block_index * kBlockSize, content,
                                       obj->inode.attrs.size));
        m_.cleaner_sectors_copied->Add(rec.sectors);
        moved_any = true;
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
