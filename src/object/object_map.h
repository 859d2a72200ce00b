// ObjectMap: the drive's authoritative index of every object it has ever
// stored that is still visible — live objects plus deleted objects whose
// versions have not yet aged out of the history pool.
//
// The map is persisted as part of the checkpoint region (together with the
// segment usage table); crash recovery restores the checkpointed map and
// rolls forward over later log chunks.
#ifndef S4_SRC_OBJECT_OBJECT_MAP_H_
#define S4_SRC_OBJECT_OBJECT_MAP_H_

#include <map>
#include <optional>

#include "src/lfs/format.h"
#include "src/object/types.h"

namespace s4 {

// One point of the sparse back-in-time index kept per object: `addr` is a
// journal sector of the object's backward chain and `time` is the newest
// entry time inside that sector. A waypoint is appended every
// `waypoint_interval_sectors` journal sectors at write time (and rebuilt the
// same way by recovery roll-forward), so a time-bounded walk can seek close
// to its target instead of wading through the whole chain from the head.
struct JournalWaypoint {
  SimTime time = 0;
  DiskAddr addr = kNullAddr;
};

struct ObjectMapEntry {
  // Lifetime.
  SimTime create_time = 0;
  SimTime delete_time = 0;  // 0 while live

  // Newest on-disk full-metadata checkpoint, if any.
  DiskAddr checkpoint_addr = kNullAddr;
  uint32_t checkpoint_sectors = 0;
  SimTime checkpoint_time = 0;

  // Newest journal sector of the object's backward chain (kNullAddr if all
  // entries so far are only in memory or none exist).
  DiskAddr journal_head = kNullAddr;

  // History barrier: the newest entry time the cleaner has freed. Versions
  // at or before it are no longer reconstructible. Backward reconstruction
  // never walks past it, so dangling chain pointers into reclaimed segments
  // are never followed.
  SimTime history_barrier = 0;

  // Sparse (time -> journal sector) index, oldest first, times strictly
  // ascending. Every waypoint satisfies time > history_barrier (entries at or
  // below the barrier are reclaimed, so their waypoints are pruned with them)
  // and points at a sector reachable from journal_head.
  std::vector<JournalWaypoint> waypoints;
  // Journal sectors appended since the last waypoint (persists across
  // checkpoints so the cadence survives recovery).
  uint32_t sectors_since_waypoint = 0;

  // Time of the newest kMove entry (0 = none). Entries older than it may
  // name an address compaction vacated, so forward replay needs `at` at or
  // past it.
  SimTime move_time = 0;

  bool live() const { return delete_time == 0; }

  // Waypoint cadence bookkeeping for one appended journal sector whose newest
  // entry time is `newest_time`. `interval` == 0 disables waypoints.
  void NoteJournalSector(SimTime newest_time, DiskAddr addr, uint32_t interval) {
    if (interval == 0) {
      return;
    }
    if (++sectors_since_waypoint >= interval) {
      waypoints.push_back(JournalWaypoint{newest_time, addr});
      sectors_since_waypoint = 0;
    }
  }

  // Oldest waypoint whose time is strictly above `t`, or nullptr. Sectors
  // newer than the returned waypoint's sector hold only entries newer than
  // `t`, so a walk that needs nothing newer than `t` may start there.
  const JournalWaypoint* SeekWaypointAbove(SimTime t) const {
    for (const JournalWaypoint& w : waypoints) {
      if (w.time > t) {
        return &w;
      }
    }
    return nullptr;
  }

  // Number of waypoints at or below `t` (cost estimator for choosing between
  // forward and backward reconstruction).
  size_t WaypointsAtOrBelow(SimTime t) const {
    size_t n = 0;
    while (n < waypoints.size() && waypoints[n].time <= t) {
      ++n;
    }
    return n;
  }

  // Drops waypoints whose sectors the cleaner has reclaimed (every sector
  // whose newest entry is at or below the barrier is freed territory).
  void PruneWaypoints(SimTime barrier) {
    size_t keep = 0;
    while (keep < waypoints.size() && waypoints[keep].time <= barrier) {
      ++keep;
    }
    if (keep > 0) {
      waypoints.erase(waypoints.begin(), waypoints.begin() + keep);
    }
  }
};

class ObjectMap {
 public:
  ObjectMap() = default;

  // Allocates the next ObjectId (never recycled).
  ObjectId AllocateId();
  // The id the next AllocateId call would return.
  ObjectId PeekNextId() const { return next_id_; }

  ObjectMapEntry* Find(ObjectId id);
  const ObjectMapEntry* Find(ObjectId id) const;
  ObjectMapEntry& Put(ObjectId id, ObjectMapEntry entry);
  void Erase(ObjectId id);

  size_t size() const { return entries_.size(); }
  const std::map<ObjectId, ObjectMapEntry>& entries() const { return entries_; }
  std::map<ObjectId, ObjectMapEntry>& mutable_entries() { return entries_; }

  // Ensures future AllocateId calls return ids above `id` (used by recovery
  // roll-forward when it encounters creates newer than the checkpoint).
  void ReserveThrough(ObjectId id);

  void EncodeTo(Encoder* enc) const;
  static Result<ObjectMap> DecodeFrom(Decoder* dec);

 private:
  ObjectId next_id_ = kFirstUserObjectId;
  std::map<ObjectId, ObjectMapEntry> entries_;
};

}  // namespace s4

#endif  // S4_SRC_OBJECT_OBJECT_MAP_H_
