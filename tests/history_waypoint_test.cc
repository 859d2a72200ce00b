// Version waypoints and the journal-sector cache: cadence, persistence
// across checkpoint/remount/recovery, forward-vs-backward reconstruction
// equivalence, seek savings, cache coherence against the cleaner and against
// address reuse, object reloads served from the decoded cache, and a
// crash-point sweep with a checkpoint-heavy option set.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "tests/crash_harness.h"
#include "tests/test_util.h"

namespace s4 {
namespace {

// A small waypoint interval makes every behaviour observable with short
// chains; each Sync flushes at least one journal sector per dirty object.
S4DriveOptions WaypointOptions(uint32_t interval = 2) {
  S4DriveOptions o = DriveTest::SmallOptions();
  o.waypoint_interval_sectors = interval;
  return o;
}

class WaypointTest : public DriveTest {
 protected:
  void SetUp() override { SetUpDrive(WaypointOptions(), 64ull << 20); }

  // One synced version per call: a write followed by Sync flushes the
  // pending journal entries into (at least) one on-disk sector.
  void WriteVersion(ObjectId id, const Bytes& data) {
    Credentials alice = User(100);
    clock_->Advance(kSecond);
    ASSERT_OK(drive_->Write(alice, id, 0, data));
    ASSERT_OK(drive_->Sync(alice));
  }

  // The attributes object `id` gets in the round named `tag`.
  static Bytes RoundAttrs(const std::string& tag, ObjectId id) {
    return BytesOf(tag + "/" + std::to_string(id));
  }

  // One round: every object in `ids` sets its round attributes, then one
  // Sync. Each object flushes one journal sector per round.
  void SetAttrRound(const std::vector<ObjectId>& ids, const std::string& tag) {
    clock_->Advance(kSecond);
    for (ObjectId id : ids) {
      ASSERT_OK(drive_->SetAttr(User(100), id, RoundAttrs(tag, id)));
    }
    ASSERT_OK(drive_->Sync(User(100)));
  }

  // 64 objects of 70 rounds each: more sectors than the 4,096-entry jsector
  // cache holds, so walking them all evicts every other decoded sector.
  void WriteReaders(std::vector<ObjectId>* readers) {
    for (int i = 0; i < 64; ++i) {
      ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(User(100), {}));
      readers->push_back(id);
    }
    for (int round = 0; round < 70; ++round) {
      ASSERT_NO_FATAL_FAILURE(SetAttrRound(*readers, "reader " + std::to_string(round)));
    }
  }

  void WalkAll(const std::vector<ObjectId>& ids) {
    for (ObjectId id : ids) {
      ASSERT_OK(drive_->GetVersionList(Admin(), id).status());
    }
  }

  // Admin ballast until at most one segment is free, then a remount (cold
  // caches), cleaner passes that expire and compact whatever they can, and
  // a checkpoint: the segments the cleaner freed are the only place left
  // for the log to write.
  void FillDiskAndClean() {
    auto free_segments = [&] {
      const SegmentUsageTable& sut = drive_->usage_table();
      uint32_t n = 0;
      for (SegmentId seg = 0; seg < sut.segment_count(); ++seg) {
        n += sut.Info(seg).state == SegmentState::kFree ? 1 : 0;
      }
      return n;
    };
    ASSERT_OK_AND_ASSIGN(ObjectId ballast, drive_->Create(Admin(), {}));
    Rng rng(16);
    while (free_segments() > 1) {
      ASSERT_OK(drive_->Append(Admin(), ballast, rng.RandomBytes(64 << 10)).status());
      ASSERT_OK(drive_->Sync(Admin()));
    }
    ASSERT_OK(drive_->Unmount());
    drive_.reset();
    ASSERT_OK_AND_ASSIGN(drive_, S4Drive::Mount(device_.get(), clock_.get(), opts_));
    for (int pass = 0; pass < 4; ++pass) {
      ASSERT_OK(drive_->RunCleanerPass(8, /*force_compaction=*/true).status());
    }
    ASSERT_OK(drive_->WriteCheckpoint());
  }
};

TEST_F(WaypointTest, WaypointsFollowTheConfiguredCadence) {
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  for (int i = 0; i < 12; ++i) {
    WriteVersion(id, BytesOf("version " + std::to_string(i)));
  }
  auto entry = drive_->DebugObjectEntry(id);
  ASSERT_TRUE(entry.has_value());
  // 12 syncs produced at least 12 sectors; with interval 2 that is at least
  // 6 waypoints. Times must be strictly ascending and above the barrier.
  EXPECT_GE(entry->waypoints.size(), 6u);
  SimTime prev = entry->history_barrier;
  for (const JournalWaypoint& w : entry->waypoints) {
    EXPECT_GT(w.time, prev);
    EXPECT_NE(w.addr, kNullAddr);
    prev = w.time;
  }
  EXPECT_OK(drive_->VerifyObjectWaypoints(id));

  // Seek semantics: the oldest waypoint strictly above a time t must exist
  // for any t below the newest waypoint, and be the first such.
  SimTime mid = entry->waypoints[entry->waypoints.size() / 2].time;
  const JournalWaypoint* w = entry->SeekWaypointAbove(mid - 1);
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->time, mid);
  EXPECT_EQ(entry->SeekWaypointAbove(entry->waypoints.back().time), nullptr);
}

TEST_F(WaypointTest, DisabledIntervalRecordsNoWaypoints) {
  SetUpDrive(WaypointOptions(/*interval=*/0), 64ull << 20);
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  for (int i = 0; i < 8; ++i) {
    WriteVersion(id, BytesOf("v" + std::to_string(i)));
  }
  auto entry = drive_->DebugObjectEntry(id);
  ASSERT_TRUE(entry.has_value());
  EXPECT_TRUE(entry->waypoints.empty());
  EXPECT_OK(drive_->VerifyObjectWaypoints(id));
}

TEST_F(WaypointTest, WaypointsSurviveCrashAndRecovery) {
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  std::vector<std::pair<SimTime, Bytes>> versions;
  for (int i = 0; i < 16; ++i) {
    Bytes data = BytesOf("persisted version " + std::to_string(i));
    WriteVersion(id, data);
    versions.emplace_back(clock_->Now(), data);
  }
  auto before = drive_->DebugObjectEntry(id);
  ASSERT_TRUE(before.has_value());
  ASSERT_FALSE(before->waypoints.empty());

  // Recovery = checkpoint load + roll-forward; the rebuilt cadence must be
  // byte-identical because sectors_since_waypoint is checkpointed and
  // post-checkpoint sectors are re-noted in append order.
  CrashAndRemount();
  auto after = drive_->DebugObjectEntry(id);
  ASSERT_TRUE(after.has_value());
  ASSERT_EQ(after->waypoints.size(), before->waypoints.size());
  for (size_t i = 0; i < before->waypoints.size(); ++i) {
    EXPECT_EQ(after->waypoints[i].time, before->waypoints[i].time) << "waypoint " << i;
    EXPECT_EQ(after->waypoints[i].addr, before->waypoints[i].addr) << "waypoint " << i;
  }
  EXPECT_EQ(after->sectors_since_waypoint, before->sectors_since_waypoint);
  EXPECT_OK(drive_->VerifyAllWaypoints());

  // And the history they index is still fully reconstructible.
  for (const auto& [t, data] : versions) {
    ASSERT_OK_AND_ASSIGN(Bytes got, drive_->Read(Admin(), id, 0, data.size(), t));
    EXPECT_EQ(got, data);
  }
}

TEST_F(WaypointTest, RecoveryRebuildsWaypointsAcrossDeviceCheckpoints) {
  // A tiny checkpoint interval forces several device checkpoints inside the
  // workload, so recovery exercises both halves: waypoints restored from the
  // checkpointed object map AND waypoints re-noted by roll-forward.
  S4DriveOptions o = WaypointOptions();
  o.checkpoint_interval_bytes = 64 << 10;
  SetUpDrive(o, 64ull << 20);
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  Rng rng(11);
  for (int i = 0; i < 24; ++i) {
    clock_->Advance(kSecond);
    ASSERT_OK(drive_->Write(alice, id, 0, rng.RandomBytes(16 * 1024)));
    ASSERT_OK(drive_->Sync(alice));
  }
  auto before = drive_->DebugObjectEntry(id);
  ASSERT_TRUE(before.has_value());
  CrashAndRemount();
  auto after = drive_->DebugObjectEntry(id);
  ASSERT_TRUE(after.has_value());
  ASSERT_EQ(after->waypoints.size(), before->waypoints.size());
  for (size_t i = 0; i < before->waypoints.size(); ++i) {
    EXPECT_EQ(after->waypoints[i].time, before->waypoints[i].time) << "waypoint " << i;
    EXPECT_EQ(after->waypoints[i].addr, before->waypoints[i].addr) << "waypoint " << i;
  }
  EXPECT_OK(drive_->VerifyAllWaypoints());
}

TEST_F(WaypointTest, ForwardAndBackwardReconstructionAgree) {
  // Oracle test across the whole depth range: early versions are rebuilt by
  // forward replay (cheaper from the create end), recent ones by backward
  // undo. Both must reproduce the modelled contents exactly.
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  Rng rng(7);
  std::vector<std::pair<SimTime, Bytes>> versions;
  Bytes content;
  for (int i = 0; i < 40; ++i) {
    clock_->Advance(kSecond);
    uint64_t off = rng.Below(8) * 512;
    Bytes patch = rng.RandomBytes(512 + rng.Below(2048));
    ASSERT_OK(drive_->Write(alice, id, off, patch));
    if (content.size() < off + patch.size()) {
      content.resize(off + patch.size(), 0);
    }
    std::copy(patch.begin(), patch.end(), content.begin() + off);
    ASSERT_OK(drive_->Sync(alice));
    versions.emplace_back(clock_->Now(), content);
  }

  uint64_t forward_before = drive_->metrics().CounterValue("history.forward_reconstructions");
  for (const auto& [t, data] : versions) {
    ASSERT_OK_AND_ASSIGN(Bytes got, drive_->Read(Admin(), id, 0, data.size(), t));
    ASSERT_EQ(got, data) << "version at t=" << t;
    ASSERT_OK_AND_ASSIGN(ObjectAttrs attrs, drive_->GetAttr(Admin(), id, t));
    EXPECT_EQ(attrs.size, data.size());
  }
  // The early targets are closer to the create end than to the present, so
  // at least some reads must have taken the forward-replay path.
  EXPECT_GT(drive_->metrics().CounterValue("history.forward_reconstructions"), forward_before);
}

TEST_F(WaypointTest, WaypointSeekShortensBoundedWalks) {
  // A purge bounded at an old time must seek past the newer chain instead of
  // reading it: with waypoints the bounded walk reads far fewer sectors than
  // the chain holds.
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  std::vector<SimTime> times;
  for (int i = 0; i < 32; ++i) {
    WriteVersion(id, BytesOf("seek target " + std::to_string(i)));
    times.push_back(clock_->Now());
  }
  uint64_t seeks_before = drive_->metrics().CounterValue("history.waypoint_seeks");
  uint64_t read_before = drive_->metrics().CounterValue("history.walk_sectors_read");
  // Bound the walk at the 4th version: everything newer is skippable.
  ASSERT_OK(drive_->FlushObject(Admin(), id, times[0], times[3]));
  uint64_t seeks = drive_->metrics().CounterValue("history.waypoint_seeks") - seeks_before;
  uint64_t read = drive_->metrics().CounterValue("history.walk_sectors_read") - read_before;
  EXPECT_GE(seeks, 1u);
  // 32 synced versions put well over 16 sectors on the chain; the bounded
  // walk must have skipped most of them (interval 2 leaves at most ~2
  // sectors of overshoot past the seek point, plus the target territory).
  EXPECT_LT(read, 16u);
}

TEST_F(WaypointTest, JournalSectorCacheServesRepeatWalks) {
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  for (int i = 0; i < 10; ++i) {
    WriteVersion(id, BytesOf("cached " + std::to_string(i)));
  }
  // Drop the object cache state? Not needed: version-list walks always read
  // the on-disk chain. The first walk warms the jsector cache, the second
  // must be served from it.
  ASSERT_OK(drive_->GetVersionList(Admin(), id).status());
  uint64_t hits_before = drive_->metrics().CounterValue("cache.jsector.hits");
  uint64_t misses_before = drive_->metrics().CounterValue("cache.jsector.misses");
  ASSERT_OK_AND_ASSIGN(std::vector<VersionInfo> versions, drive_->GetVersionList(Admin(), id));
  EXPECT_GE(versions.size(), 10u);
  EXPECT_GT(drive_->metrics().CounterValue("cache.jsector.hits"), hits_before);
  EXPECT_EQ(drive_->metrics().CounterValue("cache.jsector.misses"), misses_before);
}

TEST_F(WaypointTest, AuditSyncsNeverPushHistorySectorsOutOfTheCache) {
  // The unversioned audit log appends one journal sector per Sync, and no
  // history read walks them. More Syncs than the 4,096-sector jsector cache
  // holds must leave an object's sectors cached for its history reads.
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  WriteVersion(id, BytesOf("v1"));
  SimTime v1 = clock_->Now();
  WriteVersion(id, BytesOf("v2"));
  for (int i = 0; i < 4200; ++i) {
    ASSERT_OK(drive_->Sync(alice));
  }
  const MetricRegistry& m = drive_->metrics();
  uint64_t hits = m.CounterValue("cache.jsector.hits");
  uint64_t misses = m.CounterValue("cache.jsector.misses");
  ASSERT_OK_AND_ASSIGN(Bytes then, drive_->Read(Admin(), id, 0, 2, v1));
  EXPECT_EQ(then, BytesOf("v1"));
  EXPECT_GT(m.CounterValue("cache.jsector.hits"), hits);
  EXPECT_EQ(m.CounterValue("cache.jsector.misses"), misses);
}

TEST_F(WaypointTest, CacheStaysCoherentWhenCleanerFreesSectors) {
  // Warm the jsector cache with a deep walk, expire the history, clean, then
  // churn enough new data through the log that the freed segments are reused.
  // If the cleaner failed to invalidate the cache, later walks would decode
  // stale sectors at reused addresses and misattribute history.
  S4DriveOptions o = WaypointOptions();
  o.detection_window = 10 * kMinute;
  SetUpDrive(o, 16ull << 20);
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  Rng rng(9);
  for (int i = 0; i < 20; ++i) {
    clock_->Advance(kSecond);
    ASSERT_OK(drive_->Write(alice, id, 0, rng.RandomBytes(8 * 1024)));
    ASSERT_OK(drive_->Sync(alice));
  }
  SimTime old_version = clock_->Now();
  ASSERT_OK(drive_->GetVersionList(Admin(), id).status());  // warms the cache

  clock_->Advance(2 * o.detection_window);
  ASSERT_OK(drive_->RunCleanerPass(8).status());
  EXPECT_EQ(drive_->Read(Admin(), id, 0, 64, old_version - kSecond).status().code(),
            ErrorCode::kFailedPrecondition);

  // Reuse the reclaimed space with a fresh object's history.
  ASSERT_OK_AND_ASSIGN(ObjectId fresh, drive_->Create(alice, {}));
  std::vector<std::pair<SimTime, Bytes>> versions;
  for (int i = 0; i < 20; ++i) {
    clock_->Advance(kSecond);
    Bytes data = rng.RandomBytes(8 * 1024);
    ASSERT_OK(drive_->Write(alice, fresh, 0, data));
    ASSERT_OK(drive_->Sync(alice));
    versions.emplace_back(clock_->Now(), data);
  }
  for (const auto& [t, data] : versions) {
    ASSERT_OK_AND_ASSIGN(Bytes got, drive_->Read(Admin(), fresh, 0, data.size(), t));
    EXPECT_EQ(got, data);
  }
  EXPECT_OK(drive_->VerifyAllWaypoints());
}

TEST_F(WaypointTest, LoadObjectReplaysThroughDecodedSectorCache) {
  // An appended journal sector is cached only in decoded form, so reloading
  // an evicted object must replay its chain from the jsector cache without
  // reading a sector from the platter.
  S4DriveOptions o = WaypointOptions();
  o.block_cache_bytes = 16ull << 20;  // keeps the inode checkpoint cached
  SetUpDrive(o, 64ull << 20);
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, BytesOf("attrs")));
  for (int i = 0; i < 4; ++i) {
    clock_->Advance(kSecond);
    ASSERT_OK(drive_->SetAttr(alice, id, BytesOf("attrs " + std::to_string(i))));
    ASSERT_OK(drive_->Sync(alice));
  }
  // About 1,000 newer objects push the target out of the 64 KB object cache.
  for (int i = 0; i < 1000; ++i) {
    ASSERT_OK(drive_->Create(alice, {}).status());
  }
  ASSERT_OK(drive_->Sync(alice));

  const MetricRegistry& m = drive_->metrics();
  uint64_t jsector_hits = m.CounterValue("cache.jsector.hits");
  uint64_t sectors_read = m.CounterValue("cache.sectors_read");
  ASSERT_OK_AND_ASSIGN(ObjectAttrs attrs, drive_->GetAttr(alice, id));
  EXPECT_EQ(attrs.opaque, BytesOf("attrs 3"));
  EXPECT_GT(m.CounterValue("cache.jsector.hits"), jsector_hits);
  EXPECT_EQ(m.CounterValue("cache.sectors_read"), sectors_read);
}

TEST_F(WaypointTest, ReusedJournalSectorNeverServesItsPreviousLife) {
  // A clustered journal-sector read caches its raw neighbours from the
  // platter, including neighbours the cleaner has already freed. When the
  // log reuses such an address for another object's journal sector and the
  // decoded copy is later evicted, a history walk must read the new sector,
  // not the stale raw copy of the old one (which would end the walk early
  // and return a newer version's attributes with an OK status).
  S4DriveOptions o = WaypointOptions(/*interval=*/1);  // every sector a waypoint
  o.detection_window = 10 * kMinute;
  o.block_cache_bytes = 16ull << 20;
  SetUpDrive(o, 32ull << 20);
  Credentials alice = User(100);
  auto sector_addrs = [&](ObjectId id) {
    std::vector<DiskAddr> addrs;
    auto entry = drive_->DebugObjectEntry(id);
    if (entry.has_value()) {
      for (const JournalWaypoint& w : entry->waypoints) {
        addrs.push_back(w.addr);
      }
    }
    return addrs;
  };

  // Journal sectors of objects that are then deleted and age out.
  std::vector<ObjectId> doomed;
  for (int i = 0; i < 64; ++i) {
    ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
    doomed.push_back(id);
  }
  for (int round = 0; round < 8; ++round) {
    ASSERT_NO_FATAL_FAILURE(SetAttrRound(doomed, "doomed " + std::to_string(round)));
  }
  std::set<DiskAddr> freed_addrs;
  for (ObjectId id : doomed) {
    for (DiskAddr a : sector_addrs(id)) {
      freed_addrs.insert(a);
    }
    ASSERT_OK(drive_->Delete(alice, id));
  }
  ASSERT_OK(drive_->Sync(alice));
  clock_->Advance(2 * o.detection_window);
  std::vector<ObjectId> readers;
  ASSERT_NO_FATAL_FAILURE(WriteReaders(&readers));
  // The cleaner walks the deleted chains from cold caches, so its clustered
  // reads refill addresses it has just freed.
  ASSERT_NO_FATAL_FAILURE(FillDiskAndClean());

  // Fresh objects write until their journal sectors land on freed
  // addresses, then two more rounds.
  std::vector<ObjectId> fresh;
  for (int i = 0; i < 64; ++i) {
    ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
    fresh.push_back(id);
  }
  auto reused_count = [&] {
    size_t n = 0;
    for (ObjectId id : fresh) {
      for (DiskAddr a : sector_addrs(id)) {
        n += freed_addrs.count(a);
      }
    }
    return n;
  };
  std::vector<std::pair<SimTime, std::string>> rounds;
  for (int extra = 2; extra > 0 && rounds.size() < 200;) {
    std::string tag = "fresh " + std::to_string(rounds.size());
    ASSERT_NO_FATAL_FAILURE(SetAttrRound(fresh, tag));
    rounds.emplace_back(clock_->Now(), tag);
    if (reused_count() > 0) {
      --extra;
    }
  }
  ASSERT_GT(reused_count(), 0u) << "no freed journal-sector address was reused";

  // The reader walks evict the fresh decoded sectors; every fresh version
  // must still read back exactly.
  ASSERT_NO_FATAL_FAILURE(WalkAll(readers));
  for (ObjectId id : fresh) {
    for (const auto& [t, tag] : rounds) {
      ASSERT_OK_AND_ASSIGN(ObjectAttrs attrs, drive_->GetAttr(Admin(), id, t));
      EXPECT_EQ(attrs.opaque, RoundAttrs(tag, id)) << "object " << id;
    }
  }
}

TEST_F(WaypointTest, ClusteredReadNeverCachesAPendingNeighbour) {
  // A clustered read also fills the raw neighbours below the sector it
  // fetches. A journal sector still pending in the writer's open chunk has
  // a stale platter image and, being cached only decoded, no raw entry to
  // shield it. Here a history walk reads a freed address a few sectors
  // above such a pending sector; once the sector is flushed and its decoded
  // copy evicted, a time-based read must still see its real bytes.
  // No waypoints: the time-based read must walk back through the sector.
  S4DriveOptions o = WaypointOptions(/*interval=*/0);
  o.detection_window = 10 * kMinute;
  o.block_cache_bytes = 64ull << 20;  // keeps every raw fill to the end
  o.journal_flush_entries = 1;        // a SetAttr appends its sector at once
  SetUpDrive(o, 32ull << 20);
  Credentials alice = User(100);
  auto head = [&](ObjectId id) { return drive_->DebugObjectEntry(id)->journal_head; };

  // X's first versions age out. A walk past X's surviving versions reads
  // `freed`, the newest expired sector, whose segment the cleaner frees.
  ASSERT_OK_AND_ASSIGN(ObjectId x, drive_->Create(alice, {}));
  for (int round = 0; round < 8; ++round) {
    ASSERT_NO_FATAL_FAILURE(SetAttrRound({x}, "x " + std::to_string(round)));
  }
  DiskAddr freed = head(x);
  ASSERT_OK_AND_ASSIGN(ObjectId spacer, drive_->Create(alice, {}));
  ASSERT_OK(drive_->Write(alice, spacer, 0, Bytes(o.segment_sectors * kSectorSize, 0x5a)));
  ASSERT_OK(drive_->Delete(alice, spacer));
  ASSERT_OK(drive_->Sync(alice));
  clock_->Advance(2 * o.detection_window);
  for (int round = 8; round < 10; ++round) {
    ASSERT_NO_FATAL_FAILURE(SetAttrRound({x}, "x " + std::to_string(round)));
  }
  ASSERT_OK_AND_ASSIGN(ObjectId y, drive_->Create(alice, {}));
  ASSERT_NO_FATAL_FAILURE(SetAttrRound({y}, "v1"));
  SimTime v1_time = clock_->Now();
  std::vector<ObjectId> readers;
  ASSERT_NO_FATAL_FAILURE(WriteReaders(&readers));
  ASSERT_NO_FATAL_FAILURE(FillDiskAndClean());
  const Superblock& sb = drive_->superblock();
  ASSERT_EQ(drive_->usage_table().Info(sb.SegmentOf(freed)).state, SegmentState::kFree);

  // Append one sector at a time until the log is just below `freed`, then
  // append Y's next version there and leave it pending.
  ASSERT_OK(drive_->GetAttr(alice, y).status());  // loads Y far from `freed`
  ASSERT_OK_AND_ASSIGN(ObjectId filler, drive_->Create(alice, {}));
  for (int i = 0; i < 20000; ++i) {
    DiskAddr a = head(filler);
    if (a != kNullAddr && sb.SegmentOf(a) == sb.SegmentOf(freed) && a + 8 >= freed &&
        a + 2 <= freed) {
      break;
    }
    ASSERT_OK(drive_->SetAttr(alice, filler, BytesOf("filler")));
  }
  ASSERT_OK(drive_->SetAttr(alice, y, RoundAttrs("v2", y)));
  DiskAddr pending = head(y);
  ASSERT_TRUE(pending < freed && pending + 7 >= freed)
      << "Y's sector landed at " << pending << ", not within 7 below " << freed;
  uint64_t chunks = drive_->writer_stats().chunks_flushed;
  ASSERT_OK(drive_->GetVersionList(Admin(), x).status());
  ASSERT_EQ(drive_->writer_stats().chunks_flushed, chunks) << "Y's sector was flushed too soon";

  // Flush Y's sector, evict its decoded copy, and read the version before.
  ASSERT_OK(drive_->Sync(alice));
  ASSERT_NO_FATAL_FAILURE(WalkAll(readers));
  ASSERT_OK_AND_ASSIGN(ObjectAttrs then, drive_->GetAttr(Admin(), y, v1_time));
  EXPECT_EQ(then.opaque, RoundAttrs("v1", y));
  ASSERT_OK_AND_ASSIGN(ObjectAttrs now, drive_->GetAttr(Admin(), y));
  EXPECT_EQ(now.opaque, RoundAttrs("v2", y));
}

TEST_F(WaypointTest, PurgedRangesNeverUseForwardReplay) {
  // Forward replay re-derives block addresses from the *superseded* entries,
  // which carry no purge knowledge; reconstruction must fall back to the
  // backward path (which consults the purge list) once any range is purged.
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  std::vector<SimTime> times;
  for (int i = 0; i < 24; ++i) {
    WriteVersion(id, BytesOf("purge probe " + std::to_string(i)));
    times.push_back(clock_->Now());
  }
  ASSERT_OK(drive_->FlushObject(Admin(), id, times[4], times[6]));
  uint64_t forward_before = drive_->metrics().CounterValue("history.forward_reconstructions");
  // A purged-range read fails loudly rather than returning reused contents.
  EXPECT_EQ(drive_->Read(Admin(), id, 0, 64, times[5]).status().code(),
            ErrorCode::kFailedPrecondition);
  // An early (pre-purge) version is still exact — via the backward path.
  ASSERT_OK_AND_ASSIGN(Bytes got, drive_->Read(Admin(), id, 0, 64, times[2]));
  EXPECT_EQ(StringOf(Bytes(got.begin(), got.begin() + 13)), "purge probe 2");
  EXPECT_EQ(drive_->metrics().CounterValue("history.forward_reconstructions"), forward_before);
}

TEST(WaypointCrashSweep, PowerCutNeverLeavesTornWaypoints) {
  // Sweep power cuts across every write boundary of a checkpoint-heavy
  // workload, clean-cut and torn-tail. The harness's post-recovery
  // invariants include VerifyAllWaypoints: a cut mid-checkpoint or mid-chunk
  // must never leave a waypoint pointing at torn or unreachable territory.
  S4DriveOptions o = WaypointOptions();
  o.checkpoint_interval_bytes = 32 << 10;  // checkpoint storms inside the sweep
  std::vector<ScriptOp> script;
  auto op = [](ScriptOp::Kind kind, size_t slot, uint64_t length = 0, uint8_t fill = 0) {
    ScriptOp so{};
    so.kind = kind;
    so.slot = slot;
    so.length = length;
    so.fill = fill;
    return so;
  };
  script.push_back(op(ScriptOp::kCreate, 0));
  script.push_back(op(ScriptOp::kCreate, 1));
  for (int round = 0; round < 6; ++round) {
    uint8_t fill = static_cast<uint8_t>(0x10 + round);
    script.push_back(op(ScriptOp::kWrite, 0, 4096, fill));
    script.push_back(op(ScriptOp::kAppend, 1, 2048, fill));
    script.push_back(op(ScriptOp::kSync, 0));
  }
  CrashHarness harness(script, o);
  uint64_t points = harness.CountWritePoints();
  ASSERT_GT(points, 0u);
  for (uint64_t k = 1; k <= points; ++k) {
    harness.RunCrashPoint(k, /*torn_tail=*/false);
    harness.RunCrashPoint(k, /*torn_tail=*/true);
  }
}

}  // namespace
}  // namespace s4
