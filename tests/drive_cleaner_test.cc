// Cleaner behaviour: age-based expiry, the guaranteed detection window
// (safety invariant: nothing inside the window is ever freed), segment
// reclamation, and compaction under space pressure.
#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace s4 {
namespace {

TEST_F(DriveTest, NothingExpiresInsideWindow) {
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  ASSERT_OK(drive_->Write(alice, id, 0, BytesOf("v1")));
  SimTime t1 = clock_->Now();
  clock_->Advance(kMinute);
  ASSERT_OK(drive_->Write(alice, id, 0, BytesOf("v2")));
  ASSERT_OK(drive_->Sync(alice));

  // Cleaner runs well inside the 1-hour window: v1 must survive.
  clock_->Advance(10 * kMinute);
  ASSERT_OK_AND_ASSIGN(uint32_t freed, drive_->RunCleanerPass(4));
  (void)freed;
  ASSERT_OK_AND_ASSIGN(Bytes old, drive_->Read(alice, id, 0, 64, t1));
  EXPECT_EQ(StringOf(old), "v1");
}

TEST_F(DriveTest, OldVersionsExpireAfterWindow) {
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  ASSERT_OK(drive_->Write(alice, id, 0, BytesOf("ancient")));
  SimTime t1 = clock_->Now();
  clock_->Advance(kSecond);
  ASSERT_OK(drive_->Write(alice, id, 0, BytesOf("still current")));
  ASSERT_OK(drive_->Sync(alice));

  clock_->Advance(2 * kHour);  // window is 1 hour
  ASSERT_OK(drive_->RunCleanerPass(4).status());

  // The expired version is refused; the current version is intact.
  EXPECT_EQ(drive_->Read(Admin(), id, 0, 64, t1).status().code(),
            ErrorCode::kFailedPrecondition);
  ASSERT_OK_AND_ASSIGN(Bytes cur, drive_->Read(alice, id, 0, 64));
  EXPECT_EQ(StringOf(cur), "still current");
}

TEST_F(DriveTest, DeletedObjectsFullyReclaimedAfterWindow) {
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  ASSERT_OK(drive_->Write(alice, id, 0, BytesOf("short-lived")));
  clock_->Advance(kSecond);
  ASSERT_OK(drive_->Delete(alice, id));
  ASSERT_OK(drive_->Sync(alice));
  uint64_t history_before = drive_->HistoryPoolBytes();
  EXPECT_GT(history_before, 0u);

  clock_->Advance(2 * kHour);
  ASSERT_OK(drive_->RunCleanerPass(4).status());

  // Object gone entirely: even admin time-reads fail, space reclaimed.
  EXPECT_EQ(drive_->Read(Admin(), id, 0, 64, clock_->Now() - 2 * kHour).status().code(),
            ErrorCode::kNotFound);
  EXPECT_LT(drive_->HistoryPoolBytes(), history_before);
}

TEST_F(DriveTest, HistoryPoolShrinksWhenVersionsAge) {
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  Rng rng(1);
  Bytes data = rng.RandomBytes(64 * 1024);
  ASSERT_OK(drive_->Write(alice, id, 0, data));
  for (int i = 0; i < 10; ++i) {
    clock_->Advance(kMinute);
    Bytes patch = rng.RandomBytes(64 * 1024);
    ASSERT_OK(drive_->Write(alice, id, 0, patch));
  }
  ASSERT_OK(drive_->Sync(alice));
  uint64_t history_full = drive_->HistoryPoolBytes();
  EXPECT_GT(history_full, 9 * 64 * 1024u);

  clock_->Advance(2 * kHour);
  ASSERT_OK(drive_->RunCleanerPass(8).status());
  EXPECT_EQ(drive_->HistoryPoolBytes(), 0u);
}

TEST_F(DriveTest, SegmentsBecomeFreeAgain) {
  // Churn data far past the window; after cleaning, utilization returns to a
  // low level instead of only ever growing.
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  Rng rng(2);
  for (int round = 0; round < 20; ++round) {
    Bytes data = rng.RandomBytes(128 * 1024);
    ASSERT_OK(drive_->Write(alice, id, 0, data));
    ASSERT_OK(drive_->Sync(alice));
    clock_->Advance(10 * kMinute);
  }
  double util_before = drive_->SpaceUtilization();
  clock_->Advance(2 * kHour);
  ASSERT_OK(drive_->RunCleanerPass(16).status());
  double util_after = drive_->SpaceUtilization();
  EXPECT_LT(util_after, util_before);
  EXPECT_GT(drive_->metrics().CounterValue("cleaner.segments_reclaimed"), 0u);

  // Current data still correct after reclamation.
  ASSERT_OK_AND_ASSIGN(ObjectAttrs attrs, drive_->GetAttr(alice, id));
  EXPECT_EQ(attrs.size, 128 * 1024u);
}

TEST_F(DriveTest, ReclaimedSegmentsAreReusable) {
  // Fill, expire, clean — then keep writing well past the original capacity.
  // Only works if reclaimed segments actually return to service.
  SetUpDrive([] {
    S4DriveOptions o = SmallOptions();
    o.detection_window = 10 * kMinute;
    return o;
  }(), 16ull << 20);
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  Rng rng(3);
  // Total writes: ~40MB onto a 16MB disk.
  for (int round = 0; round < 320; ++round) {
    Bytes data = rng.RandomBytes(128 * 1024);
    ASSERT_OK(drive_->Write(alice, id, 0, data));
    clock_->Advance(kMinute);
    if (drive_->CleanerNeeded()) {
      ASSERT_OK(drive_->RunCleanerPass(8).status());
    }
  }
  ASSERT_OK_AND_ASSIGN(ObjectAttrs attrs, drive_->GetAttr(alice, id));
  EXPECT_EQ(attrs.size, 128 * 1024u);
}

TEST_F(DriveTest, CleanerSafetyUnderMixedWorkload) {
  // Randomized writes/deletes with periodic cleaning; every version that is
  // still inside the window must remain exactly reconstructible (oracle).
  SetUpDrive([] {
    S4DriveOptions o = SmallOptions();
    o.detection_window = 30 * kMinute;
    return o;
  }(), 64ull << 20);
  Credentials alice = User(100);
  Rng rng(4);
  struct Snapshot {
    SimTime time;
    Bytes content;
  };
  std::map<ObjectId, std::vector<Snapshot>> oracle;
  std::vector<ObjectId> live;

  for (int step = 0; step < 200; ++step) {
    clock_->Advance(kMinute);
    uint64_t action = rng.Below(10);
    if (action < 2 || live.empty()) {
      ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
      live.push_back(id);
      oracle[id].push_back({clock_->Now(), {}});
    } else if (action < 8) {
      ObjectId id = live[rng.Below(live.size())];
      Bytes data = rng.RandomBytes(1 + rng.Below(30000));
      ASSERT_OK(drive_->Write(alice, id, 0, data));
      // Oracle content: overwrite prefix of previous content.
      Bytes full = oracle[id].back().content;
      if (full.size() < data.size()) {
        full.resize(data.size());
      }
      std::copy(data.begin(), data.end(), full.begin());
      oracle[id].push_back({clock_->Now(), full});
    } else if (action == 8) {
      ObjectId id = live[rng.Below(live.size())];
      ASSERT_OK(drive_->Sync(alice));
      (void)id;
    } else {
      size_t pick = rng.Below(live.size());
      ObjectId id = live[pick];
      ASSERT_OK(drive_->Delete(alice, id));
      live.erase(live.begin() + pick);
    }
    if (step % 20 == 19) {
      ASSERT_OK(drive_->RunCleanerPass(4).status());
      // Verify all oracle versions still inside the window.
      SimTime cutoff = clock_->Now() - 30 * kMinute;
      for (const auto& [id, snaps] : oracle) {
        for (const auto& snap : snaps) {
          if (snap.time <= cutoff || snap.content.empty()) {
            continue;
          }
          auto got = drive_->Read(Admin(), id, 0, snap.content.size(), snap.time);
          ASSERT_TRUE(got.ok()) << "obj " << id << " at " << snap.time << ": "
                                << got.status().ToString();
          ASSERT_EQ(*got, snap.content) << "obj " << id << " at " << snap.time;
        }
      }
    }
  }
}

TEST_F(DriveTest, CompactionRelocatesLiveData) {
  // Build fragmented segments (interleave long-lived and short-lived data),
  // expire the short-lived parts, and force compaction.
  SetUpDrive([] {
    S4DriveOptions o = SmallOptions();
    o.detection_window = 5 * kMinute;
    return o;
  }(), 16ull << 20);
  Credentials alice = User(100);
  Rng rng(5);
  std::vector<std::pair<ObjectId, Bytes>> keepers;
  for (int i = 0; i < 40; ++i) {
    ASSERT_OK_AND_ASSIGN(ObjectId keeper, drive_->Create(alice, {}));
    Bytes keep_data = rng.RandomBytes(8 * 1024);
    ASSERT_OK(drive_->Write(alice, keeper, 0, keep_data));
    keepers.emplace_back(keeper, keep_data);
    ASSERT_OK_AND_ASSIGN(ObjectId chaff, drive_->Create(alice, {}));
    ASSERT_OK(drive_->Write(alice, chaff, 0, rng.RandomBytes(120 * 1024)));
    ASSERT_OK(drive_->Delete(alice, chaff));
    clock_->Advance(kMinute);
  }
  ASSERT_OK(drive_->Sync(alice));
  clock_->Advance(10 * kMinute);
  for (int i = 0; i < 8; ++i) {
    ASSERT_OK(drive_->RunCleanerPass(8, /*force_compaction=*/true).status());
  }
  EXPECT_GT(drive_->metrics().CounterValue("cleaner.sectors_copied"), 0u);
  // All keepers still intact after relocation.
  for (const auto& [id, data] : keepers) {
    ASSERT_OK_AND_ASSIGN(Bytes got, drive_->Read(alice, id, 0, data.size()));
    EXPECT_EQ(got, data);
  }
}

TEST_F(DriveTest, CompactionSurvivesCrash) {
  // Each relocation is a kMove journal entry that roll-forward applies, and
  // a vacated segment is reused only after a device checkpoint: together
  // they make compaction crash-safe.
  SetUpDrive([] {
    S4DriveOptions o = SmallOptions();
    o.detection_window = 5 * kMinute;
    return o;
  }(), 16ull << 20);
  Credentials alice = User(100);
  Rng rng(6);
  std::vector<std::pair<ObjectId, Bytes>> keepers;
  for (int i = 0; i < 20; ++i) {
    ASSERT_OK_AND_ASSIGN(ObjectId keeper, drive_->Create(alice, {}));
    Bytes keep_data = rng.RandomBytes(8 * 1024);
    ASSERT_OK(drive_->Write(alice, keeper, 0, keep_data));
    keepers.emplace_back(keeper, keep_data);
    ASSERT_OK_AND_ASSIGN(ObjectId chaff, drive_->Create(alice, {}));
    ASSERT_OK(drive_->Write(alice, chaff, 0, rng.RandomBytes(200 * 1024)));
    ASSERT_OK(drive_->Delete(alice, chaff));
    clock_->Advance(kMinute);
  }
  ASSERT_OK(drive_->Sync(alice));
  clock_->Advance(10 * kMinute);
  for (int i = 0; i < 4; ++i) {
    ASSERT_OK(drive_->RunCleanerPass(8, /*force_compaction=*/true).status());
  }
  CrashAndRemount();
  for (const auto& [id, data] : keepers) {
    ASSERT_OK_AND_ASSIGN(Bytes got, drive_->Read(alice, id, 0, data.size()));
    EXPECT_EQ(got, data);
  }
}

// ---------------------------------------------------------------------------
// Compaction moves: journal entries on the one mutation path
// ---------------------------------------------------------------------------

// Live and history sectors of every segment.
std::vector<std::pair<uint32_t, uint32_t>> SegmentCounts(const SegmentUsageTable& table) {
  std::vector<std::pair<uint32_t, uint32_t>> counts;
  for (SegmentId seg = 0; seg < table.segment_count(); ++seg) {
    counts.emplace_back(table.Info(seg).live_sectors, table.Info(seg).history_sectors);
  }
  return counts;
}

// The compaction recipes' setup: two one-block objects and 120 one-block
// fillers, the fillers deleted, aged out, freed and their segments
// reclaimed, then the first object overwritten. Leaves the audit log's
// blocks the only live data in some segments.
void AgeOutFillersThenOverwrite(S4Drive* drive, SimClock* clock, const Credentials& alice,
                                std::vector<ObjectId>* objects) {
  for (int i = 0; i < 2; ++i) {
    ASSERT_OK_AND_ASSIGN(ObjectId id, drive->Create(alice, {}));
    ASSERT_OK(drive->Write(alice, id, 0, Bytes(kBlockSize, static_cast<uint8_t>('a' + i))));
    objects->push_back(id);
  }
  std::vector<ObjectId> fillers;
  for (int i = 0; i < 120; ++i) {
    ASSERT_OK_AND_ASSIGN(ObjectId id, drive->Create(alice, {}));
    ASSERT_OK(drive->Write(alice, id, 0, Bytes(kBlockSize, 'f')));
    fillers.push_back(id);
  }
  ASSERT_OK(drive->Sync(alice));
  for (ObjectId id : fillers) {
    ASSERT_OK(drive->Delete(alice, id));
  }
  ASSERT_OK(drive->Sync(alice));
  clock->Advance(2 * kHour);
  ASSERT_OK(drive->RunCleanerPass(0).status());
  ASSERT_OK(drive->Sync(alice));
  ASSERT_OK(drive->WriteCheckpoint());
  ASSERT_OK(drive->Write(alice, objects->front(), 0, Bytes(kBlockSize, 'z')));
  ASSERT_OK(drive->Sync(alice));
}

TEST_F(DriveTest, CrashAfterCompactionKeepsEverySegmentsCounts) {
  // Roll-forward counts a data record live where a journal entry names it,
  // so every move must be one: otherwise a crash leaves the moved sectors
  // counted in the old segment and missing from the new one, and the next
  // overwrite of the block aborts on the usage table's check.
  Credentials alice = User(100);
  std::vector<ObjectId> objects;
  ASSERT_NO_FATAL_FAILURE(AgeOutFillersThenOverwrite(drive_.get(), clock_.get(), alice, &objects));
  for (int i = 0; i < 2; ++i) {
    ASSERT_OK(drive_->RunCleanerPass(1, /*force_compaction=*/true).status());
  }
  ASSERT_GT(drive_->metrics().CounterValue("cleaner.sectors_copied"), 0u);
  ASSERT_OK(drive_->Sync(alice));
  const auto before = SegmentCounts(drive_->usage_table());

  CrashAndRemount();
  EXPECT_EQ(SegmentCounts(drive_->usage_table()), before);
  ASSERT_OK_AND_ASSIGN(Bytes first, drive_->Read(alice, objects[0], 0, kBlockSize));
  EXPECT_EQ(first, Bytes(kBlockSize, 'z'));
  ASSERT_OK_AND_ASSIGN(Bytes second, drive_->Read(alice, objects[1], 0, kBlockSize));
  EXPECT_EQ(second, Bytes(kBlockSize, 'b'));
  ASSERT_OK(drive_->Write(alice, objects[0], 0, Bytes(kBlockSize, 'y')));
}

TEST_F(DriveTest, CrashAfterCompactionKeepsTheAuditChain) {
  // The pass moves the audit log's block 0 out of a segment it alone pins;
  // the device checkpoint that reclaims the segment first commits the audit
  // tail, rewriting that block at the pass's instant. Replay must keep both
  // in log order, or mount resolves block 0 to the moved copy and finds the
  // chain short of its committed size.
  Credentials alice = User(100);
  std::vector<ObjectId> objects;
  ASSERT_NO_FATAL_FAILURE(AgeOutFillersThenOverwrite(drive_.get(), clock_.get(), alice, &objects));
  ASSERT_OK(drive_->RunCleanerPass(1, /*force_compaction=*/true).status());
  ASSERT_GT(drive_->metrics().CounterValue("cleaner.sectors_copied"), 0u);

  CrashAndRemount();
  EXPECT_EQ(drive_->metrics().CounterValue("audit.chain_breaks"), 0u);
  EXPECT_OK(drive_->QueryAudit(Admin(), AuditQuery{}).status());
}

TEST_F(DriveTest, MoveLoggedAtItsCheckpointsInstantIsReplayed) {
  // Compaction meets an object's current inode checkpoint before its current
  // block in the same segment: it re-checkpoints the object, then moves the
  // block, both at one instant. The checkpoint covers only what was logged
  // before its own entry, so the move must be replayed after an eviction
  // round trip and after a crash, and the sweep of the move's sector must
  // checkpoint the object before it frees the sector.
  SetUpDrive([] {
    S4DriveOptions o = SmallOptions();
    o.object_cache_bytes = 4 << 10;
    return o;
  }(), 64ull << 20);
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  ASSERT_OK(drive_->Write(alice, id, 0, Bytes(kBlockSize, 'a')));
  for (int i = 0; i < 100 && drive_->DebugObjectEntry(id)->checkpoint_addr == kNullAddr; ++i) {
    ASSERT_OK(drive_->Create(alice, {}).status());  // until the eviction checkpoints it
  }
  ASSERT_NE(drive_->DebugObjectEntry(id)->checkpoint_addr, kNullAddr);
  const Bytes data(kBlockSize, 'b');
  ASSERT_OK(drive_->Write(alice, id, 0, data));  // after the checkpoint, in its segment
  ASSERT_OK_AND_ASSIGN(std::vector<DiskAddr> old_addrs, drive_->DebugObjectBlockAddrs(id));
  const SegmentId seg = drive_->superblock().SegmentOf(old_addrs[0]);
  // Fill the segment with a filler whose every block an overwrite supersedes
  // and an admin purge frees, so the segment is the emptiest one sealed.
  ASSERT_OK_AND_ASSIGN(ObjectId filler, drive_->Create(alice, {}));
  const SimTime before_overwrite = clock_->Now();
  for (int round = 0; round < 2; ++round) {
    ASSERT_OK(drive_->Write(alice, filler, 0, Bytes(256 << 10, static_cast<uint8_t>(round))));
  }
  ASSERT_OK(drive_->Flush(Admin(), before_overwrite + 1, clock_->Now()));
  ASSERT_EQ(drive_->usage_table().Info(seg).state, SegmentState::kFull);
  ASSERT_OK(drive_->Sync(alice));

  ASSERT_OK(drive_->RunCleanerPass(1, /*force_compaction=*/true).status());
  ASSERT_OK_AND_ASSIGN(std::vector<DiskAddr> new_addrs, drive_->DebugObjectBlockAddrs(id));
  ASSERT_NE(new_addrs, old_addrs);
  ASSERT_EQ(drive_->DebugObjectEntry(id)->move_time, drive_->DebugObjectEntry(id)->checkpoint_time);
  ASSERT_OK(drive_->Sync(alice));
  auto expect_moved = [&](const char* when) {
    ASSERT_OK_AND_ASSIGN(std::vector<DiskAddr> addrs, drive_->DebugObjectBlockAddrs(id));
    EXPECT_EQ(addrs, new_addrs) << when;
    ASSERT_OK_AND_ASSIGN(Bytes got, drive_->Read(alice, id, 0, kBlockSize));
    EXPECT_EQ(got, data) << when;
  };

  CrashAndRemount();  // replays the checkpoint, then the move
  expect_moved("after a crash");
  for (int i = 0; i < 40; ++i) {  // evicts it, clean since the remount: no checkpoint
    ASSERT_OK(drive_->Create(alice, {}).status());
  }
  expect_moved("after an eviction");

  clock_->Advance(2 * kHour);
  ASSERT_OK(drive_->RunCleanerPass(0).status());  // sweeps the move's sector
  ASSERT_OK(drive_->WriteCheckpoint());
  CrashAndRemount();
  expect_moved("after the sweep and a crash");
}

TEST_F(DriveTest, ForwardReplayNeverReadsAnAddressCompactionVacated) {
  // A deep time-based read may replay forward from the create entry. An
  // entry older than a move names the address the move vacated; once the log
  // reuses that segment, the replayed address holds other data. Forward
  // replay must only serve reads at or after the object's newest move.
  SetUpDrive([] {
    S4DriveOptions o = SmallOptions();
    o.waypoint_interval_sectors = 2;
    o.object_cache_bytes = 8 << 20;  // no eviction flushes a journal
    return o;
  }(), 8ull << 20);
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  const Bytes data(kBlockSize, 'a');
  ASSERT_OK(drive_->Write(alice, id, 0, data));
  const SimTime t1 = clock_->Now();
  ASSERT_OK_AND_ASSIGN(std::vector<DiskAddr> addrs, drive_->DebugObjectBlockAddrs(id));
  const SegmentId seg = drive_->superblock().SegmentOf(addrs[0]);
  // Fillers with no Sync until the block's segment seals, so no journal
  // sector pins it; their overwrites, purged, leave the block alone in it.
  std::vector<ObjectId> fillers;
  while (drive_->usage_table().Info(seg).state != SegmentState::kFull) {
    ASSERT_OK_AND_ASSIGN(ObjectId filler, drive_->Create(alice, {}));
    ASSERT_OK(drive_->Write(alice, filler, 0, Bytes(32 << 10, 'f')));
    fillers.push_back(filler);
  }
  ASSERT_OK(drive_->Sync(alice));
  const SimTime before_overwrite = clock_->Now();
  for (ObjectId filler : fillers) {
    ASSERT_OK(drive_->Write(alice, filler, 0, Bytes(32 << 10, 'g')));
  }
  ASSERT_OK(drive_->Flush(Admin(), before_overwrite, clock_->Now()));
  for (int i = 0; i < 8; ++i) {  // journal sectors, and waypoints, above t1
    ASSERT_OK(drive_->SetAttr(alice, id, BytesOf("attr" + std::to_string(i))));
    ASSERT_OK(drive_->Sync(alice));
  }
  for (int i = 0; i < 4; ++i) {
    ASSERT_OK(drive_->RunCleanerPass(8, /*force_compaction=*/true).status());
  }
  ASSERT_OK(drive_->WriteCheckpoint());
  ASSERT_OK_AND_ASSIGN(std::vector<DiskAddr> moved, drive_->DebugObjectBlockAddrs(id));
  ASSERT_NE(drive_->superblock().SegmentOf(moved[0]), seg);
  ASSERT_EQ(drive_->usage_table().Info(seg).state, SegmentState::kFree);
  // Admin ballast until the log writes the vacated segment again.
  ASSERT_OK_AND_ASSIGN(ObjectId ballast, drive_->Create(Admin(), {}));
  for (int i = 0; i < 1000 && drive_->usage_table().Info(seg).first_seq == 0; ++i) {
    ASSERT_OK(drive_->Append(Admin(), ballast, Bytes(16 << 10, 'x')).status());
    ASSERT_OK(drive_->Sync(Admin()));
  }
  ASSERT_NE(drive_->usage_table().Info(seg).first_seq, 0u);

  ASSERT_OK_AND_ASSIGN(Bytes got, drive_->Read(Admin(), id, 0, kBlockSize, t1));
  EXPECT_EQ(got, data);
}

// ---------------------------------------------------------------------------
// Log-order sweep: idle passes, idempotence, the cursor across remounts
// ---------------------------------------------------------------------------

TEST_F(DriveTest, CleanerPassOverCleanDriveReadsNothing) {
  // A pass with nothing old enough to free must read nothing. The sweep
  // remembers when the next unswept chunk was written: the format time on a
  // fresh drive, the pass time once it has reached the log head, so neither
  // a pass inside the first window nor one after everything expirable is
  // gone reads a segment or a journal sector — not even the chunk written
  // after the head was reached.
  Credentials alice = User(100);
  const MetricRegistry& m = drive_->metrics();
  Rng rng(21);
  std::vector<ObjectId> ids;
  for (int obj = 0; obj < 8; ++obj) {
    ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
    ids.push_back(id);
    for (int v = 0; v < 6; ++v) {
      ASSERT_OK(drive_->Write(alice, id, 0, rng.RandomBytes(4 * 1024)));
      clock_->Advance(kMinute);
    }
  }
  ASSERT_OK(drive_->Sync(alice));
  ASSERT_OK(drive_->RunCleanerPass(8).status());
  EXPECT_EQ(m.CounterValue("cleaner.segments_swept"), 0u) << "nothing has left the window";
  clock_->Advance(2 * kHour);
  ASSERT_OK(drive_->RunCleanerPass(8).status());
  EXPECT_EQ(drive_->HistoryPoolBytes(), 0u);

  ASSERT_OK(drive_->Write(alice, ids[0], 0, rng.RandomBytes(4 * 1024)));
  ASSERT_OK(drive_->Sync(alice));  // a chunk past the head, inside the window
  uint64_t read_before = m.CounterValue("cleaner.walk_sectors_read");
  uint64_t swept_before = m.CounterValue("cleaner.segments_swept");
  ASSERT_OK(drive_->RunCleanerPass(8).status());
  EXPECT_EQ(m.CounterValue("cleaner.walk_sectors_read"), read_before);
  EXPECT_EQ(m.CounterValue("cleaner.segments_swept"), swept_before);
}

TEST_F(DriveTest, CleanerIsIdempotentAfterDeferredCheckpointFrees) {
  // Entries newer than the object's inode checkpoint gate their sectors; the
  // sweep must checkpoint the object and free them within the pass, leaving
  // nothing for a second pass to redo on an unchanged drive.
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  Rng rng(22);
  for (int v = 0; v < 10; ++v) {
    ASSERT_OK(drive_->Write(alice, id, 0, rng.RandomBytes(8 * 1024)));
    ASSERT_OK(drive_->Sync(alice));
    clock_->Advance(kMinute);
  }
  clock_->Advance(2 * kHour);
  ASSERT_OK_AND_ASSIGN(uint32_t first, drive_->RunCleanerPass(8));
  (void)first;
  EXPECT_EQ(drive_->HistoryPoolBytes(), 0u);
  // The object is live and its chain fully reclaimed: the second pass finds
  // nothing to sweep and does not even read its journal sectors.
  uint64_t read_before = drive_->metrics().CounterValue("cleaner.walk_sectors_read");
  uint64_t expired_before = drive_->metrics().CounterValue("cleaner.sectors_expired");
  ASSERT_OK(drive_->RunCleanerPass(8).status());
  EXPECT_EQ(drive_->metrics().CounterValue("cleaner.walk_sectors_read"), read_before);
  EXPECT_EQ(drive_->metrics().CounterValue("cleaner.sectors_expired"), expired_before);
  // Current state intact throughout.
  ASSERT_OK_AND_ASSIGN(ObjectAttrs attrs, drive_->GetAttr(alice, id));
  EXPECT_EQ(attrs.size, 8 * 1024u);
}

TEST_F(DriveTest, SweepKeepsSurvivorsAndFullyExpiresTheDeleted) {
  // One sweep over chains that aged out: survivors stay readable, the
  // deleted object is gone entirely, and the history pool drains to zero.
  Credentials alice = User(100);
  Rng rng(24);
  std::vector<ObjectId> ids;
  for (int obj = 0; obj < 6; ++obj) {
    ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
    ids.push_back(id);
    for (int v = 0; v < 5; ++v) {
      ASSERT_OK(drive_->Write(alice, id, 0, rng.RandomBytes(6 * 1024)));
      ASSERT_OK(drive_->Sync(alice));
      clock_->Advance(kMinute);
    }
  }
  ASSERT_OK(drive_->Delete(alice, ids[0]));
  ASSERT_OK(drive_->Sync(alice));
  clock_->Advance(2 * kHour);
  ASSERT_OK(drive_->RunCleanerPass(8).status());
  for (size_t i = 1; i < ids.size(); ++i) {
    EXPECT_OK(drive_->GetAttr(alice, ids[i]).status());
  }
  EXPECT_EQ(drive_->GetAttr(alice, ids[0]).status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(drive_->HistoryPoolBytes(), 0u);
}

TEST_F(DriveTest, SweepCursorSurvivesRemount) {
  // The sweep cursor is loaded from the device checkpoint on mount; history
  // that aged out while the drive was down is still found and reclaimed.
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  Rng rng(25);
  for (int v = 0; v < 8; ++v) {
    ASSERT_OK(drive_->Write(alice, id, 0, rng.RandomBytes(8 * 1024)));
    ASSERT_OK(drive_->Sync(alice));
    clock_->Advance(kMinute);
  }
  EXPECT_GT(drive_->HistoryPoolBytes(), 0u);
  CrashAndRemount();
  clock_->Advance(2 * kHour);
  ASSERT_OK(drive_->RunCleanerPass(8).status());
  EXPECT_EQ(drive_->HistoryPoolBytes(), 0u);
  ASSERT_OK_AND_ASSIGN(ObjectAttrs attrs, drive_->GetAttr(alice, id));
  EXPECT_EQ(attrs.size, 8 * 1024u);
}

TEST_F(DriveTest, RottenRecordDoesNotStopTheSweep) {
  // A data block that rots in a sealed segment fails its chunk's payload
  // CRC. The sweep must count the damage and still free the journal sectors
  // behind it (and in its own chunk), or their history would pin the disk.
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId rotten, drive_->Create(alice, {}));
  ASSERT_OK_AND_ASSIGN(ObjectId churn, drive_->Create(alice, {}));
  ASSERT_OK(drive_->Write(alice, rotten, 0, Bytes(kBlockSize, 0x5A)));
  ASSERT_OK(drive_->Sync(alice));
  ASSERT_OK_AND_ASSIGN(std::vector<DiskAddr> addrs, drive_->DebugObjectBlockAddrs(rotten));
  ASSERT_EQ(addrs.size(), 1u);
  Rng rng(26);
  for (int v = 0; v < 8; ++v) {
    clock_->Advance(kSecond);
    ASSERT_OK(drive_->Write(alice, churn, 0, rng.RandomBytes(kBlockSize)));
    ASSERT_OK(drive_->Sync(alice));
  }
  // Spill the log into a new segment so the rotten one is sealed.
  ASSERT_OK(drive_->Write(alice, churn, kBlockSize, rng.RandomBytes(opts_.segment_sectors *
                                                                    kSectorSize)));
  ASSERT_OK(drive_->Sync(alice));
  const Superblock& sb = drive_->superblock();
  ASSERT_EQ(drive_->usage_table().Info(sb.SegmentOf(addrs[0])).state, SegmentState::kFull);
  ASSERT_GT(drive_->HistoryPoolBytes(), 0u);

  device_->CorruptSectors(addrs[0], 1);
  clock_->Advance(2 * kHour);
  ASSERT_OK(drive_->RunCleanerPass(4).status());
  EXPECT_GE(drive_->metrics().CounterValue("cleaner.sweep_damage"), 1u);
  EXPECT_EQ(drive_->HistoryPoolBytes(), 0u);
}

TEST_F(DriveTest, RemountBetweenPassesNeitherReFreesNorLeaks) {
  // The first pass frees history without a device checkpoint (the log never
  // leaves its first segment, so no segment becomes reclaimable), then the
  // drive crashes: the second pass must redo exactly the lost frees. Its
  // end state must match a twin run that never crashed.
  struct EndState {
    uint32_t free_or_reclaimable = 0;
    uint64_t history_bytes = 0;
    uint64_t live_bytes = 0;
  };
  auto run = [&](bool crash) -> EndState {
    SetUpDrive(SmallOptions(), 64ull << 20);
    Credentials alice = User(100);
    Rng rng(27);
    std::vector<ObjectId> ids;
    for (int obj = 0; obj < 4; ++obj) {
      auto id = drive_->Create(alice, {});
      EXPECT_TRUE(id.ok());
      ids.push_back(*id);
    }
    for (int v = 0; v < 6; ++v) {
      for (ObjectId id : ids) {
        EXPECT_OK(drive_->Write(alice, id, 0, rng.RandomBytes(kBlockSize)));
      }
      EXPECT_OK(drive_->Sync(alice));
      clock_->Advance(20 * kMinute);
    }
    EXPECT_OK(drive_->Delete(alice, ids[0]));
    EXPECT_OK(drive_->Sync(alice));
    uint64_t checkpoints = drive_->metrics().CounterValue("drive.device_checkpoints");
    EXPECT_OK(drive_->RunCleanerPass(4).status());  // frees the first hour
    EXPECT_OK(drive_->Sync(alice));
    EXPECT_EQ(drive_->metrics().CounterValue("drive.device_checkpoints"), checkpoints)
        << "the first pass must leave its frees to the crash";
    if (crash) {
      CrashAndRemount();
      if (::testing::Test::HasFatalFailure()) {
        return {};
      }
    }
    clock_->Advance(30 * kMinute);
    EXPECT_OK(drive_->RunCleanerPass(4).status());  // frees the next half hour
    const SegmentUsageTable& sut = drive_->usage_table();
    EXPECT_EQ(sut.FreeOrReclaimableSegments(), RecountFreeOrReclaimable(sut));
    return EndState{sut.FreeOrReclaimableSegments(), drive_->HistoryPoolBytes(),
                    drive_->LiveBytes()};
  };
  EndState twin = run(false);
  EndState crashed = run(true);
  EXPECT_GT(twin.history_bytes, 0u) << "the second pass should leave in-window history";
  EXPECT_EQ(crashed.free_or_reclaimable, twin.free_or_reclaimable);
  EXPECT_EQ(crashed.history_bytes, twin.history_bytes);
  EXPECT_EQ(crashed.live_bytes, twin.live_bytes);
}

TEST_F(DriveTest, RestartedChainKeepsItsBarrierAcrossACrash) {
  // Once a pass frees an object's whole chain, its next journal sector starts
  // a fresh chain. A crash before the next device checkpoint restores the
  // checkpoint's barrier and waypoints; roll-forward must restore the barrier
  // the freed chain had reached, or a read below it walks the truncated chain
  // and returns a newer version instead of refusing.
  SetUpDrive([] {
    S4DriveOptions o = SmallOptions();
    o.waypoint_interval_sectors = 1;
    return o;
  }(), 64ull << 20);
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  ASSERT_OK(drive_->Write(alice, id, 0, Bytes(kBlockSize, 'a')));
  ASSERT_OK(drive_->Sync(alice));
  SimTime during_a = clock_->Now() + 30 * kSecond;
  ASSERT_OK(drive_->WriteCheckpoint());
  clock_->Advance(kMinute);
  ASSERT_OK(drive_->Write(alice, id, 0, Bytes(kBlockSize, 'b')));
  ASSERT_OK(drive_->Sync(alice));
  clock_->Advance(2 * kHour);
  ASSERT_OK(drive_->RunCleanerPass(4).status());  // frees a and b; checkpoints the object
  ASSERT_OK(drive_->Sync(alice));
  clock_->Advance(2 * kHour);
  ASSERT_OK(drive_->RunCleanerPass(4).status());  // frees that checkpoint's sector too
  ASSERT_EQ(drive_->DebugObjectEntry(id)->journal_head, kNullAddr);
  ASSERT_OK(drive_->Write(alice, id, 0, Bytes(kBlockSize, 'c')));
  ASSERT_OK(drive_->Sync(alice));

  CrashAndRemount();
  EXPECT_OK(drive_->VerifyAllWaypoints());
  EXPECT_EQ(drive_->Read(Admin(), id, 0, kBlockSize, during_a).status().code(),
            ErrorCode::kFailedPrecondition);
  ASSERT_OK_AND_ASSIGN(Bytes now, drive_->Read(alice, id, 0, kBlockSize));
  EXPECT_EQ(now, Bytes(kBlockSize, 'c'));
}

TEST_F(DriveTest, VersioningDisabledFreesImmediately) {
  SetUpDrive([] {
    S4DriveOptions o = SmallOptions();
    o.versioning_enabled = false;
    o.audit_enabled = false;
    return o;
  }(), 16ull << 20);
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  ASSERT_OK(drive_->Write(alice, id, 0, BytesOf("v1")));
  SimTime t1 = clock_->Now();
  clock_->Advance(kSecond);
  ASSERT_OK(drive_->Write(alice, id, 0, BytesOf("v2")));
  // No history pool grows; time-based access is refused.
  EXPECT_EQ(drive_->HistoryPoolBytes(), 0u);
  EXPECT_EQ(drive_->Read(alice, id, 0, 64, t1).status().code(), ErrorCode::kUnimplemented);
  ASSERT_OK_AND_ASSIGN(Bytes cur, drive_->Read(alice, id, 0, 64));
  EXPECT_EQ(StringOf(cur), "v2");
}

// ---------------------------------------------------------------------------
// Space-exhaustion throttle (section 3.3): decay, fair share, reject
// ---------------------------------------------------------------------------

// Lowered thresholds make the throttle observable without actually filling
// the disk: threshold 0 engages the rate check on every write, and a tiny
// fair share makes any burst "over-share".
class ThrottleTest : public DriveTest {
 protected:
  void SetUp() override {}  // each test picks its own options

  void SetUpThrottle(double throttle_threshold, double reject_threshold,
                     double fair_share) {
    S4DriveOptions o = SmallOptions();
    o.throttle_threshold = throttle_threshold;
    o.reject_threshold = reject_threshold;
    o.fair_share_bytes_per_sec = fair_share;
    SetUpDrive(o, 64ull << 20);
  }
};

TEST_F(ThrottleTest, OverShareClientIsDelayedAndDecayRestoresService) {
  SetUpThrottle(/*throttle=*/0.0, /*reject=*/2.0, /*fair_share=*/1000.0);
  Credentials alice = User(100, /*client=*/7);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));

  // First write: no load history yet, full service.
  ASSERT_OK(drive_->Write(alice, id, 0, Bytes(1 << 20, 0xAA)));
  EXPECT_EQ(drive_->metrics().CounterValue("throttle.delays"), 0u);

  // The burst pushed the client's decayed rate (~1MB/5s) far over the 1KB/s
  // fair share: the next write is progressively delayed, not refused.
  SimTime before = clock_->Now();
  ASSERT_OK(drive_->Write(alice, id, 0, Bytes(kBlockSize, 0xBB)));
  EXPECT_EQ(drive_->metrics().CounterValue("throttle.delays"), 1u);
  EXPECT_EQ(drive_->metrics().CounterValue("throttle.rejects"), 0u);
  EXPECT_GT(clock_->Now() - before, 0);

  // Idle far longer than the 5s decay constant. The stale rate is only
  // refreshed by the next accepted write; after it, the exponential decay
  // has pulled the client back under fair share and service is full again.
  clock_->Advance(kMinute);
  ASSERT_OK(drive_->Write(alice, id, 0, Bytes(kBlockSize, 0xCC)));
  uint64_t delays_after_decay_write = drive_->metrics().CounterValue("throttle.delays");
  ASSERT_OK(drive_->Write(alice, id, 0, Bytes(kBlockSize, 0xDD)));
  EXPECT_EQ(drive_->metrics().CounterValue("throttle.delays"), delays_after_decay_write)
      << "decayed client should not be delayed";
}

TEST_F(ThrottleTest, FairShareClientKeepsFullService) {
  SetUpThrottle(/*throttle=*/0.0, /*reject=*/2.0, /*fair_share=*/2.0 * (1 << 20));
  Credentials alice = User(100, /*client=*/7);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));

  // Writing one 4KB block per second is well under the 2MB/s fair share:
  // even with the utilisation gate forced open, nothing is delayed.
  for (int i = 0; i < 20; ++i) {
    ASSERT_OK(drive_->Write(alice, id, 0, Bytes(kBlockSize, 0xEE)));
    clock_->Advance(kSecond);
  }
  EXPECT_EQ(drive_->metrics().CounterValue("throttle.delays"), 0u);
  EXPECT_EQ(drive_->metrics().CounterValue("throttle.rejects"), 0u);
}

TEST_F(ThrottleTest, NearExhaustionOverShareWritesAreRefused) {
  SetUpThrottle(/*throttle=*/0.0, /*reject=*/0.0, /*fair_share=*/1000.0);
  Credentials alice = User(100, /*client=*/7);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));

  // Build up an over-share rate, then hit the reject wall.
  ASSERT_OK(drive_->Write(alice, id, 0, Bytes(1 << 20, 0xAA)));
  Status s = drive_->Write(alice, id, 0, Bytes(kBlockSize, 0xBB));
  EXPECT_EQ(s.code(), ErrorCode::kThrottled);
  EXPECT_GE(drive_->metrics().CounterValue("throttle.rejects"), 1u);

  // A different, well-behaved client still gets service.
  Credentials bob = User(101, /*client=*/8);
  ASSERT_OK_AND_ASSIGN(ObjectId id2, drive_->Create(bob, {}));
  EXPECT_OK(drive_->Write(bob, id2, 0, Bytes(kBlockSize, 0xCC)));
}

TEST_F(DriveTest, UnreadableCheckpointDuringFullExpiryIsSurfacedNotSwallowed) {
  // Regression: when the delete-time checkpoint of a fully expired object
  // could not be read back, the cleaner silently skipped releasing the
  // history blocks it references — a permanent, invisible space leak. The
  // pass must still succeed (one bad object must not wedge expiry), but the
  // failure now lands on the obs plane.
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  ASSERT_OK(drive_->Write(alice, id, 0, Bytes(kBlockSize, 0x5A)));
  clock_->Advance(kSecond);
  ASSERT_OK(drive_->Delete(alice, id));
  ASSERT_OK(drive_->Sync(Admin()));

  auto entry = drive_->DebugObjectEntry(id);
  ASSERT_TRUE(entry.has_value());
  ASSERT_NE(entry->checkpoint_addr, kNullAddr);
  ASSERT_GT(entry->checkpoint_sectors, 0u);

  // Remount so the checkpoint is no longer cached, then corrupt it on disk.
  CrashAndRemount();
  Bytes garbage(entry->checkpoint_sectors * kSectorSize, 0xFF);
  ASSERT_OK(device_->Write(entry->checkpoint_addr, garbage));

  clock_->Advance(2 * kHour);  // age the deleted object out of the window
  ASSERT_OK(drive_->RunCleanerPass(4).status());

  EXPECT_GE(drive_->metrics().CounterValue("cleaner.checkpoint_decode_errors"), 1u);
  // The object itself is still fully expired despite the bad checkpoint.
  EXPECT_EQ(drive_->Read(Admin(), id, 0, 64, clock_->Now() - 2 * kHour).status().code(),
            ErrorCode::kNotFound);
}

TEST_F(ThrottleTest, AdminIsExemptFromThrottle) {
  SetUpThrottle(/*throttle=*/0.0, /*reject=*/0.0, /*fair_share=*/10.0);
  Credentials admin = Admin();
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(admin, {}));
  for (int i = 0; i < 4; ++i) {
    ASSERT_OK(drive_->Write(admin, id, 0, Bytes(1 << 20, 0xAD)));
  }
  EXPECT_EQ(drive_->metrics().CounterValue("throttle.delays"), 0u);
  EXPECT_EQ(drive_->metrics().CounterValue("throttle.rejects"), 0u);
}

}  // namespace
}  // namespace s4
