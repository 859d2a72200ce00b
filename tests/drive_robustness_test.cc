// Hostile-environment robustness: corrupted checkpoint regions, purge/
// cleaner interplay, recovery idempotence, mount failure modes, and media
// errors partway through a mutation.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "tests/test_util.h"

namespace s4 {
namespace {

TEST_F(DriveTest, MountFallsBackToOlderCheckpointRegion) {
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  ASSERT_OK(drive_->Write(alice, id, 0, BytesOf("first epoch")));
  ASSERT_OK(drive_->WriteCheckpoint());
  clock_->Advance(kSecond);
  ASSERT_OK(drive_->Write(alice, id, 0, BytesOf("second epoch")));
  ASSERT_OK(drive_->WriteCheckpoint());
  drive_.reset();

  // Corrupt the NEWER checkpoint region (generation alternates A/B; clobber
  // both first sectors' CRC one at a time and ensure mount still works from
  // the survivor plus roll-forward).
  device_->CorruptSectors(1, 1);  // region A head
  auto remounted = S4Drive::Mount(device_.get(), clock_.get(), opts_);
  ASSERT_TRUE(remounted.ok()) << remounted.status().ToString();
  drive_ = std::move(*remounted);
  ASSERT_OK_AND_ASSIGN(Bytes got, drive_->Read(alice, id, 0, 64));
  EXPECT_EQ(StringOf(got), "second epoch");
}

TEST_F(DriveTest, MountFailsCleanlyWhenBothCheckpointsCorrupt) {
  ASSERT_OK(drive_->Unmount());
  drive_.reset();
  device_->CorruptSectors(1, 1);
  device_->CorruptSectors(1 + 2048, 1);  // region B head for 64MB geometry
  auto remounted = S4Drive::Mount(device_.get(), clock_.get(), opts_);
  ASSERT_FALSE(remounted.ok());
  EXPECT_EQ(remounted.status().code(), ErrorCode::kDataCorruption);
}

TEST_F(DriveTest, MountOfBlankDeviceFails) {
  auto blank_clock = std::make_unique<SimClock>();
  BlockDevice blank((16ull << 20) / kSectorSize, blank_clock.get());
  auto mounted = S4Drive::Mount(&blank, blank_clock.get(), opts_);
  EXPECT_FALSE(mounted.ok());
}

TEST_F(DriveTest, RecoveryIsIdempotent) {
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  ASSERT_OK(drive_->Write(alice, id, 0, BytesOf("stable")));
  ASSERT_OK(drive_->Sync(alice));
  // Mount repeatedly without writing anything: recovery must not change the
  // on-disk state it recovers from.
  for (int i = 0; i < 3; ++i) {
    CrashAndRemount();
    ASSERT_OK_AND_ASSIGN(Bytes got, drive_->Read(alice, id, 0, 64));
    ASSERT_EQ(StringOf(got), "stable");
  }
}

TEST_F(DriveTest, PurgedRangesSurviveCrash) {
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  ASSERT_OK(drive_->Write(alice, id, 0, BytesOf("v1")));
  SimTime t1 = clock_->Now();
  clock_->Advance(kSecond);
  ASSERT_OK(drive_->Write(alice, id, 0, BytesOf("v2")));
  SimTime t2 = clock_->Now();
  clock_->Advance(kSecond);
  ASSERT_OK(drive_->Write(alice, id, 0, BytesOf("v3")));
  ASSERT_OK(drive_->FlushObject(Admin(), id, t1, t2));
  ASSERT_OK(drive_->WriteCheckpoint());

  CrashAndRemount();
  // The purge is remembered: the destroyed version still fails loudly.
  EXPECT_EQ(drive_->Read(Admin(), id, 0, 64, t1).status().code(),
            ErrorCode::kFailedPrecondition);
  ASSERT_OK_AND_ASSIGN(Bytes cur, drive_->Read(alice, id, 0, 64));
  EXPECT_EQ(StringOf(cur), "v3");
}

TEST_F(DriveTest, CleanerSkipsPurgedVersionsWithoutDoubleFree) {
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  Rng rng(31);
  std::vector<SimTime> times;
  for (int i = 0; i < 8; ++i) {
    ASSERT_OK(drive_->Write(alice, id, 0, rng.RandomBytes(20000)));
    times.push_back(clock_->Now());
    clock_->Advance(kMinute);
  }
  // Purge the middle of the history, then age everything out and clean.
  ASSERT_OK(drive_->FlushObject(Admin(), id, times[2], times[5]));
  clock_->Advance(2 * kHour);
  ASSERT_OK(drive_->RunCleanerPass(8).status());
  // Accounting stayed consistent (no S4_CHECK underflow) and the object's
  // current contents are intact.
  ASSERT_OK_AND_ASSIGN(ObjectAttrs attrs, drive_->GetAttr(alice, id));
  EXPECT_EQ(attrs.size, 20000u);
}

TEST_F(DriveTest, ShrinkWindowThenCleanReclaimsSooner) {
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  ASSERT_OK(drive_->Write(alice, id, 0, BytesOf("v1")));
  SimTime t1 = clock_->Now();
  clock_->Advance(kSecond);
  ASSERT_OK(drive_->Write(alice, id, 0, BytesOf("v2")));
  ASSERT_OK(drive_->Sync(alice));
  clock_->Advance(10 * kMinute);  // inside the 1-hour window
  // Admin shrinks the window to 1 minute; the old version is now expirable.
  ASSERT_OK(drive_->SetWindow(Admin(), kMinute));
  ASSERT_OK(drive_->RunCleanerPass(4).status());
  EXPECT_EQ(drive_->Read(Admin(), id, 0, 64, t1).status().code(),
            ErrorCode::kFailedPrecondition);
}

TEST_F(DriveTest, GrowWindowRetainsMore) {
  ASSERT_OK(drive_->SetWindow(Admin(), 24 * kHour));
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  ASSERT_OK(drive_->Write(alice, id, 0, BytesOf("precious")));
  SimTime t1 = clock_->Now();
  clock_->Advance(kSecond);
  ASSERT_OK(drive_->Write(alice, id, 0, BytesOf("newer")));
  clock_->Advance(10 * kHour);  // would have expired under the 1h default
  ASSERT_OK(drive_->RunCleanerPass(4).status());
  ASSERT_OK_AND_ASSIGN(Bytes got, drive_->Read(alice, id, 0, 64, t1));
  EXPECT_EQ(StringOf(got), "precious");
}

TEST_F(DriveTest, ZeroLengthAndBoundaryOps) {
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  // Zero-length write is a no-op, not an error.
  ASSERT_OK(drive_->Write(alice, id, 0, {}));
  ASSERT_OK_AND_ASSIGN(ObjectAttrs attrs, drive_->GetAttr(alice, id));
  EXPECT_EQ(attrs.size, 0u);
  // Zero-length read of empty object.
  ASSERT_OK_AND_ASSIGN(Bytes empty, drive_->Read(alice, id, 0, 0));
  EXPECT_TRUE(empty.empty());
  // Exact block-boundary writes.
  Bytes block(kBlockSize, 0x42);
  ASSERT_OK(drive_->Write(alice, id, 0, block));
  ASSERT_OK(drive_->Write(alice, id, kBlockSize, block));
  ASSERT_OK_AND_ASSIGN(Bytes two, drive_->Read(alice, id, 0, 2 * kBlockSize));
  EXPECT_EQ(two.size(), 2 * kBlockSize);
  // Truncate to exactly a block boundary and back.
  ASSERT_OK(drive_->Truncate(alice, id, kBlockSize));
  ASSERT_OK_AND_ASSIGN(Bytes one, drive_->Read(alice, id, 0, 2 * kBlockSize));
  EXPECT_EQ(one.size(), kBlockSize);
}

TEST_F(DriveTest, OpsOnNonexistentObjects) {
  Credentials alice = User(100);
  ObjectId ghost = 999999;
  EXPECT_EQ(drive_->Read(alice, ghost, 0, 10).status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(drive_->Write(alice, ghost, 0, BytesOf("x")).code(), ErrorCode::kNotFound);
  EXPECT_EQ(drive_->Delete(alice, ghost).code(), ErrorCode::kNotFound);
  EXPECT_EQ(drive_->GetAttr(alice, ghost).status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(drive_->GetVersionList(alice, ghost).status().code(), ErrorCode::kNotFound);
}

TEST_F(DriveTest, DoubleDeleteRejected) {
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  ASSERT_OK(drive_->Delete(alice, id));
  EXPECT_EQ(drive_->Delete(alice, id).code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(drive_->Write(alice, id, 0, BytesOf("zombie")).code(),
            ErrorCode::kFailedPrecondition);
}

TEST_F(DriveTest, EvictionWriteBackFailureSurfacesOnNextSync) {
  FaultInjector fi;
  device_->set_fault_injector(&fi);
  Credentials alice = User(100);

  // Fill the tiny object cache with dirty objects: each carries pending
  // journal entries that a future eviction must write back.
  for (int i = 0; i < 200; ++i) {
    ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
    ASSERT_OK(drive_->Write(alice, id, 0, BytesOf("dirty " + std::to_string(i))));
  }

  // The next device write loses power. Creates write nothing themselves, but
  // each insert evicts a dirty LRU object whose write-back eventually flushes
  // a chunk — and that flush dies on the powered-off device. The client that
  // issued the Create sees success; durability was lost behind its back.
  fi.SchedulePowerCut(1);
  for (int i = 0; i < 400; ++i) {
    auto r = drive_->Create(alice, {});
    (void)r;
    if (fi.power_cut_fired() && i % 8 == 7) {
      break;  // a few extra creates after the cut force failed evictions
    }
  }
  ASSERT_TRUE(fi.power_cut_fired()) << "workload never reached a device write";
  fi.PowerOn();

  // Regression: the stored eviction failure must surface on the next Sync
  // instead of being consumed silently by internal checkpoint housekeeping.
  Status sync = drive_->Sync(alice);
  ASSERT_FALSE(sync.ok()) << "eviction write-back failure was swallowed";
  // Reporting consumes the sticky error; the drive then syncs cleanly.
  EXPECT_OK(drive_->Sync(alice));
}

// A transient media error partway through a write must fail the write and
// leave the object as it was: its bytes now, its version list, the usage
// table, and the history a later checkpoint of the object keeps.
TEST_F(DriveTest, FailedWriteLeavesObjectUnchanged) {
  FaultInjector fi;
  device_->set_fault_injector(&fi);
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  const Bytes original(3 * kBlockSize, 0xAA);
  ASSERT_OK(drive_->Write(alice, id, 0, original));
  ASSERT_OK(drive_->Sync(alice));
  CrashAndRemount();  // a cold cache: old blocks come off the platter
  clock_->Advance(kSecond);
  const SimTime before = clock_->Now();
  clock_->Advance(kSecond);

  ASSERT_OK_AND_ASSIGN(std::vector<VersionInfo> versions, drive_->GetVersionList(alice, id));
  const uint64_t live = drive_->usage_table().LiveSectorsTotal();
  const uint64_t history = drive_->usage_table().HistorySectorsTotal();
  ASSERT_OK_AND_ASSIGN(std::vector<DiskAddr> addrs, drive_->DebugObjectBlockAddrs(id));
  ASSERT_EQ(addrs.size(), 3u);
  fi.ScheduleReadError(addrs[1]);

  // Block 0 is replaced outright; block 1 keeps bytes past the write, so its
  // old copy must be read, and that read fails.
  EXPECT_EQ(drive_->Write(alice, id, 0, Bytes(kBlockSize + 100, 0xBB)).code(),
            ErrorCode::kUnavailable);
  ASSERT_OK_AND_ASSIGN(Bytes now, drive_->Read(alice, id, 0, original.size()));
  EXPECT_EQ(now, original);
  ASSERT_OK_AND_ASSIGN(std::vector<VersionInfo> after, drive_->GetVersionList(alice, id));
  ASSERT_EQ(after.size(), versions.size());
  for (size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].time, versions[i].time);
  }
  EXPECT_EQ(drive_->usage_table().LiveSectorsTotal(), live);
  EXPECT_EQ(drive_->usage_table().HistorySectorsTotal(), history);

  // A later write and a clean remount checkpoint the object; the instant
  // before the failed write still reads the original bytes.
  clock_->Advance(kSecond);
  ASSERT_OK(drive_->Write(alice, id, 2 * kBlockSize, Bytes(10, 0xCC)));
  ASSERT_OK(drive_->Unmount());
  drive_.reset();
  ASSERT_OK_AND_ASSIGN(drive_, S4Drive::Mount(device_.get(), clock_.get(), opts_));
  ASSERT_OK_AND_ASSIGN(Bytes past, drive_->Read(alice, id, 0, original.size(), before));
  EXPECT_EQ(past, original);
  ASSERT_OK_AND_ASSIGN(Bytes current, drive_->Read(alice, id, 0, original.size()));
  Bytes expected = original;
  std::fill(expected.begin() + 2 * kBlockSize, expected.begin() + 2 * kBlockSize + 10, 0xCC);
  EXPECT_EQ(current, expected);
}

// The same for a truncate: the boundary block is rewritten with a zeroed
// tail, and a failed read of it must not drop the blocks past the new end.
TEST_F(DriveTest, FailedTruncateLeavesObjectUnchanged) {
  FaultInjector fi;
  device_->set_fault_injector(&fi);
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  const Bytes original(3 * kBlockSize, 0xAA);
  ASSERT_OK(drive_->Write(alice, id, 0, original));
  ASSERT_OK(drive_->Sync(alice));
  CrashAndRemount();
  clock_->Advance(kSecond);

  const uint64_t live = drive_->usage_table().LiveSectorsTotal();
  const uint64_t history = drive_->usage_table().HistorySectorsTotal();
  ASSERT_OK_AND_ASSIGN(std::vector<DiskAddr> addrs, drive_->DebugObjectBlockAddrs(id));
  ASSERT_EQ(addrs.size(), 3u);
  fi.ScheduleReadError(addrs[1]);

  EXPECT_EQ(drive_->Truncate(alice, id, kBlockSize + 4).code(), ErrorCode::kUnavailable);
  ASSERT_OK_AND_ASSIGN(ObjectAttrs attrs, drive_->GetAttr(alice, id));
  EXPECT_EQ(attrs.size, original.size());
  ASSERT_OK_AND_ASSIGN(Bytes block2, drive_->Read(alice, id, 2 * kBlockSize, kBlockSize));
  EXPECT_EQ(block2, Bytes(kBlockSize, 0xAA));
  EXPECT_EQ(drive_->usage_table().LiveSectorsTotal(), live);
  EXPECT_EQ(drive_->usage_table().HistorySectorsTotal(), history);

  // The read error was transient: the retry truncates.
  ASSERT_OK(drive_->Truncate(alice, id, kBlockSize + 4));
  ASSERT_OK_AND_ASSIGN(Bytes now, drive_->Read(alice, id, 0, original.size()));
  EXPECT_EQ(now, Bytes(kBlockSize + 4, 0xAA));
}

TEST_F(DriveTest, TimeBasedReadBeforeCreationFails) {
  Credentials alice = User(100);
  clock_->Advance(kMinute);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  EXPECT_EQ(drive_->Read(Admin(), id, 0, 10, SimTime{0}).status().code(),
            ErrorCode::kNotFound);
}

}  // namespace
}  // namespace s4
