// Crash recovery: power loss drops all in-memory state; mount must restore
// every synced byte, every synced version, and resume appending safely.
#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace s4 {
namespace {

// SpaceUtilization() recomputed by scanning every segment, for checking the
// drive's O(1) count after roll-forward has rebuilt the usage table.
double RecountedUtilization(const SegmentUsageTable& sut) {
  return 1.0 - static_cast<double>(RecountFreeOrReclaimable(sut)) / sut.segment_count();
}

TEST_F(DriveTest, RemountAfterCleanUnmount) {
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, BytesOf("a")));
  ASSERT_OK(drive_->Write(alice, id, 0, BytesOf("persistent data")));
  ASSERT_OK(drive_->Unmount());
  drive_.reset();

  auto drive = S4Drive::Mount(device_.get(), clock_.get(), opts_);
  ASSERT_TRUE(drive.ok()) << drive.status().ToString();
  drive_ = std::move(*drive);
  ASSERT_OK_AND_ASSIGN(Bytes got, drive_->Read(alice, id, 0, 64));
  EXPECT_EQ(StringOf(got), "persistent data");
}

TEST_F(DriveTest, SyncedDataSurvivesCrash) {
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  ASSERT_OK(drive_->Write(alice, id, 0, BytesOf("synced payload")));
  ASSERT_OK(drive_->Sync(alice));

  CrashAndRemount();
  ASSERT_OK_AND_ASSIGN(Bytes got, drive_->Read(alice, id, 0, 64));
  EXPECT_EQ(StringOf(got), "synced payload");
}

TEST_F(DriveTest, SyncedVersionsSurviveCrash) {
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  ASSERT_OK(drive_->Write(alice, id, 0, BytesOf("old version")));
  SimTime t1 = clock_->Now();
  clock_->Advance(kSecond);
  ASSERT_OK(drive_->Write(alice, id, 0, BytesOf("new version")));
  ASSERT_OK(drive_->Sync(alice));

  CrashAndRemount();
  ASSERT_OK_AND_ASSIGN(Bytes cur, drive_->Read(alice, id, 0, 64));
  EXPECT_EQ(StringOf(cur), "new version");
  ASSERT_OK_AND_ASSIGN(Bytes old, drive_->Read(alice, id, 0, 64, t1));
  EXPECT_EQ(StringOf(old), "old version");
}

TEST_F(DriveTest, UnsyncedDataLostButDriveConsistent) {
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  ASSERT_OK(drive_->Write(alice, id, 0, BytesOf("synced")));
  ASSERT_OK(drive_->Sync(alice));
  clock_->Advance(kSecond);
  ASSERT_OK(drive_->Write(alice, id, 0, BytesOf("UNSYNCED MUST DIE")));
  // No sync: the second write only lives in RAM.

  CrashAndRemount();
  ASSERT_OK_AND_ASSIGN(Bytes got, drive_->Read(alice, id, 0, 64));
  EXPECT_EQ(StringOf(got), "synced");
}

TEST_F(DriveTest, DeleteSurvivesCrash) {
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  ASSERT_OK(drive_->Write(alice, id, 0, BytesOf("to be deleted")));
  SimTime before_delete = clock_->Now();
  clock_->Advance(kSecond);
  ASSERT_OK(drive_->Delete(alice, id));
  ASSERT_OK(drive_->Sync(alice));

  CrashAndRemount();
  EXPECT_EQ(drive_->Read(alice, id, 0, 64).status().code(), ErrorCode::kFailedPrecondition);
  ASSERT_OK_AND_ASSIGN(Bytes old, drive_->Read(alice, id, 0, 64, before_delete));
  EXPECT_EQ(StringOf(old), "to be deleted");
}

TEST_F(DriveTest, ObjectIdsNotReusedAfterCrash) {
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id1, drive_->Create(alice, {}));
  ASSERT_OK(drive_->Sync(alice));
  CrashAndRemount();
  ASSERT_OK_AND_ASSIGN(ObjectId id2, drive_->Create(alice, {}));
  EXPECT_GT(id2, id1);
}

TEST_F(DriveTest, MultipleCrashCycles) {
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  std::vector<std::pair<SimTime, std::string>> synced;
  for (int round = 0; round < 5; ++round) {
    std::string content = "round " + std::to_string(round);
    ASSERT_OK(drive_->Write(alice, id, 0, BytesOf(content)));
    ASSERT_OK(drive_->Sync(alice));
    synced.emplace_back(clock_->Now(), content);
    clock_->Advance(kMinute);
    CrashAndRemount();
    EXPECT_EQ(drive_->SpaceUtilization(), RecountedUtilization(drive_->usage_table()));
    // All previously synced versions remain reconstructible after each crash.
    for (const auto& [t, expect] : synced) {
      ASSERT_OK_AND_ASSIGN(Bytes got, drive_->Read(alice, id, 0, 64, t));
      EXPECT_EQ(StringOf(got), expect) << "round " << round << " at " << t;
    }
  }
}

TEST_F(DriveTest, CrashAfterManyObjectsAndCheckpoints) {
  Credentials alice = User(100);
  std::vector<ObjectId> ids;
  Rng rng(7);
  for (int i = 0; i < 120; ++i) {
    ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
    Bytes data = rng.RandomBytes(1 + rng.Below(20000));
    ASSERT_OK(drive_->Write(alice, id, 0, data));
    ids.push_back(id);
    if (i % 10 == 9) {
      ASSERT_OK(drive_->Sync(alice));
    }
  }
  ASSERT_OK(drive_->Sync(alice));
  ASSERT_OK_AND_ASSIGN(ObjectAttrs attrs_before, drive_->GetAttr(alice, ids[50]));

  CrashAndRemount();
  EXPECT_EQ(drive_->SpaceUtilization(), RecountedUtilization(drive_->usage_table()));
  ASSERT_OK_AND_ASSIGN(ObjectAttrs attrs_after, drive_->GetAttr(alice, ids[50]));
  EXPECT_EQ(attrs_after.size, attrs_before.size);
  for (ObjectId id : ids) {
    EXPECT_OK(drive_->GetAttr(alice, id).status());
  }
}

TEST_F(DriveTest, TornChunkIgnoredOnRecovery) {
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  ASSERT_OK(drive_->Write(alice, id, 0, BytesOf("good data")));
  ASSERT_OK(drive_->Sync(alice));

  // Corrupt sectors in segments beyond the write frontier — models a torn
  // write during the crash landing in not-yet-valid log space. The recovery
  // scan must treat the garbage as an unwritten tail, not replay it and not
  // crash.
  const auto& sut = drive_->usage_table();
  uint64_t first_segment = 1 + 2ull * 2048;  // format geometry for a 64MB disk
  for (SegmentId seg = 1; seg < sut.segment_count(); ++seg) {
    if (sut.Info(seg).state == SegmentState::kFree) {
      device_->CorruptSectors(first_segment + static_cast<uint64_t>(seg) * 512, 1);
      break;
    }
  }
  CrashAndRemount();
  ASSERT_OK_AND_ASSIGN(Bytes got, drive_->Read(alice, id, 0, 64));
  EXPECT_EQ(StringOf(got), "good data");
}

TEST_F(DriveTest, PartitionTableSurvivesCrash) {
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId root, drive_->Create(alice, {}));
  ASSERT_OK(drive_->PCreate(alice, "home", root));
  ASSERT_OK(drive_->Sync(alice));
  CrashAndRemount();
  ASSERT_OK_AND_ASSIGN(ObjectId mounted, drive_->PMount(alice, "home"));
  EXPECT_EQ(mounted, root);
}

}  // namespace
}  // namespace s4
