// End-to-end behaviour of the S4 drive: create/write/read, comprehensive
// versioning with time-based access, delete + resurrection, and sync.
#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace s4 {
namespace {

TEST_F(DriveTest, CreateWriteRead) {
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, BytesOf("attrs")));
  Bytes payload = BytesOf("hello self-securing storage");
  ASSERT_OK(drive_->Write(alice, id, 0, payload));
  ASSERT_OK_AND_ASSIGN(Bytes got, drive_->Read(alice, id, 0, payload.size()));
  EXPECT_EQ(got, payload);
  ASSERT_OK_AND_ASSIGN(ObjectAttrs attrs, drive_->GetAttr(alice, id));
  EXPECT_EQ(attrs.size, payload.size());
  EXPECT_EQ(StringOf(attrs.opaque), "attrs");
}

TEST_F(DriveTest, ReadBeyondEofClamps) {
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  ASSERT_OK(drive_->Write(alice, id, 0, BytesOf("12345")));
  ASSERT_OK_AND_ASSIGN(Bytes got, drive_->Read(alice, id, 3, 100));
  EXPECT_EQ(StringOf(got), "45");
  ASSERT_OK_AND_ASSIGN(Bytes beyond, drive_->Read(alice, id, 10, 5));
  EXPECT_TRUE(beyond.empty());
}

TEST_F(DriveTest, OverwriteKeepsOldVersion) {
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  ASSERT_OK(drive_->Write(alice, id, 0, BytesOf("version one")));
  SimTime t1 = clock_->Now();
  clock_->Advance(kSecond);
  ASSERT_OK(drive_->Write(alice, id, 0, BytesOf("VERSION TWO")));

  ASSERT_OK_AND_ASSIGN(Bytes current, drive_->Read(alice, id, 0, 64));
  EXPECT_EQ(StringOf(current), "VERSION TWO");
  ASSERT_OK_AND_ASSIGN(Bytes old, drive_->Read(alice, id, 0, 64, t1));
  EXPECT_EQ(StringOf(old), "version one");
}

TEST_F(DriveTest, CoveredOverwriteReadsNothing) {
  // A write covering every valid byte of a block replaces it without reading
  // the old copy; the old copy still serves its version. Partial overwrites
  // and truncate-then-extend still merge and zero: the property oracle
  // (DrivePropertyTest.RandomOpsMatchOracle) and TruncateVersioned check them.
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  Bytes v1(kBlockSize, 0x11);
  ASSERT_OK(drive_->Write(alice, id, 0, v1));
  ASSERT_OK(drive_->Sync(alice));
  SimTime t1 = clock_->Now();
  CrashAndRemount();  // cold caches: the old block is only on the platter
  clock_->Advance(kSecond);
  ASSERT_OK(drive_->GetAttr(alice, id).status());  // the object itself is loaded
  uint64_t reads = device_->stats().reads;
  ASSERT_OK(drive_->Write(alice, id, 0, Bytes(kBlockSize, 0x22)));
  EXPECT_EQ(device_->stats().reads, reads);
  ASSERT_OK_AND_ASSIGN(Bytes old, drive_->Read(alice, id, 0, kBlockSize, t1));
  EXPECT_EQ(old, v1);
}

TEST_F(DriveTest, EveryModificationIsAVersion) {
  // Unlike close-to-close versioning file systems, S4 versions every write.
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  std::vector<std::pair<SimTime, std::string>> snapshots;
  for (int i = 0; i < 10; ++i) {
    std::string content = "generation " + std::to_string(i);
    ASSERT_OK(drive_->Write(alice, id, 0, BytesOf(content)));
    snapshots.emplace_back(clock_->Now(), content);
    clock_->Advance(kSecond);
  }
  for (const auto& [t, content] : snapshots) {
    ASSERT_OK_AND_ASSIGN(Bytes got, drive_->Read(alice, id, 0, 64, t));
    EXPECT_EQ(StringOf(got), content) << "at time " << t;
  }
}

TEST_F(DriveTest, DeletedObjectRecoverableFromHistory) {
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  Bytes secret = BytesOf("exploit-tool-v1: evidence the intruder wanted gone");
  ASSERT_OK(drive_->Write(alice, id, 0, secret));
  SimTime before_delete = clock_->Now();
  clock_->Advance(kSecond);
  ASSERT_OK(drive_->Delete(alice, id));

  // Normal reads fail...
  EXPECT_EQ(drive_->Read(alice, id, 0, 64).status().code(), ErrorCode::kFailedPrecondition);
  // ...but the version from before the delete is fully recoverable.
  ASSERT_OK_AND_ASSIGN(Bytes got, drive_->Read(alice, id, 0, secret.size(), before_delete));
  EXPECT_EQ(got, secret);
  // And a read at a post-delete time correctly reports absence.
  EXPECT_EQ(drive_->Read(alice, id, 0, 64, clock_->Now()).status().code(),
            ErrorCode::kNotFound);
}

TEST_F(DriveTest, TruncateVersioned) {
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  Bytes data(10000, 0);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i);
  }
  ASSERT_OK(drive_->Write(alice, id, 0, data));
  SimTime t_full = clock_->Now();
  clock_->Advance(kSecond);
  ASSERT_OK(drive_->Truncate(alice, id, 100));
  ASSERT_OK_AND_ASSIGN(ObjectAttrs attrs, drive_->GetAttr(alice, id));
  EXPECT_EQ(attrs.size, 100u);

  // Old full contents still reconstructible.
  ASSERT_OK_AND_ASSIGN(Bytes old, drive_->Read(alice, id, 0, data.size(), t_full));
  EXPECT_EQ(old, data);

  // Extending after truncation reads zeros in the gap, not stale data.
  clock_->Advance(kSecond);
  ASSERT_OK(drive_->Truncate(alice, id, 5000));
  ASSERT_OK_AND_ASSIGN(Bytes reext, drive_->Read(alice, id, 100, 4900));
  for (uint8_t b : reext) {
    ASSERT_EQ(b, 0);
  }
}

TEST_F(DriveTest, AppendGrowsObject) {
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  ASSERT_OK_AND_ASSIGN(uint64_t s1, drive_->Append(alice, id, BytesOf("abc")));
  EXPECT_EQ(s1, 3u);
  ASSERT_OK_AND_ASSIGN(uint64_t s2, drive_->Append(alice, id, BytesOf("def")));
  EXPECT_EQ(s2, 6u);
  ASSERT_OK_AND_ASSIGN(Bytes got, drive_->Read(alice, id, 0, 6));
  EXPECT_EQ(StringOf(got), "abcdef");
}

TEST_F(DriveTest, SetAttrVersioned) {
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, BytesOf("v1")));
  SimTime t1 = clock_->Now();
  clock_->Advance(kSecond);
  ASSERT_OK(drive_->SetAttr(alice, id, BytesOf("v2")));
  ASSERT_OK_AND_ASSIGN(ObjectAttrs now_attrs, drive_->GetAttr(alice, id));
  EXPECT_EQ(StringOf(now_attrs.opaque), "v2");
  ASSERT_OK_AND_ASSIGN(ObjectAttrs old_attrs, drive_->GetAttr(alice, id, t1));
  EXPECT_EQ(StringOf(old_attrs.opaque), "v1");
}

TEST_F(DriveTest, LargeMultiBlockWrite) {
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  Rng rng(42);
  Bytes data = rng.RandomBytes(300 * 1024);  // spans many blocks and entries
  ASSERT_OK(drive_->Write(alice, id, 0, data));
  ASSERT_OK(drive_->Sync(alice));
  ASSERT_OK_AND_ASSIGN(Bytes got, drive_->Read(alice, id, 0, data.size()));
  EXPECT_EQ(got, data);

  // Overwrite the middle; both generations remain readable.
  SimTime t1 = clock_->Now();
  clock_->Advance(kSecond);
  Bytes patch = rng.RandomBytes(50 * 1024);
  ASSERT_OK(drive_->Write(alice, id, 100 * 1024, patch));
  ASSERT_OK_AND_ASSIGN(Bytes old, drive_->Read(alice, id, 0, data.size(), t1));
  EXPECT_EQ(old, data);
  ASSERT_OK_AND_ASSIGN(Bytes cur, drive_->Read(alice, id, 100 * 1024, patch.size()));
  EXPECT_EQ(cur, patch);
}

TEST_F(DriveTest, SparseWriteReadsZerosInHoles) {
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  ASSERT_OK(drive_->Write(alice, id, 100000, BytesOf("far out")));
  ASSERT_OK_AND_ASSIGN(Bytes hole, drive_->Read(alice, id, 50000, 100));
  for (uint8_t b : hole) {
    ASSERT_EQ(b, 0);
  }
  ASSERT_OK_AND_ASSIGN(Bytes tail, drive_->Read(alice, id, 100000, 7));
  EXPECT_EQ(StringOf(tail), "far out");
}

TEST_F(DriveTest, VersionListEnumeratesMutations) {
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  for (int i = 0; i < 3; ++i) {
    clock_->Advance(kSecond);
    ASSERT_OK(drive_->Write(alice, id, 0, BytesOf("x" + std::to_string(i))));
  }
  ASSERT_OK_AND_ASSIGN(std::vector<VersionInfo> versions,
                       drive_->GetVersionList(alice, id));
  // create + 3 writes
  ASSERT_EQ(versions.size(), 4u);
  EXPECT_EQ(versions[0].cause, JournalEntryType::kCreate);
  for (size_t i = 1; i < versions.size(); ++i) {
    EXPECT_EQ(versions[i].cause, JournalEntryType::kWrite);
    EXPECT_GT(versions[i].time, versions[i - 1].time);
  }
}

TEST_F(DriveTest, ReadPathCountersTrackCacheAndHistory) {
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  Bytes data(8 * kBlockSize, 0x5A);
  ASSERT_OK(drive_->Write(alice, id, 0, data));
  SimTime t1 = clock_->Now();
  clock_->Advance(kSecond);
  ASSERT_OK(drive_->Write(alice, id, 0, BytesOf("generation two")));
  ASSERT_OK(drive_->Sync(alice));

  const MetricRegistry& reg = drive_->metrics();
  // Warm reads are served from the block cache.
  ASSERT_OK(drive_->Read(alice, id, 0, 64).status());
  ASSERT_OK(drive_->Read(alice, id, 0, 64).status());
  EXPECT_GT(reg.CounterValue("cache.block.hits"), 0u);

  // A time-based read walks the history pool to reconstruct the old version.
  uint64_t walks_before = reg.CounterValue("history.reconstruction_walks");
  ASSERT_OK_AND_ASSIGN(Bytes old, drive_->Read(alice, id, 0, data.size(), t1));
  EXPECT_EQ(old, data);
  EXPECT_GT(reg.CounterValue("history.reconstruction_walks"), walks_before);
  EXPECT_GT(drive_->metrics().CounterValue("drive.time_based_reads"), 0u);

  // A cold remount empties the cache: the next read misses and pulls sectors
  // off the platters. (The remounted drive has a fresh registry.)
  CrashAndRemount();
  ASSERT_OK(drive_->Read(alice, id, 0, 64).status());
  EXPECT_GT(drive_->metrics().CounterValue("cache.block.misses"), 0u);
  EXPECT_GT(drive_->metrics().CounterValue("cache.sectors_read"), 0u);
}

TEST_F(DriveTest, ManyObjectsSurviveCacheEviction) {
  // Object cache is tiny (64KB); creating many objects forces eviction and
  // checkpointing, and everything must still read back.
  Credentials alice = User(100);
  std::vector<ObjectId> ids;
  for (int i = 0; i < 300; ++i) {
    ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
    ASSERT_OK(drive_->Write(alice, id, 0, BytesOf("object " + std::to_string(i))));
    ids.push_back(id);
  }
  for (int i = 0; i < 300; ++i) {
    ASSERT_OK_AND_ASSIGN(Bytes got, drive_->Read(alice, ids[i], 0, 64));
    EXPECT_EQ(StringOf(got), "object " + std::to_string(i));
  }
}

}  // namespace
}  // namespace s4
