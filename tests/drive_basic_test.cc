// End-to-end behaviour of the S4 drive: create/write/read, comprehensive
// versioning with time-based access, delete + resurrection, and sync.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

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

// A data record holds only its block's live sectors at the object's size.
// One object walks through each kind of size change. After each, the usage
// table moved by exactly the records written and superseded, the object
// reads back now and at every earlier instant, and both hold after a crash.
// Once the window passes, the sweep releases every superseded record at the
// length it was written at, so the history pool is back where it started.
TEST_F(DriveTest, RecordLengthsFollowTheSizeThroughEveryTransition) {
  const Credentials alice = User(100);
  auto live = [&] { return drive_->usage_table().LiveSectorsTotal(); };
  auto history = [&] { return drive_->usage_table().HistorySectorsTotal(); };
  const uint64_t history_at_start = history();
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
  Rng rng(7);
  Bytes content;
  std::vector<std::pair<SimTime, Bytes>> instants;

  auto check_reads = [&](const std::string& step) {
    for (const auto& [t, expect] : instants) {
      ASSERT_OK_AND_ASSIGN(Bytes then, drive_->Read(alice, id, 0, 1 << 16, t));
      EXPECT_EQ(then, expect) << step << " @" << t;
    }
  };
  // Syncs, checks the bytes, crashes, and checks the usage table and the
  // bytes again.
  auto sync_crash_check = [&](const std::string& step) {
    ASSERT_OK(drive_->Sync(alice));
    const uint64_t live_synced = live();
    const uint64_t history_synced = history();
    check_reads(step);
    CrashAndRemount();
    EXPECT_EQ(live(), live_synced) << step << " after the crash";
    EXPECT_EQ(history(), history_synced) << step << " after the crash";
    check_reads(step + " after the crash");
  };
  auto write = [&](uint64_t offset, uint64_t n) {
    return [&, offset, n]() -> Status {
      Bytes data = rng.RandomBytes(n);
      content.resize(std::max<uint64_t>(content.size(), offset + n), 0);
      std::copy(data.begin(), data.end(), content.begin() + static_cast<ptrdiff_t>(offset));
      return drive_->Write(alice, id, offset, data);
    };
  };
  auto truncate = [&](uint64_t size) {
    return [&, size]() -> Status {
      content.resize(size, 0);
      return drive_->Truncate(alice, id, size);
    };
  };
  struct Step {
    std::string what;
    std::function<Status()> op;
    int64_t live;     // sectors written minus sectors superseded
    int64_t history;  // sectors superseded
  };
  const Step steps[] = {
      {"first write: block 0 is 2 sectors", write(0, 1000), 2, 0},
      {"write inside the last block: block 0 2 -> 3", write(900, 400), 1, 2},
      {"append across a block boundary: block 0 3 -> 8, block 1 is 3",
       [&]() -> Status {
         Bytes data = rng.RandomBytes(4000);
         content.insert(content.end(), data.begin(), data.end());
         return drive_->Append(alice, id, data).status();
       },
       8, 3},
      {"write past the partial last block: block 1 3 -> 8, block 3 is 1", write(12288, 100), 6,
       3},
      {"truncate extending within the last block: block 3 1 -> 2", truncate(13000), 1, 1},
      {"truncate extending within the last sector: nothing rebuilt", truncate(13100), 0, 0},
      {"truncate extending past the last block: block 3 2 -> 8", truncate(20000), 6, 2},
      {"shrink into a block: block 1 8 -> 2, block 3 dropped", truncate(5000), -14, 16},
  };
  for (const Step& step : steps) {
    clock_->Advance(kSecond);
    const uint64_t live0 = live();
    const uint64_t history0 = history();
    ASSERT_OK(step.op());
    EXPECT_EQ(static_cast<int64_t>(live() - live0), step.live) << step.what;
    EXPECT_EQ(static_cast<int64_t>(history() - history0), step.history) << step.what;
    ASSERT_OK_AND_ASSIGN(Bytes now, drive_->Read(alice, id, 0, 1 << 16));
    EXPECT_EQ(now, content) << step.what;
    instants.emplace_back(clock_->Now(), content);
    sync_crash_check(step.what);
  }

  // A delete retires the blocks at the final size (8 + 2 sectors); it also
  // writes the delete-time checkpoint and journal sectors.
  clock_->Advance(kSecond);
  const uint64_t live0 = live();
  const uint64_t history0 = history();
  const uint32_t checkpoint0 = drive_->DebugObjectEntry(id)->checkpoint_sectors;
  const uint64_t journal0 = drive_->metrics().CounterValue("drive.journal_sectors_written");
  ASSERT_OK(drive_->Delete(alice, id));
  const int64_t journal = static_cast<int64_t>(
      drive_->metrics().CounterValue("drive.journal_sectors_written") - journal0);
  const int64_t checkpoint =
      static_cast<int64_t>(drive_->DebugObjectEntry(id)->checkpoint_sectors) -
      static_cast<int64_t>(checkpoint0);
  EXPECT_EQ(static_cast<int64_t>(live() - live0), -10 + checkpoint + journal);
  EXPECT_EQ(history() - history0, 10u);
  sync_crash_check("delete");

  // Past the window, the sweep releases each superseded record, and at last
  // the deleted object, at the length it was written at.
  clock_->Advance(2 * kHour);
  ASSERT_OK(drive_->RunCleanerPass(4).status());
  EXPECT_EQ(history(), history_at_start);
}

// A partition table that grows past one block and shrinks back under it: the
// dropped block becomes history, and every instant lists its own table, also
// after a crash.
TEST_F(DriveTest, PartitionTableAcrossABlockBoundary) {
  using Table = std::vector<std::pair<std::string, ObjectId>>;
  Credentials alice = User(100);
  Table table;
  SimTime one_block = 0;
  for (int i = 0; i < 20; ++i) {
    ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(alice, {}));
    clock_->Advance(kSecond);
    std::string name(255, static_cast<char>('a' + i));
    ASSERT_OK(drive_->PCreate(alice, name, id));
    table.emplace_back(name, id);
    if (i == 14) {
      one_block = clock_->Now();
    }
  }
  const Table one_block_table(table.begin(), table.begin() + 15);
  const Table two_block_table = table;
  const SimTime two_blocks = clock_->Now();
  ASSERT_OK_AND_ASSIGN(ObjectAttrs attrs, drive_->GetAttr(alice, kPartitionTableObjectId));
  ASSERT_GT(attrs.size, kBlockSize);

  // Drop the first five names: the table fits one block again.
  for (int i = 0; i < 5; ++i) {
    clock_->Advance(kSecond);
    ASSERT_OK(drive_->PDelete(alice, table.front().first));
    table.erase(table.begin());
  }
  ASSERT_OK_AND_ASSIGN(attrs, drive_->GetAttr(alice, kPartitionTableObjectId));
  ASSERT_LT(attrs.size, kBlockSize);

  auto check = [&](const std::string& when) {
    ASSERT_OK_AND_ASSIGN(Table now, drive_->PList(alice));
    EXPECT_EQ(now, table) << when;
    ASSERT_OK_AND_ASSIGN(Table early, drive_->PList(alice, one_block));
    EXPECT_EQ(early, one_block_table) << when;
    ASSERT_OK_AND_ASSIGN(Table full, drive_->PList(alice, two_blocks));
    EXPECT_EQ(full, two_block_table) << when;
    const std::string& first = two_block_table.front().first;
    const std::string& last = two_block_table.back().first;
    EXPECT_EQ(drive_->PMount(alice, first).status().code(), ErrorCode::kNotFound) << when;
    ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->PMount(alice, last));
    EXPECT_EQ(id, two_block_table.back().second) << when;
    ASSERT_OK_AND_ASSIGN(id, drive_->PMount(alice, first, two_blocks));
    EXPECT_EQ(id, two_block_table.front().second) << when;
    EXPECT_EQ(drive_->PMount(alice, last, one_block).status().code(), ErrorCode::kNotFound)
        << when;
  };
  check("live");
  ASSERT_OK(drive_->Sync(alice));
  CrashAndRemount();
  check("after crash");
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

TEST_F(DriveTest, HistoryNeverEvictsCurrentBlocks) {
  // The 1 MB block cache holds the current data (64 + 32 blocks) but not the
  // 2 MB of history that 16 overwrites of the hot object leave behind. A
  // superseded block goes to the eviction end, so the cold object stays cached.
  Credentials alice = User(100);
  ASSERT_OK_AND_ASSIGN(ObjectId cold, drive_->Create(alice, {}));
  Bytes cold_data(64 * kBlockSize, 0xC0);
  ASSERT_OK(drive_->Write(alice, cold, 0, cold_data));
  ASSERT_OK_AND_ASSIGN(ObjectId hot, drive_->Create(alice, {}));
  Bytes first_gen(32 * kBlockSize, 0x01);
  ASSERT_OK(drive_->Write(alice, hot, 0, first_gen));
  ASSERT_OK(drive_->Sync(alice));
  SimTime t_first = clock_->Now();
  for (int pass = 0; pass < 16; ++pass) {
    clock_->Advance(kSecond);
    ASSERT_OK(drive_->Write(alice, hot, 0, Bytes(32 * kBlockSize, static_cast<uint8_t>(pass + 2))));
    ASSERT_OK(drive_->Sync(alice));
  }

  const MetricRegistry& reg = drive_->metrics();
  uint64_t misses = reg.CounterValue("cache.block.misses");
  ASSERT_OK_AND_ASSIGN(Bytes got, drive_->Read(alice, cold, 0, cold_data.size()));
  EXPECT_EQ(got, cold_data);
  EXPECT_EQ(reg.CounterValue("cache.block.misses"), misses);

  // Demoted history is still history: a time-based read reconstructs it.
  ASSERT_OK_AND_ASSIGN(Bytes old, drive_->Read(alice, hot, 0, first_gen.size(), t_first));
  EXPECT_EQ(old, first_gen);
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
