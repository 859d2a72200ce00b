// Journal entry/sector codecs, inode checkpoints, the object map, the LRU
// cache, the block device timing model, and RPC message framing.
#include <gtest/gtest.h>

#include "src/cache/lru.h"
#include "src/journal/sector.h"
#include "src/object/inode.h"
#include "src/object/object_map.h"
#include "src/rpc/messages.h"
#include "src/sim/block_device.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace s4 {
namespace {

JournalEntry MakeWrite(SimTime t, uint64_t old_size, uint64_t new_size,
                       std::vector<BlockDelta> deltas) {
  JournalEntry e;
  e.type = JournalEntryType::kWrite;
  e.time = t;
  e.old_size = old_size;
  e.new_size = new_size;
  e.blocks = std::move(deltas);
  return e;
}

TEST(JournalEntryTest, AllTypesRoundTrip) {
  std::vector<JournalEntry> entries;
  entries.push_back(MakeWrite(100, 0, 8192, {{0, 0, 800}, {1, 0, 808}}));
  {
    JournalEntry e;
    e.type = JournalEntryType::kTruncate;
    e.time = 200;
    e.old_size = 8192;
    e.new_size = 100;
    e.blocks = {{1, 808, 0}};
    entries.push_back(e);
  }
  {
    JournalEntry e;
    e.type = JournalEntryType::kCreate;
    e.time = 50;
    e.old_blob = BytesOf("acl-bytes");
    e.new_blob = BytesOf("attrs");
    entries.push_back(e);
  }
  {
    JournalEntry e;
    e.type = JournalEntryType::kSetAttr;
    e.time = 300;
    e.old_blob = BytesOf("old");
    e.new_blob = BytesOf("new");
    entries.push_back(e);
  }
  {
    JournalEntry e;
    e.type = JournalEntryType::kDelete;
    e.time = 400;
    e.checkpoint_addr = 12345;
    e.checkpoint_sectors = 3;
    entries.push_back(e);
  }
  {
    JournalEntry e;
    e.type = JournalEntryType::kCheckpoint;
    e.time = 350;
    e.checkpoint_addr = 999;
    e.checkpoint_sectors = 2;
    entries.push_back(e);
  }

  for (const auto& e : entries) {
    Encoder enc;
    e.EncodeTo(&enc);
    Decoder dec(enc.bytes());
    ASSERT_OK_AND_ASSIGN(JournalEntry back, JournalEntry::DecodeFrom(&dec));
    EXPECT_EQ(back.type, e.type);
    EXPECT_EQ(back.time, e.time);
    EXPECT_EQ(back.old_size, e.old_size);
    EXPECT_EQ(back.new_size, e.new_size);
    EXPECT_EQ(back.blocks.size(), e.blocks.size());
    EXPECT_EQ(back.old_blob, e.old_blob);
    EXPECT_EQ(back.new_blob, e.new_blob);
    EXPECT_EQ(back.checkpoint_addr, e.checkpoint_addr);
    EXPECT_TRUE(dec.done());
  }
}

TEST(JournalSectorTest, PackSplitsAcrossSectors) {
  std::vector<JournalEntry> entries;
  for (int i = 0; i < 60; ++i) {
    entries.push_back(MakeWrite(100 + i, i * 4096, (i + 1) * 4096,
                                {{static_cast<uint64_t>(i), 0, 1000ull + i * 8}}));
  }
  ASSERT_OK_AND_ASSIGN(PackedJournal packed, PackJournalEntries(7, 555, entries));
  ASSERT_GT(packed.sectors.size(), 1u);
  // Every sector encodes to exactly one disk sector; entries stay in order.
  SimTime last = 0;
  size_t total = 0;
  for (const auto& sector : packed.sectors) {
    ASSERT_OK_AND_ASSIGN(Bytes encoded, sector.Encode());
    EXPECT_EQ(encoded.size(), kSectorSize);
    ASSERT_OK_AND_ASSIGN(JournalSector decoded, JournalSector::Decode(encoded));
    EXPECT_EQ(decoded.object_id, 7u);
    for (const auto& e : decoded.entries) {
      EXPECT_GT(e.time, last);
      last = e.time;
      ++total;
    }
  }
  EXPECT_EQ(total, entries.size());
}

TEST(JournalSectorTest, CorruptSectorRejected) {
  JournalSector sector;
  sector.object_id = 3;
  sector.entries.push_back(MakeWrite(1, 0, 10, {}));
  ASSERT_OK_AND_ASSIGN(Bytes encoded, sector.Encode());
  encoded[100] ^= 0x01;
  EXPECT_EQ(JournalSector::Decode(encoded).status().code(), ErrorCode::kDataCorruption);
}

TEST(InodeTest, CheckpointRoundTrip) {
  Inode ino;
  ino.id = 42;
  ino.attrs.size = 1234567;
  ino.attrs.create_time = 10;
  ino.attrs.modify_time = 20;
  ino.attrs.opaque = BytesOf("nfs-attrs");
  ino.acl = {{100, kPermAll}, {kEveryoneUserId, kPermRead}};
  Rng rng(3);
  DiskAddr addr = 1000;
  for (uint64_t b = 0; b < 300; ++b) {
    if (rng.Chance(9, 10)) {  // leave some holes
      ino.blocks[b] = addr;
      addr += rng.Chance(1, 2) ? 8 : 4096;  // sometimes far apart
    }
  }
  Bytes record = ino.EncodeCheckpoint();
  EXPECT_EQ(record.size() % kSectorSize, 0u);
  ASSERT_OK_AND_ASSIGN(Inode back, Inode::DecodeCheckpoint(record));
  EXPECT_EQ(back.id, ino.id);
  EXPECT_EQ(back.attrs.size, ino.attrs.size);
  EXPECT_EQ(back.attrs.opaque, ino.attrs.opaque);
  ASSERT_EQ(back.acl.size(), 2u);
  EXPECT_EQ(back.acl[0].perms, kPermAll);
  EXPECT_EQ(back.blocks, ino.blocks);

  record[8] ^= 0x40;
  EXPECT_EQ(Inode::DecodeCheckpoint(record).status().code(), ErrorCode::kDataCorruption);
}

TEST(ObjectMapTest, IdsMonotonicAndReserved) {
  ObjectMap map;
  ObjectId a = map.AllocateId();
  ObjectId b = map.AllocateId();
  EXPECT_GT(b, a);
  EXPECT_GE(a, kFirstUserObjectId);
  map.ReserveThrough(b + 100);
  EXPECT_GT(map.AllocateId(), b + 100);
}

TEST(ObjectMapTest, SerializationRoundTrip) {
  ObjectMap map;
  ObjectId id = map.AllocateId();
  ObjectMapEntry e;
  e.create_time = 111;
  e.delete_time = 222;
  e.checkpoint_addr = 3333;
  e.checkpoint_sectors = 4;
  e.checkpoint_time = 150;
  e.journal_head = 5555;
  e.history_barrier = 99;
  map.Put(id, e);
  Encoder enc;
  map.EncodeTo(&enc);
  Decoder dec(enc.bytes());
  ASSERT_OK_AND_ASSIGN(ObjectMap back, ObjectMap::DecodeFrom(&dec));
  const ObjectMapEntry* got = back.Find(id);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->create_time, 111);
  EXPECT_EQ(got->delete_time, 222);
  EXPECT_EQ(got->checkpoint_addr, 3333u);
  EXPECT_EQ(got->journal_head, 5555u);
  EXPECT_EQ(got->history_barrier, 99);
  EXPECT_FALSE(got->live());
  // Fresh ids continue after the restored high-water mark.
  EXPECT_GT(back.AllocateId(), id);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache<int, std::string> cache(30);
  std::vector<int> evicted;
  cache.set_evict_fn([&](const int& k, std::string&&) { evicted.push_back(k); });
  cache.Put(1, "a", 10);
  cache.Put(2, "b", 10);
  cache.Put(3, "c", 10);
  EXPECT_NE(cache.Get(1), nullptr);  // touch 1: now 2 is LRU
  cache.Put(4, "d", 10);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], 2);
  EXPECT_EQ(cache.Get(2), nullptr);
  EXPECT_NE(cache.Get(1), nullptr);
}

TEST(LruCacheTest, OversizedEntryStillHeld) {
  LruCache<int, std::string> cache(10);
  cache.Put(1, "huge", 100);
  EXPECT_NE(cache.Get(1), nullptr);  // newest entry never evicted by itself
}

TEST(LruCacheTest, RemoveSkipsEvictionCallback) {
  LruCache<int, int> cache(100);
  int evictions = 0;
  cache.set_evict_fn([&](const int&, int&&) { ++evictions; });
  cache.Put(1, 11, 10);
  EXPECT_TRUE(cache.Remove(1));
  EXPECT_EQ(evictions, 0);
  EXPECT_FALSE(cache.Remove(1));
}

TEST(BlockDeviceTest, SequentialCheaperThanRandom) {
  SimClock clock;
  BlockDevice dev((64ull << 20) / kSectorSize, &clock);
  Bytes block(kBlockSize, 1);
  // Sequential writes, back to back.
  SimTime t0 = clock.Now();
  for (int i = 0; i < 64; ++i) {
    ASSERT_OK(dev.Write(1000 + i * 8, block));
  }
  SimDuration sequential = clock.Now() - t0;
  // Random writes.
  Rng rng(1);
  SimTime t1 = clock.Now();
  for (int i = 0; i < 64; ++i) {
    ASSERT_OK(dev.Write(8 * rng.Below(16000), block));
  }
  SimDuration random = clock.Now() - t1;
  EXPECT_GT(random, 5 * sequential);
}

TEST(BlockDeviceTest, IdleGapChargesRotation) {
  SimClock clock;
  BlockDevice dev((64ull << 20) / kSectorSize, &clock);
  Bytes block(kBlockSize, 1);
  ASSERT_OK(dev.Write(1000, block));
  SimTime t0 = clock.Now();
  ASSERT_OK(dev.Write(1008, block));  // immediately sequential: cheap
  SimDuration hot = clock.Now() - t0;
  clock.Advance(kSecond);  // host goes idle; platter keeps spinning
  SimTime t1 = clock.Now();
  ASSERT_OK(dev.Write(1016, block));
  SimDuration cold = clock.Now() - t1;
  EXPECT_GT(cold, hot + 2 * kMillisecond);
}

TEST(BlockDeviceTest, OutOfRangeRejected) {
  SimClock clock;
  BlockDevice dev(1000, &clock);
  Bytes out;
  EXPECT_FALSE(dev.Read(999, 2, &out).ok());
  EXPECT_FALSE(dev.Write(1000, Bytes(kSectorSize, 0)).ok());
}

TEST(RpcMessagesTest, RequestRoundTrip) {
  RpcRequest req;
  req.op = RpcOp::kRead;
  req.creds = {7, 100, 0xABCD};
  req.object = 42;
  req.offset = 1024;
  req.length = 4096;
  req.at = SimTime{999999};
  req.name = "partition";
  req.acl_entry = {55, kPermRead | kPermRecovery};
  Bytes frame = req.Encode();
  ASSERT_OK_AND_ASSIGN(RpcRequest back, RpcRequest::Decode(frame));
  EXPECT_EQ(back.op, RpcOp::kRead);
  EXPECT_EQ(back.creds.user, 100u);
  EXPECT_EQ(back.creds.admin_key, 0xABCDu);
  EXPECT_EQ(back.object, 42u);
  ASSERT_TRUE(back.at.has_value());
  EXPECT_EQ(*back.at, 999999);
  EXPECT_EQ(back.name, "partition");
  EXPECT_EQ(back.acl_entry.perms, kPermRead | kPermRecovery);
}

TEST(RpcMessagesTest, ResponseRoundTrip) {
  RpcResponse resp;
  resp.code = ErrorCode::kThrottled;
  resp.message = "slow down";
  resp.data = BytesOf("payload");
  resp.value = 77;
  resp.partitions = {{"a", 1}, {"b", 2}};
  resp.versions = {{100, 2}, {200, 4}};
  Bytes frame = resp.Encode();
  ASSERT_OK_AND_ASSIGN(RpcResponse back, RpcResponse::Decode(frame));
  EXPECT_EQ(back.code, ErrorCode::kThrottled);
  EXPECT_EQ(back.message, "slow down");
  EXPECT_EQ(StringOf(back.data), "payload");
  EXPECT_EQ(back.partitions.size(), 2u);
  EXPECT_EQ(back.versions.size(), 2u);
}

TEST(RpcMessagesTest, HostileFramesRejectedGracefully) {
  Rng rng(4);
  // Random garbage must never decode.
  for (int i = 0; i < 50; ++i) {
    Bytes garbage = rng.RandomBytes(8 + rng.Below(200));
    EXPECT_FALSE(RpcRequest::Decode(garbage).ok());
  }
  // Bit-flipped real frames must be caught by the CRC.
  RpcRequest req;
  req.op = RpcOp::kWrite;
  req.data = rng.RandomBytes(100);
  Bytes frame = req.Encode();
  for (int i = 0; i < 20; ++i) {
    Bytes mutated = frame;
    mutated[rng.Below(mutated.size())] ^= static_cast<uint8_t>(1 + rng.Below(255));
    auto result = RpcRequest::Decode(mutated);
    if (result.ok()) {
      // Astronomically unlikely; if it happens the payload must match anyway.
      EXPECT_EQ(result->data, req.data);
    }
  }
}

}  // namespace
}  // namespace s4
