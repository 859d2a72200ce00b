// Foundation utilities: codec round trips (including property sweeps),
// CRC32C vectors, deterministic RNG, and Status/Result plumbing.
#include <gtest/gtest.h>

#include "src/cache/lru.h"
#include "src/util/codec.h"
#include "src/util/crc32.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "tests/test_util.h"

namespace s4 {
namespace {

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::Ok().ok());
  Status s = Status::NotFound("thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: thing");
  EXPECT_EQ(Status::Ok().ToString(), "OK");
}

TEST(ResultTest, ValueAndStatusPaths) {
  Result<int> good = 42;
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 42);
  Result<int> bad = Status::Internal("boom");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), ErrorCode::kInternal);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) {
      return Status::InvalidArgument("nope");
    }
    return 7;
  };
  auto outer = [&](bool fail) -> Result<int> {
    S4_ASSIGN_OR_RETURN(int v, inner(fail));
    return v * 2;
  };
  EXPECT_EQ(*outer(false), 14);
  EXPECT_EQ(outer(true).status().code(), ErrorCode::kInvalidArgument);
}

TEST(CodecTest, FixedWidthRoundTrip) {
  Encoder enc;
  enc.PutU8(0xAB);
  enc.PutU16(0xBEEF);
  enc.PutU32(0xDEADBEEF);
  enc.PutU64(0x0123456789ABCDEFull);
  enc.PutI64(-42);
  Decoder dec(enc.bytes());
  EXPECT_EQ(*dec.U8(), 0xAB);
  EXPECT_EQ(*dec.U16(), 0xBEEF);
  EXPECT_EQ(*dec.U32(), 0xDEADBEEFu);
  EXPECT_EQ(*dec.U64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(*dec.I64(), -42);
  EXPECT_TRUE(dec.done());
}

TEST(CodecTest, VarintBoundaries) {
  for (uint64_t v : {0ull, 1ull, 127ull, 128ull, 16383ull, 16384ull, (1ull << 32),
                     ~0ull}) {
    Encoder enc;
    enc.PutVarint(v);
    Decoder dec(enc.bytes());
    ASSERT_OK_AND_ASSIGN(uint64_t got, dec.Varint());
    EXPECT_EQ(got, v);
    EXPECT_TRUE(dec.done());
  }
}

TEST(CodecTest, StringsAndBytes) {
  Encoder enc;
  enc.PutString("hello");
  enc.PutString("");
  enc.PutLengthPrefixed(BytesOf("raw"));
  Decoder dec(enc.bytes());
  EXPECT_EQ(*dec.String(), "hello");
  EXPECT_EQ(*dec.String(), "");
  EXPECT_EQ(StringOf(*dec.LengthPrefixed()), "raw");
}

TEST(CodecTest, UnderrunReportsCorruption) {
  Bytes short_buf = {0x01, 0x02};
  Decoder dec(short_buf);
  EXPECT_EQ(dec.U64().status().code(), ErrorCode::kDataCorruption);
  Decoder dec2(short_buf);
  EXPECT_OK(dec2.U16().status());
  EXPECT_EQ(dec2.U8().status().code(), ErrorCode::kDataCorruption);
}

TEST(CodecTest, MaliciousLengthPrefixRejected) {
  Encoder enc;
  enc.PutVarint(1ull << 40);  // claims a terabyte follows
  enc.PutU8(0);
  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.LengthPrefixed().status().code(), ErrorCode::kDataCorruption);
}

class CodecPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CodecPropertyTest, MixedRoundTrip) {
  Rng rng(GetParam());
  Encoder enc;
  std::vector<std::pair<int, uint64_t>> script;
  std::vector<Bytes> blobs;
  for (int i = 0; i < 200; ++i) {
    int kind = static_cast<int>(rng.Below(5));
    uint64_t v = rng.Next() >> rng.Below(64);
    script.emplace_back(kind, v);
    switch (kind) {
      case 0:
        enc.PutU8(static_cast<uint8_t>(v));
        break;
      case 1:
        enc.PutU32(static_cast<uint32_t>(v));
        break;
      case 2:
        enc.PutU64(v);
        break;
      case 3:
        enc.PutVarint(v);
        break;
      case 4: {
        Bytes b = rng.RandomBytes(rng.Below(64));
        blobs.push_back(b);
        enc.PutLengthPrefixed(b);
        break;
      }
    }
  }
  Decoder dec(enc.bytes());
  size_t blob_index = 0;
  for (const auto& [kind, v] : script) {
    switch (kind) {
      case 0:
        ASSERT_EQ(*dec.U8(), static_cast<uint8_t>(v));
        break;
      case 1:
        ASSERT_EQ(*dec.U32(), static_cast<uint32_t>(v));
        break;
      case 2:
        ASSERT_EQ(*dec.U64(), v);
        break;
      case 3:
        ASSERT_EQ(*dec.Varint(), v);
        break;
      case 4:
        ASSERT_EQ(*dec.LengthPrefixed(), blobs[blob_index++]);
        break;
    }
  }
  EXPECT_TRUE(dec.done());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecPropertyTest, ::testing::Values(1, 2, 3, 42, 1234));

TEST(Crc32Test, KnownVectors) {
  // CRC32C("123456789") = 0xE3069283 (iSCSI test vector).
  Bytes v = BytesOf("123456789");
  EXPECT_EQ(Crc32c(v), 0xE3069283u);
  EXPECT_EQ(Crc32c({}), 0x00000000u);

  // RFC 3720 section B.4 (iSCSI) 32-byte vectors.
  Bytes ascending(32);
  Bytes descending(32);
  for (uint8_t i = 0; i < 32; ++i) {
    ascending[i] = i;
    descending[i] = static_cast<uint8_t>(31 - i);
  }
  EXPECT_EQ(Crc32c(Bytes(32, 0x00)), 0x8A9136AAu);
  EXPECT_EQ(Crc32c(Bytes(32, 0xFF)), 0x62A8AB43u);
  EXPECT_EQ(Crc32c(ascending), 0x46DD794Eu);
  EXPECT_EQ(Crc32c(descending), 0x113FDB5Cu);
}

TEST(Crc32Test, HardwareMatchesTable) {
  // The table loop is the reference: it must give the standard value.
  Bytes check = BytesOf("123456789");
  EXPECT_EQ(Crc32cFinish(internal::Crc32cExtendTable(Crc32cInit(), check)), 0xE3069283u);

  internal::Crc32cExtendFn hardware = internal::Crc32cExtendHardware();
  if (hardware == nullptr) {
    GTEST_SKIP() << "no SSE4.2 crc32 instruction on this build or CPU";
  }
  auto both = [&](uint32_t state, ByteSpan data) {
    uint32_t want = internal::Crc32cExtendTable(state, data);
    EXPECT_EQ(hardware(state, data), want) << "len " << data.size();
    return want;
  };

  // Every length up to 1,100 at every start offset within a word, so each
  // head/8-byte-body/tail split and alignment is exercised.
  Rng rng(7);
  Bytes data = rng.RandomBytes(1100 + 8);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 1100; ++len) {
      both(Crc32cInit(), ByteSpan(data).subspan(offset, len));
    }
  }

  // Large buffers: 10,891 bytes leaves a 3-byte tail, 64 KiB leaves none.
  for (size_t len : {size_t{10891}, size_t{65536}}) {
    both(Crc32cInit(), rng.RandomBytes(len));
  }

  // Chained Extend across random split points matches the one-shot value on
  // both paths.
  Bytes big = rng.RandomBytes(20000);
  uint32_t whole = both(Crc32cInit(), big);
  EXPECT_EQ(Crc32cExtend(Crc32cInit(), big), whole);
  for (int trial = 0; trial < 50; ++trial) {
    uint32_t table_state = Crc32cInit();
    uint32_t hardware_state = Crc32cInit();
    size_t off = 0;
    while (off < big.size()) {
      size_t n = std::min<size_t>(rng.Below(300), big.size() - off);
      ByteSpan piece = ByteSpan(big).subspan(off, n);
      table_state = internal::Crc32cExtendTable(table_state, piece);
      hardware_state = hardware(hardware_state, piece);
      ASSERT_EQ(hardware_state, table_state) << "trial " << trial << " at " << off;
      off += n;
    }
    EXPECT_EQ(table_state, whole);
  }
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  Rng rng(5);
  Bytes data = rng.RandomBytes(10000);
  uint32_t state = Crc32cInit();
  for (size_t off = 0; off < data.size(); off += 777) {
    size_t n = std::min<size_t>(777, data.size() - off);
    state = Crc32cExtend(state, ByteSpan(data).subspan(off, n));
  }
  EXPECT_EQ(Crc32cFinish(state), Crc32c(data));
}

TEST(Crc32Test, DetectsBitFlips) {
  Rng rng(6);
  Bytes data = rng.RandomBytes(512);
  uint32_t crc = Crc32c(data);
  for (int i = 0; i < 20; ++i) {
    Bytes mutated = data;
    mutated[rng.Below(mutated.size())] ^= static_cast<uint8_t>(1 + rng.Below(255));
    EXPECT_NE(Crc32c(mutated), crc);
  }
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(99);
  Rng b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, RangeBoundsRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.Range(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(RngTest, CompressibilityShapesEntropy) {
  Rng rng(8);
  Bytes random = rng.RandomBytes(10000, 0.0);
  Bytes texty = rng.RandomBytes(10000, 0.9);
  // Count distinct bytes as a crude entropy proxy.
  auto distinct = [](const Bytes& b) {
    std::set<uint8_t> s(b.begin(), b.end());
    return s.size();
  };
  EXPECT_GT(distinct(random), 200u);
  EXPECT_LT(distinct(texty), 30u);
}

TEST(LruCacheTest, BasicPutGetEvict) {
  LruCache<int, std::string> cache(100);
  cache.Put(1, "a", 40);
  cache.Put(2, "b", 40);
  ASSERT_NE(cache.Get(1), nullptr);  // 1 is now MRU
  cache.Put(3, "c", 40);             // evicts 2 (LRU)
  EXPECT_EQ(cache.Get(2), nullptr);
  EXPECT_NE(cache.Get(1), nullptr);
  EXPECT_NE(cache.Get(3), nullptr);
  EXPECT_EQ(cache.used(), 80u);
}

TEST(LruCacheTest, ReplaceFiresEvictionCallbackWithDisplacedValue) {
  // An entry can carry dirty state whose eviction side effect (e.g.
  // checkpointing an inode) must run even when the entry is *replaced*
  // rather than evicted for space.
  LruCache<int, std::string> cache(1000);
  std::vector<std::pair<int, std::string>> evicted;
  cache.set_evict_fn([&](const int& k, std::string&& v) { evicted.emplace_back(k, v); });

  cache.Put(7, "dirty-v1", 100);
  EXPECT_TRUE(evicted.empty());
  cache.Put(7, "v2", 60);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].first, 7);
  EXPECT_EQ(evicted[0].second, "dirty-v1");  // the displaced value, not the new one
  EXPECT_EQ(*cache.Peek(7), "v2");
  EXPECT_EQ(cache.used(), 60u);  // cost re-charged, not accumulated
  EXPECT_EQ(cache.entry_count(), 1u);
}

TEST(LruCacheTest, ReplaceMarksEntryMostRecentlyUsed) {
  LruCache<int, int> cache(3);
  cache.Put(1, 10, 1);
  cache.Put(2, 20, 1);
  cache.Put(3, 30, 1);
  cache.Put(1, 11, 1);  // replace: 1 becomes MRU, 2 is now LRU
  cache.Put(4, 40, 1);  // evicts 2
  EXPECT_EQ(cache.Get(2), nullptr);
  ASSERT_NE(cache.Get(1), nullptr);
  EXPECT_EQ(*cache.Get(1), 11);
}

TEST(LruCacheTest, ReplaceGrowthCanTriggerEviction) {
  LruCache<int, std::string> cache(100);
  std::vector<int> evicted;
  cache.set_evict_fn([&](const int& k, std::string&&) { evicted.push_back(k); });
  cache.Put(1, "a", 40);
  cache.Put(2, "b", 40);
  // Replacing 2 with a bigger entry exceeds the budget: 2's old value is
  // displaced (callback) and 1 must be evicted for space (callback).
  cache.Put(2, "big", 90);
  EXPECT_EQ(evicted, (std::vector<int>{2, 1}));
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_EQ(cache.used(), 90u);
}

TEST(LruCacheTest, RemoveSkipsEvictionCallback) {
  LruCache<int, std::string> cache(100);
  int evictions = 0;
  cache.set_evict_fn([&](const int&, std::string&&) { ++evictions; });
  cache.Put(1, "a", 10);
  EXPECT_TRUE(cache.Remove(1));
  EXPECT_FALSE(cache.Remove(1));
  EXPECT_EQ(evictions, 0);
  EXPECT_EQ(cache.used(), 0u);
}

TEST(LruCacheTest, DemoteEvictsFirst) {
  LruCache<int, std::string> cache(30);
  std::vector<int> evicted;
  cache.set_evict_fn([&](const int& k, std::string&&) { evicted.push_back(k); });
  cache.Put(1, "a", 10);
  cache.Put(2, "b", 10);
  cache.Put(3, "c", 10);  // recency: 3, 2, 1
  cache.Demote(3);        // 3 is now the eviction end, though newest
  EXPECT_TRUE(evicted.empty());
  EXPECT_EQ(cache.used(), 30u);
  EXPECT_EQ(cache.entry_count(), 3u);
  ASSERT_NE(cache.Peek(3), nullptr);  // still readable
  cache.Put(4, "d", 10);
  EXPECT_EQ(evicted, (std::vector<int>{3}));

  // A Get after a demote makes the entry most-recently-used again.
  cache.Demote(4);
  ASSERT_NE(cache.Get(4), nullptr);
  cache.Put(5, "e", 10);  // recency before the put: 4, 2, 1
  EXPECT_EQ(evicted, (std::vector<int>{3, 1}));

  // A missing key is a no-op.
  cache.Demote(99);
  EXPECT_EQ(cache.used(), 30u);
  EXPECT_EQ(cache.entry_count(), 3u);
  EXPECT_EQ(evicted.size(), 2u);
}

TEST(LruCacheTest, ClearEvictsEverythingThroughCallback) {
  LruCache<int, std::string> cache(100);
  int evictions = 0;
  cache.set_evict_fn([&](const int&, std::string&&) { ++evictions; });
  cache.Put(1, "a", 10);
  cache.Put(2, "b", 10);
  cache.Clear();
  EXPECT_EQ(evictions, 2);
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.used(), 0u);
}

}  // namespace
}  // namespace s4
