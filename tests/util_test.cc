// Foundation utilities: codec round trips (including property sweeps),
// CRC32C vectors, deterministic RNG, and Status/Result plumbing.
#include <gtest/gtest.h>

#include <functional>
#include <list>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

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
  // The wire format is little-endian whatever the host's byte order.
  const Bytes expected = {0xAB,                                            // u8
                          0xEF, 0xBE,                                      // u16
                          0xEF, 0xBE, 0xAD, 0xDE,                          // u32
                          0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01,  // u64
                          0xD6, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}; // i64 -42
  EXPECT_EQ(enc.bytes(), expected);
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

// A string filled in place gets the same bytes as one copied in, whether
// its length prefix fits the reserved byte or has to widen, and reads back
// as a view without a copy.
TEST(CodecTest, InPlaceLengthPrefixMatchesCopiedOne) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{127}, size_t{128}, size_t{300},
                   size_t{16383}, size_t{16384}, size_t{70000}}) {
    Bytes payload(n);
    for (size_t i = 0; i < n; ++i) payload[i] = static_cast<uint8_t>(i * 7 + 1);
    Encoder copied;
    copied.PutU8(0xAA);
    copied.PutLengthPrefixed(payload);
    copied.PutU8(0xBB);
    Encoder in_place;
    in_place.PutU8(0xAA);
    in_place.PutLengthPrefixedWith([&](Encoder* e) { e->PutBytes(payload); });
    in_place.PutU8(0xBB);
    EXPECT_EQ(in_place.bytes(), copied.bytes()) << n << " bytes";
    Decoder dec(in_place.bytes());
    ASSERT_OK(dec.U8().status());
    ASSERT_OK_AND_ASSIGN(ByteSpan view, dec.LengthPrefixedSpan());
    EXPECT_EQ(Bytes(view.begin(), view.end()), payload);
    EXPECT_EQ(view.data(), in_place.bytes().data() + (in_place.size() - 1 - n));
    ASSERT_OK_AND_ASSIGN(uint8_t tail, dec.U8());
    EXPECT_EQ(tail, 0xBB);
    EXPECT_TRUE(dec.done());
  }
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

// RandomBytes as it was written before its word stores: a division by the
// alphabet size and a double multiply per run, then the run one byte at a
// time. The generator must give the same bytes and consume the same draws.
Bytes ReferenceRandomBytes(Rng& rng, size_t n, double compressibility) {
  Bytes out(n);
  if (compressibility <= 0.0) {
    for (size_t i = 0; i < n; ++i) {
      out[i] = static_cast<uint8_t>(rng.Next());
    }
    return out;
  }
  const uint64_t alphabet = compressibility >= 0.9 ? 4 : 16;
  size_t i = 0;
  while (i < n) {
    uint8_t b = static_cast<uint8_t>('a' + rng.Below(alphabet));
    size_t run = 1 + static_cast<size_t>(compressibility * static_cast<double>(rng.Below(24)));
    for (size_t k = 0; k < run && i < n; ++k) {
      out[i++] = b;
    }
  }
  return out;
}

TEST(RngTest, RandomBytesMatchesReference) {
  // Every compressibility the tree passes, plus the top of the range, where
  // runs are longest.
  const double kCompressibility[] = {0.0, 0.3, 0.4, 0.5, 0.7, 0.75, 0.8, 0.9, 0.95, 1.0};
  const size_t kLengths[] = {0, 1, 7, 8, 23, 24, 25, 4095, 4096, 9216};
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    Rng lengths(seed + 1000);
    for (double c : kCompressibility) {
      Rng fast(seed);
      Rng reference(seed);
      auto check = [&](size_t n) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed << " compressibility " << c
                                          << " length " << n);
        ASSERT_EQ(fast.RandomBytes(n, c), ReferenceRandomBytes(reference, n, c));
        // Same draws consumed: every later draw of a workload stays in step.
        ASSERT_EQ(fast.Next(), reference.Next());
      };
      for (size_t n : kLengths) {
        check(n);
        if (HasFatalFailure()) return;
      }
      for (int k = 0; k < 4; ++k) {
        check(lengths.Below(20001));
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(RngTest, RandomBytesRejectsCompressibilityOutsideUnitRange) {
  Rng rng(1);
  EXPECT_DEATH(rng.RandomBytes(64, 1.05), "compressibility");
  EXPECT_DEATH(rng.RandomBytes(64, -0.1), "compressibility");
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

// LruCache as it was written before its slab: a std::list in recency order
// and an unordered_map from key to list node. The differential test below
// holds LruCache to its results, recency, eviction order and callbacks.
template <typename Key, typename Value>
class ReferenceLru {
 public:
  using EvictFn = std::function<void(const Key&, Value&&)>;

  explicit ReferenceLru(uint64_t capacity_bytes) : capacity_(capacity_bytes) {}

  void set_evict_fn(EvictFn fn) { evict_fn_ = std::move(fn); }
  uint64_t used() const { return used_; }
  size_t entry_count() const { return index_.size(); }

  Value* Get(const Key& key) {
    auto it = index_.find(key);
    if (it == index_.end()) {
      return nullptr;
    }
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->value;
  }

  Value* Peek(const Key& key) {
    auto it = index_.find(key);
    return it == index_.end() ? nullptr : &it->second->value;
  }

  void Put(const Key& key, Value value, uint64_t cost) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      Entry& e = *it->second;
      Value displaced = std::move(e.value);
      e.value = std::move(value);
      used_ += cost;
      used_ -= e.cost;
      e.cost = cost;
      order_.splice(order_.begin(), order_, it->second);
      if (evict_fn_) {
        evict_fn_(key, std::move(displaced));
      }
      EvictToFit();
      return;
    }
    order_.push_front(Entry{key, std::move(value), cost});
    index_[key] = order_.begin();
    used_ += cost;
    EvictToFit();
  }

  void Demote(const Key& key) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      order_.splice(order_.end(), order_, it->second);
    }
  }

  bool Remove(const Key& key) {
    auto it = index_.find(key);
    if (it == index_.end()) {
      return false;
    }
    used_ -= it->second->cost;
    order_.erase(it->second);
    index_.erase(it);
    return true;
  }

  void Clear() {
    while (!order_.empty()) {
      EvictOne();
    }
  }

  // Keys from most to least recently used (test-only; lets the random ops
  // aim a Put at a resident key).
  std::vector<Key> Keys() const {
    std::vector<Key> keys;
    for (const Entry& e : order_) {
      keys.push_back(e.key);
    }
    return keys;
  }

 private:
  struct Entry {
    Key key;
    Value value;
    uint64_t cost;
  };

  void EvictOne() {
    auto& victim = order_.back();
    Key key = victim.key;
    Value value = std::move(victim.value);
    used_ -= victim.cost;
    index_.erase(victim.key);
    order_.pop_back();
    if (evict_fn_) {
      evict_fn_(key, std::move(value));
    }
  }

  void EvictToFit() {
    while (used_ > capacity_ && order_.size() > 1) {
      EvictOne();
    }
  }

  EvictFn evict_fn_;
  uint64_t capacity_;
  uint64_t used_ = 0;
  std::list<Entry> order_;
  std::unordered_map<Key, typename std::list<Entry>::iterator> index_;
};

// 20,000 random Get, Peek, new and replacing Put, Demote, Remove and Clear
// ops over 64 keys (costs 1-40, 200-byte budget) on LruCache and on
// ReferenceLru. With `reentrant`, the eviction callback of a key that is a
// multiple of 5 Puts one of 8 further keys into the same cache, as the
// drive's object cache may when an eviction checkpoints.
void RunLruAgainstReference(uint64_t seed, bool reentrant) {
  constexpr int kKeys = 64;
  constexpr uint64_t kBudget = 200;
  using Evictions = std::vector<std::pair<int, std::string>>;
  LruCache<int, std::string> cache(kBudget);
  ReferenceLru<int, std::string> reference(kBudget);
  Evictions got;
  Evictions want;
  // Values are longer than the small-string buffer, so they live on the heap
  // where ASan sees a stale slot.
  auto value_of = [](int op) { return std::string(24, 'v') + std::to_string(op); };
  cache.set_evict_fn([&](const int& k, std::string&& v) {
    got.emplace_back(k, v);
    if (reentrant && k < kKeys && k % 5 == 0) {
      cache.Put(kKeys + k % 8, value_of(-k), 1 + static_cast<uint64_t>(k) % 40);
    }
  });
  reference.set_evict_fn([&](const int& k, std::string&& v) {
    want.emplace_back(k, v);
    if (reentrant && k < kKeys && k % 5 == 0) {
      reference.Put(kKeys + k % 8, value_of(-k), 1 + static_cast<uint64_t>(k) % 40);
    }
  });
  Rng rng(seed);
  for (int op = 0; op < 20000; ++op) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " op " << op);
    int key = static_cast<int>(rng.Below(kKeys));
    uint64_t pick = rng.Below(200);
    if (pick < 40) {
      const std::string* a = cache.Get(key);
      const std::string* b = reference.Get(key);
      ASSERT_EQ(a == nullptr, b == nullptr);
      if (a != nullptr) {
        ASSERT_EQ(*a, *b);
      }
    } else if (pick < 60) {
      const std::string* a = cache.Peek(key);
      const std::string* b = reference.Peek(key);
      ASSERT_EQ(a == nullptr, b == nullptr);
      if (a != nullptr) {
        ASSERT_EQ(*a, *b);
      }
    } else if (pick < 130) {
      if (pick >= 100) {
        // Replacing Put: aim at a resident key.
        std::vector<int> resident = reference.Keys();
        if (!resident.empty()) {
          key = resident[rng.Below(resident.size())];
        }
      }
      uint64_t cost = rng.Range(1, 40);
      cache.Put(key, value_of(op), cost);
      reference.Put(key, value_of(op), cost);
    } else if (pick < 160) {
      cache.Demote(key);
      reference.Demote(key);
    } else if (pick < 199) {
      ASSERT_EQ(cache.Remove(key), reference.Remove(key));
    } else {
      cache.Clear();
      reference.Clear();
    }
    ASSERT_EQ(got, want);
    ASSERT_EQ(cache.used(), reference.used());
    ASSERT_EQ(cache.entry_count(), reference.entry_count());
    got.clear();
    want.clear();
  }
  // Evicting everything checks the full recency order.
  cache.Clear();
  reference.Clear();
  EXPECT_EQ(got, want);
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.used(), 0u);
}

TEST(LruCacheTest, MatchesReferenceUnderRandomOps) {
  for (bool reentrant : {false, true}) {
    for (uint64_t seed = 1; seed <= 20; ++seed) {
      SCOPED_TRACE(reentrant ? "re-entrant eviction callback" : "plain eviction callback");
      RunLruAgainstReference(seed, reentrant);
      if (HasFatalFailure()) return;
    }
  }
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
