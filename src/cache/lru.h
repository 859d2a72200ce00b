// Generic byte-budgeted LRU cache used for the drive's block, journal-sector
// and object caches, the file system's directory and attribute caches, and
// the FFS baseline's buffer cache.
//
// Layout: entries live in one slab vector, linked into recency order by
// index and reused through a free list; an open-addressing table (linear
// probing, backward-shift deletion) maps each key to its slot. Once the slab
// and the table have grown to the cache's high-water mark, a hit, an insert,
// a Demote, a Remove or an eviction allocates nothing.
#ifndef S4_SRC_CACHE_LRU_H_
#define S4_SRC_CACHE_LRU_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/util/check.h"

namespace s4 {

// Key -> Value cache with per-entry cost accounting and LRU eviction.
// EvictFn is called for each evicted entry (e.g. to checkpoint a dirty
// inode), after the entry is unlinked, so the callback may call back into
// the cache. Insertion of an entry larger than the budget is still accepted:
// the cache then holds just that entry.
template <typename Key, typename Value>
class LruCache {
 public:
  using EvictFn = std::function<void(const Key&, Value&&)>;

  explicit LruCache(uint64_t capacity_bytes) : capacity_(capacity_bytes), table_(kMinBuckets) {}

  void set_evict_fn(EvictFn fn) { evict_fn_ = std::move(fn); }
  uint64_t used() const { return used_; }
  size_t entry_count() const { return count_; }

  // Returns a pointer to the cached value and marks it most-recently-used,
  // or nullptr. The pointer is invalidated by any mutation of the cache:
  // an insert may grow the slab and move every entry, not only the evicted
  // one, so never hold it across a Put (or anything that may Put).
  Value* Get(const Key& key) {
    uint32_t slot = table_[Probe(key)].slot;
    if (slot == kNil) {
      return nullptr;
    }
    Unlink(slot);
    LinkFront(slot);
    return &slab_[slot].value;
  }

  // Peek without touching recency. Same pointer lifetime as Get.
  Value* Peek(const Key& key) {
    uint32_t slot = table_[Probe(key)].slot;
    return slot == kNil ? nullptr : &slab_[slot].value;
  }

  // Inserts or replaces, taking ownership of `value`. `cost` is the entry's
  // budget charge. Replacing an existing key hands the displaced value to the
  // eviction callback — it may be dirty state whose side effect (e.g.
  // checkpointing) must not be lost.
  void Put(const Key& key, Value value, uint64_t cost) {
    size_t bucket = Probe(key);
    if (uint32_t slot = table_[bucket].slot; slot != kNil) {
      Entry& e = slab_[slot];
      Value displaced = std::move(e.value);
      e.value = std::move(value);
      used_ += cost;
      used_ -= e.cost;
      e.cost = cost;
      Unlink(slot);
      LinkFront(slot);
      if (evict_fn_) {
        evict_fn_(key, std::move(displaced));
      }
      EvictToFit();
      return;
    }
    if ((count_ + 1) * 2 > table_.size()) {
      Grow();
      bucket = Probe(key);
    }
    uint32_t slot = free_;
    if (slot != kNil) {
      free_ = slab_[slot].next;
      Entry& e = slab_[slot];
      e.key = key;
      e.value = std::move(value);
      e.cost = cost;
    } else {
      S4_CHECK(slab_.size() < kNil);
      slot = static_cast<uint32_t>(slab_.size());
      slab_.push_back(Entry{key, std::move(value), cost, kNil, kNil});
    }
    table_[bucket] = Bucket{key, slot};
    LinkFront(slot);
    ++count_;
    used_ += cost;
    EvictToFit();
  }

  // Moves the entry to the eviction end, so it is the next one evicted. The
  // entry stays readable and keeps its cost; no callback runs. A missing key
  // is a no-op.
  void Demote(const Key& key) {
    uint32_t slot = table_[Probe(key)].slot;
    if (slot != kNil) {
      Unlink(slot);
      LinkBack(slot);
    }
  }

  // Removes without invoking the eviction callback. Returns true if present.
  bool Remove(const Key& key) {
    size_t bucket = Probe(key);
    uint32_t slot = table_[bucket].slot;
    if (slot == kNil) {
      return false;
    }
    used_ -= slab_[slot].cost;
    Release(bucket, slot);
    return true;
  }

  // Evicts everything through the callback (used at unmount/sync).
  void Clear() {
    while (tail_ != kNil) {
      EvictOne();
    }
  }

 private:
  static constexpr uint32_t kNil = UINT32_MAX;
  static constexpr int kMinShift = 60;
  static constexpr size_t kMinBuckets = size_t{1} << (64 - kMinShift);

  struct Entry {
    Key key;
    Value value;
    uint64_t cost;
    uint32_t prev;  // towards the most recently used end
    uint32_t next;  // towards the eviction end; the free list's link
  };
  struct Bucket {
    Key key{};
    uint32_t slot = kNil;  // kNil: empty
  };

  // Fibonacci hashing: the top bits of key * 2^64/phi, so aligned disk
  // addresses spread over the table.
  size_t Home(const Key& key) const {
    uint64_t h = static_cast<uint64_t>(std::hash<Key>{}(key)) * 0x9E3779B97F4A7C15ull;
    return static_cast<size_t>(h >> shift_);
  }

  // The bucket holding `key`, or the empty bucket where it would go.
  size_t Probe(const Key& key) const {
    const size_t mask = table_.size() - 1;
    size_t b = Home(key);
    while (table_[b].slot != kNil && !(table_[b].key == key)) {
      b = (b + 1) & mask;
    }
    return b;
  }

  void Grow() {
    std::vector<Bucket> old(table_.size() * 2);
    old.swap(table_);
    --shift_;
    for (const Bucket& b : old) {
      if (b.slot != kNil) {
        table_[Probe(b.key)] = b;
      }
    }
  }

  // Empties `bucket`, shifting back any later entry of its probe run that
  // may now sit closer to its home, so lookups never need tombstones.
  void EraseBucket(size_t bucket) {
    const size_t mask = table_.size() - 1;
    size_t hole = bucket;
    for (size_t b = (hole + 1) & mask; table_[b].slot != kNil; b = (b + 1) & mask) {
      // Move b into the hole unless its home lies cyclically in (hole, b].
      size_t home = Home(table_[b].key);
      if (((b - home) & mask) >= ((b - hole) & mask)) {
        table_[hole] = table_[b];
        hole = b;
      }
    }
    table_[hole].slot = kNil;
  }

  void LinkFront(uint32_t slot) {
    Entry& e = slab_[slot];
    e.prev = kNil;
    e.next = head_;
    if (head_ != kNil) {
      slab_[head_].prev = slot;
    } else {
      tail_ = slot;
    }
    head_ = slot;
  }

  void LinkBack(uint32_t slot) {
    Entry& e = slab_[slot];
    e.next = kNil;
    e.prev = tail_;
    if (tail_ != kNil) {
      slab_[tail_].next = slot;
    } else {
      head_ = slot;
    }
    tail_ = slot;
  }

  void Unlink(uint32_t slot) {
    Entry& e = slab_[slot];
    (e.prev != kNil ? slab_[e.prev].next : head_) = e.next;
    (e.next != kNil ? slab_[e.next].prev : tail_) = e.prev;
  }

  // Unlinks the entry in `slot` (found at `bucket`), destroys its value and
  // puts the slot on the free list.
  void Release(size_t bucket, uint32_t slot) {
    Unlink(slot);
    EraseBucket(bucket);
    // Moving out leaves the slot's value empty; `released` frees what it
    // held (a buffer, an object reference) when this returns.
    [[maybe_unused]] Value released = std::move(slab_[slot].value);
    slab_[slot].next = free_;
    free_ = slot;
    --count_;
  }

  void EvictOne() {
    S4_CHECK(tail_ != kNil);
    const uint32_t slot = tail_;
    Key key = slab_[slot].key;
    Value value = std::move(slab_[slot].value);
    used_ -= slab_[slot].cost;
    Release(Probe(key), slot);
    if (evict_fn_) {
      evict_fn_(key, std::move(value));
    }
  }

  void EvictToFit() {
    // Keep at least the newest entry even if it alone exceeds the budget.
    while (used_ > capacity_ && count_ > 1) {
      EvictOne();
    }
  }

  EvictFn evict_fn_;
  uint64_t capacity_;
  uint64_t used_ = 0;
  size_t count_ = 0;
  std::vector<Entry> slab_;
  std::vector<Bucket> table_;
  int shift_ = kMinShift;  // 64 - log2(table_.size())
  uint32_t head_ = kNil;  // most recently used
  uint32_t tail_ = kNil;  // eviction end
  uint32_t free_ = kNil;
};

}  // namespace s4

#endif  // S4_SRC_CACHE_LRU_H_
