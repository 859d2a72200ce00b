// Generic byte-budgeted LRU cache used for both the block buffer cache and
// the object (inode) cache.
#ifndef S4_SRC_CACHE_LRU_H_
#define S4_SRC_CACHE_LRU_H_

#include <cstdint>
#include <functional>
#include <list>
#include <unordered_map>
#include <utility>

#include "src/util/check.h"

namespace s4 {

// Key -> Value cache with per-entry cost accounting and LRU eviction.
// EvictFn is called for each evicted entry (e.g. to checkpoint a dirty
// inode). Insertion of an entry larger than the budget is still accepted:
// the cache then holds just that entry.
template <typename Key, typename Value>
class LruCache {
 public:
  using EvictFn = std::function<void(const Key&, Value&&)>;

  explicit LruCache(uint64_t capacity_bytes) : capacity_(capacity_bytes) {}

  void set_evict_fn(EvictFn fn) { evict_fn_ = std::move(fn); }
  uint64_t capacity() const { return capacity_; }
  uint64_t used() const { return used_; }
  size_t entry_count() const { return index_.size(); }

  // Returns a pointer to the cached value and marks it most-recently-used,
  // or nullptr. The pointer is invalidated by any mutation of the cache.
  Value* Get(const Key& key) {
    auto it = index_.find(key);
    if (it == index_.end()) {
      return nullptr;
    }
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->value;
  }

  // Peek without touching recency.
  Value* Peek(const Key& key) {
    auto it = index_.find(key);
    return it == index_.end() ? nullptr : &it->second->value;
  }

  // Inserts or replaces. `cost` is the entry's budget charge. Replacing an
  // existing key hands the displaced value to the eviction callback — it may
  // be dirty state whose side effect (e.g. checkpointing) must not be lost.
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

  // Moves the entry to the eviction end, so it is the next one evicted. The
  // entry stays readable and keeps its cost; no callback runs. A missing key
  // is a no-op.
  void Demote(const Key& key) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      order_.splice(order_.end(), order_, it->second);
    }
  }

  // Removes without invoking the eviction callback. Returns true if present.
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

  // Evicts everything through the callback (used at unmount/sync).
  void Clear() {
    while (!order_.empty()) {
      EvictOne();
    }
  }

  // Visits entries from most to least recently used. Visitor may not mutate
  // the cache.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& e : order_) {
      fn(e.key, e.value);
    }
  }

 private:
  struct Entry {
    Key key;
    Value value;
    uint64_t cost;
  };

  void EvictOne() {
    S4_CHECK(!order_.empty());
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
    // Keep at least the newest entry even if it alone exceeds the budget.
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

}  // namespace s4

#endif  // S4_SRC_CACHE_LRU_H_
