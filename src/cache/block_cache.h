// BlockCache: the drive's buffer cache for log records (data blocks, inode
// checkpoints, raw journal sectors), keyed by disk address.
//
// Read path order in the drive: segment-writer pending buffer -> this cache
// -> disk. The drive keeps it to what will be read again: appended data
// blocks and inode checkpoints are inserted as they are written, a journal
// sector is cached decoded in the drive's jsector cache (its raw address is
// invalidated here at append; raw copies arrive only as the neighbours of a
// clustered read), and every record the usage table releases is dropped
// here at that moment. There is no read-ahead.
#ifndef S4_SRC_CACHE_BLOCK_CACHE_H_
#define S4_SRC_CACHE_BLOCK_CACHE_H_

#include <algorithm>

#include "src/cache/lru.h"
#include "src/lfs/format.h"
#include "src/obs/metrics.h"
#include "src/obs/op_context.h"
#include "src/sim/block_device.h"

namespace s4 {

class BlockCache {
 public:
  // When `registry` is non-null, the cache publishes cache.block.hits,
  // cache.block.misses and cache.sectors_read counters into it.
  BlockCache(BlockDevice* device, uint64_t capacity_bytes, MetricRegistry* registry = nullptr)
      : device_(device), cache_(capacity_bytes) {
    if (registry != nullptr) {
      hits_counter_ = registry->GetCounter("cache.block.hits");
      misses_counter_ = registry->GetCounter("cache.block.misses");
      sectors_read_counter_ = registry->GetCounter("cache.sectors_read");
    }
  }

  // Reads `sectors` sectors at `addr`, from cache if possible. Disk time on a
  // miss is attributed to `ctx` when non-null.
  Status Read(DiskAddr addr, uint64_t sectors, Bytes* out, OpContext* ctx = nullptr) {
    if (Bytes* hit = cache_.Get(addr); hit != nullptr && hit->size() == sectors * kSectorSize) {
      *out = *hit;
      if (hits_counter_ != nullptr) hits_counter_->Inc();
      return Status::Ok();
    }
    if (misses_counter_ != nullptr) misses_counter_->Inc();
    S4_RETURN_IF_ERROR(device_->Read(addr, sectors, out, ctx));
    if (sectors_read_counter_ != nullptr) sectors_read_counter_->Add(sectors);
    cache_.Put(addr, *out, out->size());
    return Status::Ok();
  }

  // Single-sector read with backward clustering: a chain's journal sectors
  // sit a handful of records apart in the log and are walked newest-to-
  // oldest, so on a miss the 4KB *ending* at `addr`, but starting no lower
  // than `floor`, is fetched with one disk command and cached
  // sector-by-sector. This is what keeps object-driven cleaning from paying
  // one full positioning delay per chain link (a real cleaner streams whole
  // segments for the same reason).
  Status ReadSectorClustered(DiskAddr addr, DiskAddr floor, Bytes* out,
                             OpContext* ctx = nullptr) {
    if (Bytes* hit = cache_.Get(addr); hit != nullptr && hit->size() == kSectorSize) {
      *out = *hit;
      if (hits_counter_ != nullptr) hits_counter_->Inc();
      return Status::Ok();
    }
    if (misses_counter_ != nullptr) misses_counter_->Inc();
    DiskAddr start = std::max(addr >= 7 ? addr - 7 : 0, std::min(floor, addr));
    Bytes run;
    S4_RETURN_IF_ERROR(device_->Read(start, addr - start + 1, &run, ctx));
    if (sectors_read_counter_ != nullptr) sectors_read_counter_->Add(addr - start + 1);
    for (DiskAddr s = start; s <= addr; ++s) {
      Bytes slice(run.begin() + (s - start) * kSectorSize,
                  run.begin() + (s - start + 1) * kSectorSize);
      if (s == addr) {
        *out = slice;
      }
      // Fill only: an existing entry may hold content newer than the
      // platter (data appended but not yet flushed).
      if (cache_.Peek(s) == nullptr) {
        cache_.Put(s, std::move(slice), kSectorSize);
      }
    }
    return Status::Ok();
  }

  // Inserts freshly written data (no disk I/O).
  void Insert(DiskAddr addr, ByteSpan data) {
    cache_.Put(addr, Bytes(data.begin(), data.end()), data.size());
  }

  void Invalidate(DiskAddr addr) { cache_.Remove(addr); }

 private:
  BlockDevice* device_;
  LruCache<DiskAddr, Bytes> cache_;
  Counter* hits_counter_ = nullptr;
  Counter* misses_counter_ = nullptr;
  Counter* sectors_read_counter_ = nullptr;
};

}  // namespace s4

#endif  // S4_SRC_CACHE_BLOCK_CACHE_H_
