// BlockCache: the drive's buffer cache for log records (data blocks, journal
// sectors, inode checkpoints), keyed by disk address.
//
// Read path order in the drive: segment-writer pending buffer -> this cache
// -> disk. All freshly appended records are inserted here so immediately
// re-read data never touches the platters.
#ifndef S4_SRC_CACHE_BLOCK_CACHE_H_
#define S4_SRC_CACHE_BLOCK_CACHE_H_

#include <algorithm>
#include <functional>

#include "src/cache/lru.h"
#include "src/lfs/format.h"
#include "src/obs/metrics.h"
#include "src/obs/op_context.h"
#include "src/sim/block_device.h"

namespace s4 {

class BlockCache {
 public:
  // Exclusive upper bound for a prefetch starting at the given address;
  // returning the address itself disables prefetch there. The drive uses
  // this to confine read-ahead to sealed segments: regions that can still
  // receive appends must never be cached from a stale platter image.
  using PrefetchLimitFn = std::function<DiskAddr(DiskAddr)>;

  // When `registry` is non-null, the cache publishes cache.block.hits,
  // cache.block.misses and cache.sectors_read counters into it.
  BlockCache(BlockDevice* device, uint64_t capacity_bytes, MetricRegistry* registry = nullptr)
      : device_(device), cache_(capacity_bytes) {
    if (registry != nullptr) {
      hits_counter_ = registry->GetCounter("cache.block.hits");
      misses_counter_ = registry->GetCounter("cache.block.misses");
      sectors_read_counter_ = registry->GetCounter("cache.sectors_read");
      readahead_runs_counter_ = registry->GetCounter("cache.readahead_runs");
      readahead_sectors_counter_ = registry->GetCounter("cache.readahead_sectors");
    }
  }

  // Enables sequential read-ahead: when a miss continues a sequential run,
  // up to `readahead_sectors` are fetched with one disk command and the
  // extra slices are cached for the reads that follow (history walks and
  // ReadVersion streams walk a version's blocks in address order).
  void SetPrefetchPolicy(uint64_t readahead_sectors, PrefetchLimitFn limit_fn) {
    readahead_sectors_ = readahead_sectors;
    prefetch_limit_ = std::move(limit_fn);
  }

  // Reads `sectors` sectors at `addr`, from cache if possible. Disk time on a
  // miss is attributed to `ctx` when non-null.
  Status Read(DiskAddr addr, uint64_t sectors, Bytes* out, OpContext* ctx = nullptr) {
    if (Bytes* hit = cache_.Get(addr); hit != nullptr && hit->size() == sectors * kSectorSize) {
      *out = *hit;
      if (hits_counter_ != nullptr) hits_counter_->Inc();
      NoteAccess(addr, sectors);
      return Status::Ok();
    }
    if (misses_counter_ != nullptr) misses_counter_->Inc();
    uint64_t run = PrefetchRun(addr, sectors);
    if (run > sectors) {
      Bytes buf;
      S4_RETURN_IF_ERROR(device_->Read(addr, run, &buf, ctx));
      if (sectors_read_counter_ != nullptr) sectors_read_counter_->Add(run);
      if (readahead_runs_counter_ != nullptr) readahead_runs_counter_->Inc();
      if (readahead_sectors_counter_ != nullptr) {
        readahead_sectors_counter_->Add(run - sectors);
      }
      out->assign(buf.begin(), buf.begin() + sectors * kSectorSize);
      cache_.Put(addr, *out, out->size());
      // Cache the prefetched slices at the stride of the current request
      // (a sequential stream reads same-sized records). Fill only: an
      // existing entry may hold content newer than the platter.
      for (uint64_t off = sectors; off + sectors <= run; off += sectors) {
        DiskAddr slice_addr = addr + off;
        if (cache_.Peek(slice_addr) != nullptr) {
          continue;
        }
        Bytes slice(buf.begin() + off * kSectorSize,
                    buf.begin() + (off + sectors) * kSectorSize);
        cache_.Put(slice_addr, std::move(slice), sectors * kSectorSize);
      }
      NoteAccess(addr, sectors);
      return Status::Ok();
    }
    S4_RETURN_IF_ERROR(device_->Read(addr, sectors, out, ctx));
    if (sectors_read_counter_ != nullptr) sectors_read_counter_->Add(sectors);
    cache_.Put(addr, *out, out->size());
    NoteAccess(addr, sectors);
    return Status::Ok();
  }

  // Single-sector read with backward clustering: a chain's journal sectors
  // sit a handful of records apart in the log and are walked newest-to-
  // oldest, so on a miss the 32KB *ending* at `addr` is fetched with one
  // disk command and cached sector-by-sector. This is what keeps object-
  // driven cleaning from paying one full positioning delay per chain link
  // (a real cleaner streams whole segments for the same reason).
  Status ReadSectorClustered(DiskAddr addr, Bytes* out, OpContext* ctx = nullptr) {
    if (Bytes* hit = cache_.Get(addr); hit != nullptr && hit->size() == kSectorSize) {
      *out = *hit;
      if (hits_counter_ != nullptr) hits_counter_->Inc();
      return Status::Ok();
    }
    if (misses_counter_ != nullptr) misses_counter_->Inc();
    DiskAddr start = addr >= 7 ? addr - 7 : 0;
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
  void DropAll() { cache_.Clear(); }

  uint64_t hits() const { return cache_.hits(); }
  uint64_t misses() const { return cache_.misses(); }

 private:
  // Sequential-run detector: one prior adjacent access arms prefetch.
  void NoteAccess(DiskAddr addr, uint64_t sectors) { next_expected_ = addr + sectors; }

  // Sectors to fetch for a miss of `sectors` at `addr`: more than asked only
  // when the access continues a sequential run and the policy allows reading
  // ahead (the run is clamped to the policy limit, the device end, and a
  // whole multiple of the request size so slices stay request-aligned).
  uint64_t PrefetchRun(DiskAddr addr, uint64_t sectors) const {
    if (sectors == 0 || readahead_sectors_ <= sectors || !prefetch_limit_ ||
        next_expected_ == 0 || addr != next_expected_) {
      return sectors;
    }
    uint64_t limit = prefetch_limit_(addr);
    limit = std::min<uint64_t>(limit, device_->sector_count());
    if (limit <= addr + sectors) {
      return sectors;
    }
    uint64_t run = std::min<uint64_t>(readahead_sectors_, limit - addr);
    run -= run % sectors;
    return std::max<uint64_t>(run, sectors);
  }

  BlockDevice* device_;
  LruCache<DiskAddr, Bytes> cache_;
  Counter* hits_counter_ = nullptr;
  Counter* misses_counter_ = nullptr;
  Counter* sectors_read_counter_ = nullptr;
  Counter* readahead_runs_counter_ = nullptr;
  Counter* readahead_sectors_counter_ = nullptr;
  uint64_t readahead_sectors_ = 0;
  PrefetchLimitFn prefetch_limit_;
  DiskAddr next_expected_ = 0;
};

}  // namespace s4

#endif  // S4_SRC_CACHE_BLOCK_CACHE_H_
