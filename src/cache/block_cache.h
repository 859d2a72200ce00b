// BlockCache: the drive's buffer cache for log records (data blocks, inode
// checkpoints, raw journal sectors), keyed by disk address.
//
// Read path order in the drive: segment-writer pending buffer -> this cache
// -> disk. The drive keeps it to what will be read again: appended data
// blocks and inode checkpoints are inserted as they are written, a journal
// sector is cached only decoded, in the drive's jsector cache (never here),
// and every record the usage table releases is dropped here at that moment.
// There is no read-ahead. History never evicts current data: a block that
// becomes history moves to the eviction end (Demote), where it stays
// readable until the space is needed. Each record is held and charged at its
// own length (a data record is only its block's live sectors), and a read
// names the length it expects.
#ifndef S4_SRC_CACHE_BLOCK_CACHE_H_
#define S4_SRC_CACHE_BLOCK_CACHE_H_

#include <string>

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
  // miss is attributed to `ctx` when non-null. A cached record of another
  // length is an internal error, not a miss: the caller computed the wrong
  // length, and a device read at it would return wrong bytes.
  Status Read(DiskAddr addr, uint64_t sectors, Bytes* out, OpContext* ctx = nullptr) {
    if (Bytes* hit = cache_.Get(addr); hit != nullptr) {
      if (hit->size() != sectors * kSectorSize) {
        return Status::Internal("record at sector " + std::to_string(addr) + " is cached at " +
                                std::to_string(hit->size() / kSectorSize) +
                                " sectors, read at " + std::to_string(sectors));
      }
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

  // Reads past the cache, neither consulting nor filling it: for records the
  // drive caches in another form (journal sectors, kept decoded). Counted in
  // cache.sectors_read like any other platter read.
  Status ReadUncached(DiskAddr addr, uint64_t sectors, Bytes* out, OpContext* ctx = nullptr) {
    S4_RETURN_IF_ERROR(device_->Read(addr, sectors, out, ctx));
    if (sectors_read_counter_ != nullptr) sectors_read_counter_->Add(sectors);
    return Status::Ok();
  }

  // Inserts freshly written data (no disk I/O), taking ownership of it. The
  // record is charged at its length, so `data` should hold no spare capacity.
  void Insert(DiskAddr addr, Bytes data) {
    const uint64_t cost = data.size();
    cache_.Put(addr, std::move(data), cost);
  }

  // Moves the record to the eviction end: it stays readable while there is
  // spare room but goes before any other record.
  void Demote(DiskAddr addr) { cache_.Demote(addr); }

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
