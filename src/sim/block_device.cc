#include "src/sim/block_device.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/util/check.h"

namespace s4 {

// ---------------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------------

void FaultInjector::SchedulePowerCut(uint64_t nth_write, uint64_t persist_sectors,
                                     uint64_t corrupt_sectors) {
  S4_CHECK(nth_write > 0);
  writes_until_cut_ = nth_write;
  cut_persist_sectors_ = persist_sectors;
  cut_corrupt_sectors_ = corrupt_sectors;
}

void FaultInjector::ScheduleBitRot(uint64_t lba, uint32_t byte_offset, uint8_t mask) {
  S4_CHECK(byte_offset < kSectorSize);
  rot_.emplace(lba, RotMark{byte_offset, mask});
}

void FaultInjector::ScheduleReadError(uint64_t lba, uint32_t count) {
  read_errors_[lba] += count;
}

void FaultInjector::Reset() {
  powered_off_ = false;
  power_cut_fired_ = false;
  writes_until_cut_ = 0;
  cut_persist_sectors_ = 0;
  cut_corrupt_sectors_ = 0;
  rot_.clear();
  read_errors_.clear();
}

FaultInjector::WriteFault FaultInjector::OnWrite() {
  WriteFault fault;
  if (writes_until_cut_ == 0) {
    return fault;
  }
  if (--writes_until_cut_ == 0) {
    fault.power_cut = true;
    fault.persist_sectors = cut_persist_sectors_;
    fault.corrupt_sectors = cut_corrupt_sectors_;
    powered_off_ = true;
    power_cut_fired_ = true;
  }
  return fault;
}

bool FaultInjector::OnRead(uint64_t lba, uint64_t count) {
  auto it = read_errors_.lower_bound(lba);
  if (it == read_errors_.end() || it->first >= lba + count) {
    return false;
  }
  if (--it->second == 0) {
    read_errors_.erase(it);
  }
  return true;
}

std::vector<std::pair<uint64_t, FaultInjector::RotMark>> FaultInjector::TakeRot(
    uint64_t lba, uint64_t count) {
  std::vector<std::pair<uint64_t, RotMark>> hits;
  auto it = rot_.lower_bound(lba);
  while (it != rot_.end() && it->first < lba + count) {
    hits.emplace_back(it->first, it->second);
    it = rot_.erase(it);
  }
  return hits;
}

// ---------------------------------------------------------------------------
// BlockDevice
// ---------------------------------------------------------------------------

BlockDevice::BlockDevice(uint64_t sector_count, SimClock* clock, DiskModel model)
    : sector_count_(sector_count), clock_(clock), model_(model) {
  S4_CHECK(clock != nullptr);
  S4_CHECK(sector_count > 0);
  chunks_.resize((sector_count * kSectorSize + kChunkBytes - 1) / kChunkBytes);
}

uint8_t* BlockDevice::ChunkFor(uint64_t byte_offset, bool allocate) {
  uint64_t idx = byte_offset / kChunkBytes;
  if (!chunks_[idx]) {
    if (!allocate) {
      return nullptr;
    }
    chunks_[idx] = std::make_unique<uint8_t[]>(kChunkBytes);  // value-initialised: zeros
  }
  return chunks_[idx].get();
}

void BlockDevice::CopyOut(uint64_t byte_offset, uint64_t len, uint8_t* dst) {
  while (len > 0) {
    uint64_t within = byte_offset % kChunkBytes;
    uint64_t take = std::min<uint64_t>(len, kChunkBytes - within);
    const uint8_t* chunk = ChunkFor(byte_offset, /*allocate=*/false);
    if (chunk == nullptr) {
      std::memset(dst, 0, take);
    } else {
      std::memcpy(dst, chunk + within, take);
    }
    byte_offset += take;
    dst += take;
    len -= take;
  }
}

void BlockDevice::CopyIn(uint64_t byte_offset, ByteSpan src) {
  const uint8_t* p = src.data();
  uint64_t len = src.size();
  while (len > 0) {
    uint64_t within = byte_offset % kChunkBytes;
    uint64_t take = std::min<uint64_t>(len, kChunkBytes - within);
    uint8_t* chunk = ChunkFor(byte_offset, /*allocate=*/true);
    std::memcpy(chunk + within, p, take);
    byte_offset += take;
    p += take;
    len -= take;
  }
}

SimDuration BlockDevice::PositioningCost(uint64_t lba, SimTime start) {
  if (lba == head_lba_) {
    // Sequential: no seek. If the host paused, the platter rotated on and
    // the sector must come around again. `start` is when this command
    // actually reaches the arm (it may have queued behind other lanes), and
    // free_until_ is still when the previous command completed.
    bool idle = start - free_until_ > model_.sequential_idle_gap;
    return idle ? model_.average_rotation : 0;
  }
  ++stats_.seeks;
  // Distance-scaled seek: short hops cost track-to-track, the average-length
  // hop costs roughly average_seek. A sqrt profile approximates measured
  // drives well enough for relative comparisons.
  double frac = static_cast<double>(lba > head_lba_ ? lba - head_lba_ : head_lba_ - lba) /
                static_cast<double>(sector_count_);
  double seek = static_cast<double>(model_.track_to_track_seek) +
                static_cast<double>(model_.average_seek - model_.track_to_track_seek) *
                    std::sqrt(frac) * 1.6;
  return static_cast<SimDuration>(seek) + model_.average_rotation;
}

void BlockDevice::Command(bool write, uint64_t lba, uint64_t sectors, uint64_t counted,
                          OpContext* ctx) {
  // SimClock::Occupy's busy-until rule: the command starts when both the
  // issuing lane is ready and the arm is free. On the serial path
  // free_until_ never exceeds Now() and start is exactly the current time.
  SimTime start = std::max(clock_->Now(), free_until_);
  SimDuration cost =
      model_.command_overhead + PositioningCost(lba, start) + model_.TransferCost(sectors);
  free_until_ = start + cost;
  clock_->AdvanceTo(free_until_);
  head_lba_ = lba + sectors;
  stats_.busy_time += cost;
  ++(write ? stats_.writes : stats_.reads);
  (write ? stats_.sectors_written : stats_.sectors_read) += counted;
  if (ctx != nullptr) {
    ctx->disk_time += cost;
    (write ? ctx->disk_writes : ctx->disk_reads) += counted;
  }
}

Status BlockDevice::Read(uint64_t lba, uint64_t count, Bytes* out, OpContext* ctx) {
  ScopedSpan span(ctx, "disk.read");
  MutexLock lock(&mu_);
  if (lba + count > sector_count_ || lba + count < lba) {
    return Status::InvalidArgument("read beyond device");
  }
  if (injector_ != nullptr && injector_->powered_off()) {
    return Status::Unavailable("device is powered off");
  }
  Command(/*write=*/false, lba, count, count, ctx);
  if (injector_ != nullptr) {
    if (injector_->OnRead(lba, count)) {
      return Status::Unavailable("transient read error");
    }
    // Bit-rot is damage to the platter: apply it to the media, then read.
    for (const auto& [rot_lba, mark] : injector_->TakeRot(lba, count)) {
      uint8_t* chunk = ChunkFor(rot_lba * kSectorSize + mark.byte_offset, /*allocate=*/true);
      chunk[(rot_lba * kSectorSize + mark.byte_offset) % kChunkBytes] ^= mark.mask;
    }
  }
  out->resize(count * kSectorSize);
  CopyOut(lba * kSectorSize, count * kSectorSize, out->data());
  return Status::Ok();
}

Status BlockDevice::Write(uint64_t lba, ByteSpan data, OpContext* ctx) {
  ScopedSpan span(ctx, "disk.write");
  MutexLock lock(&mu_);
  if (data.size() % kSectorSize != 0) {
    return Status::InvalidArgument("write not sector aligned");
  }
  uint64_t count = data.size() / kSectorSize;
  if (lba + count > sector_count_ || lba + count < lba) {
    return Status::InvalidArgument("write beyond device");
  }
  if (injector_ != nullptr && injector_->powered_off()) {
    return Status::Unavailable("device is powered off");
  }
  if (injector_ != nullptr) {
    FaultInjector::WriteFault fault = injector_->OnWrite();
    if (fault.power_cut) {
      // Power failed mid-command. A prefix of the sectors landed intact, a
      // further run was in flight (torn: garbage on the media), the rest
      // never left the buffer. Charge timing for what reached the platter.
      uint64_t persist = std::min<uint64_t>(fault.persist_sectors, count);
      uint64_t corrupt = std::min<uint64_t>(fault.corrupt_sectors, count - persist);
      Command(/*write=*/true, lba, persist + corrupt, persist, ctx);
      if (persist > 0) {
        CopyIn(lba * kSectorSize, data.first(persist * kSectorSize));
      }
      if (corrupt > 0) {
        CorruptSectorsLocked(lba + persist, corrupt);
      }
      return Status::Unavailable("power lost during write");
    }
  }
  Command(/*write=*/true, lba, count, count, ctx);
  CopyIn(lba * kSectorSize, data);
  return Status::Ok();
}

void BlockDevice::CorruptSectors(uint64_t lba, uint64_t count) {
  MutexLock lock(&mu_);
  CorruptSectorsLocked(lba, count);
}

void BlockDevice::CorruptSectorsLocked(uint64_t lba, uint64_t count) {
  for (uint64_t i = 0; i < count && lba + i < sector_count_; ++i) {
    // Fill with a recognisable garbage pattern; checksums must catch this.
    Bytes garbage(kSectorSize, 0xDE);
    CopyIn((lba + i) * kSectorSize, garbage);
  }
}

}  // namespace s4
