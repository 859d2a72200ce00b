// SegmentWriter: the append-only write path of the log.
//
// Records (data blocks, journal sectors, inode checkpoints, indirect blocks)
// are appended to an in-memory chunk buffer and assigned their final disk
// addresses immediately. Flush() lays the chunk down with one sequential disk
// write: [summary sector][payload sectors...]. This is what gives S4 its
// LFS-like performance: many small logical updates become one large physical
// write, and old versions never have to be moved first.
#ifndef S4_SRC_LFS_SEGMENT_WRITER_H_
#define S4_SRC_LFS_SEGMENT_WRITER_H_

#include <unordered_map>

#include "src/lfs/format.h"
#include "src/lfs/usage_table.h"
#include "src/sim/block_device.h"
#include "src/sim/sim_clock.h"

namespace s4 {

struct SegmentWriterStats {
  uint64_t records_appended = 0;
  uint64_t chunks_flushed = 0;
  uint64_t segments_sealed = 0;
  uint64_t sectors_flushed = 0;
  // Payload bytes that joined an already-open chunk (group commit riding an
  // existing pending disk write) vs total bytes laid down by Flush. The
  // ratio is the group-commit win: high coalesced/flushed means many logical
  // appends per physical write.
  uint64_t bytes_coalesced = 0;
  uint64_t bytes_flushed = 0;
};

class SegmentWriter {
 public:
  // All pointers are borrowed and must outlive the writer.
  SegmentWriter(BlockDevice* device, const Superblock* sb, SegmentUsageTable* sut,
                SimClock* clock, uint64_t next_seq);

  // Appends a record; returns its assigned disk address. `payload` must be a
  // whole number of sectors. Fails with kOutOfSpace when no free segment is
  // available for a needed rollover. A non-null `ctx` attributes any disk
  // writes this append triggers (chunk/segment overflow) to that request.
  Result<DiskAddr> Append(RecordKind kind, uint64_t object_id, uint64_t block_index,
                          ByteSpan payload, OpContext* ctx = nullptr);

  // Writes any buffered chunk to disk. Idempotent when empty.
  Status Flush(OpContext* ctx = nullptr);

  // Serves reads of records that are still only in the chunk buffer.
  // Returns true and fills `out` if `addr` is buffered, false if it is not.
  // A buffered record of another length is an internal error: the platter
  // at `addr` is not written yet, so no other source holds the right bytes.
  Result<bool> ReadPending(DiskAddr addr, uint64_t sectors, Bytes* out) const;

  // Crash recovery: resume appending into `segment` at `fill_sectors`. If the
  // remaining space is too small to hold a summary plus one sector, the
  // segment is sealed instead. The SUT must already mark it kActive.
  void Resume(SegmentId segment, uint32_t fill_sectors);

  uint64_t next_seq() const { return next_seq_; }
  SegmentId active_segment() const { return active_segment_; }
  // Sectors of the active segment already on disk (its flushed fill).
  uint32_t flushed_fill() const { return fill_sectors_; }

  // Sectors left in the active segment (0 if none allocated yet).
  uint32_t ActiveSegmentRemaining() const;

  const SegmentWriterStats& stats() const { return stats_; }

 private:
  // Space currently needed in the segment for the buffered chunk, including
  // its summary sector.
  uint32_t PendingSectors() const;
  Status OpenSegmentIfNeeded();
  Status RolloverSegment(OpContext* ctx);

  BlockDevice* device_;
  const Superblock* sb_;
  SegmentUsageTable* sut_;
  SimClock* clock_;

  SegmentId active_segment_ = kNullSegment;
  uint32_t fill_sectors_ = 0;  // sectors of the active segment already on disk
  uint64_t next_seq_;

  // Buffered chunk, laid out exactly as it will hit the disk: the first
  // sector is reserved for the summary (encoded in place at Flush) and
  // payloads land at their final offsets as they are appended, so Flush
  // never rebuilds the buffer. Empty when no records are pending.
  ChunkSummary pending_summary_;
  Bytes chunk_;
  size_t pending_summary_bytes_ = 0;  // encoded size estimate of records
  // addr -> payload-relative {off,len} (off excludes the summary sector).
  std::unordered_map<DiskAddr, std::pair<size_t, size_t>> pending_index_;

  SegmentWriterStats stats_;
};

}  // namespace s4

#endif  // S4_SRC_LFS_SEGMENT_WRITER_H_
