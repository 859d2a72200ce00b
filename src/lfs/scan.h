// Log scanning for crash recovery: iterate the chunks of a segment in write
// order, yielding each record's kind, back-reference, and disk address.
#ifndef S4_SRC_LFS_SCAN_H_
#define S4_SRC_LFS_SCAN_H_

#include <functional>
#include <vector>

#include "src/lfs/format.h"
#include "src/sim/block_device.h"

namespace s4 {

struct ScannedRecord {
  RecordKind kind;
  uint64_t object_id;
  uint64_t block_index;
  DiskAddr addr;
  uint16_t sectors;
  // Journal records only: the record's on-platter bytes, captured from the
  // segment read the scan already paid for. Replay decodes these in memory
  // instead of re-seeking to every journal sector it just passed over.
  Bytes raw;
};

struct ScannedChunk {
  uint64_t seq;
  SimTime write_time;
  SegmentId segment;
  std::vector<ScannedRecord> records;
  // False when the payload fails the summary's CRC. Only a bounded scan
  // yields such a chunk; an unbounded one stops before it.
  bool payload_intact = true;
};

struct SegmentScanOptions {
  // Sectors into the segment to start at. Recovery resumes the checkpointed
  // active segment from its checkpointed fill instead of re-reading chunks
  // the checkpoint already covers.
  uint32_t start_offset = 0;
  // Stop at the first chunk whose seq is below this. A valid-looking chunk
  // older than the scan's floor is leftover platter data from the segment's
  // previous life, not log tail — everything after it is equally stale.
  uint64_t min_seq = 0;
  // Sectors into the segment to stop at; 0 = unbounded. A bounded scan covers
  // log the caller knows was written whole, such as a sealed segment up to
  // its fill: it reads the range with one command and yields a chunk whose
  // payload fails its CRC (flagged) instead of stopping there, so one rotten
  // record does not hide the chunks behind it.
  uint32_t end_offset = 0;
  // Request the scan's disk reads are charged to (may be null).
  OpContext* ctx = nullptr;
};

// Reads the chunks of `segment` front to back. Stops at the first sector that
// does not decode as a valid chunk summary (the unwritten tail, or a torn
// write) and, unless bounded, at the first chunk whose payload fails its CRC.
// Returns the chunks found.
Result<std::vector<ScannedChunk>> ScanSegment(BlockDevice* device, const Superblock& sb,
                                              SegmentId segment,
                                              const SegmentScanOptions& opts = {});

}  // namespace s4

#endif  // S4_SRC_LFS_SCAN_H_
