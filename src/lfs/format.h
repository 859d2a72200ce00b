// On-disk format constants and record types for the S4 log-structured layout.
//
// Disk geometry (all addresses are sector LBAs; sector = 512B):
//
//   sector 0          superblock (fixed location, rewritten on format only)
//   checkpoint A      two alternating checkpoint regions holding the object
//   checkpoint B      map + segment usage table; highest-seq valid one wins
//   segments...       the log: power-of-two sized segments
//
// Each segment is written front-to-back as a sequence of *chunks* (LFS
// partial segments). A chunk is one summary sector followed by its payload
// sectors, written with a single sequential disk write at sync time. Chunk
// summaries carry a monotonically increasing sequence number and a CRC, which
// is what crash recovery rolls forward over.
//
// Payload record kinds:
//   kData            one object data block: its live sectors only, 1..8
//                    (see DataRecordSectors)
//   kJournal         a 1-sector journal sector (packed metadata deltas,
//                    backward-chained per object; see src/journal/)
//   kInodeCheckpoint a full serialised inode (1..n sectors)
//   kIndirect        an indirect pointer block (8 sectors)
#ifndef S4_SRC_LFS_FORMAT_H_
#define S4_SRC_LFS_FORMAT_H_

#include <cstdint>
#include <vector>

#include "src/sim/block_device.h"
#include "src/util/bytes.h"
#include "src/util/check.h"
#include "src/util/status.h"
#include "src/util/time.h"

namespace s4 {

// Object data blocks are 4KB (8 sectors), like the paper's NFS transfer size.
constexpr uint32_t kBlockSize = 4096;
constexpr uint32_t kSectorsPerBlock = kBlockSize / kSectorSize;

// The length of a data record: block `index` of an object of `size` bytes is
// stored as its live sectors only, a whole block below the object's last
// block and the sectors up to the object's end in the last one. The drive
// rebuilds a block whenever a size change would alter its length, so every
// current block's record length follows from the object's size and is never
// stored. `index` must lie below the object's end.
inline uint32_t DataRecordSectors(uint64_t size, uint64_t index) {
  const uint64_t start = index * kBlockSize;
  if (size >= start + kBlockSize) {
    return kSectorsPerBlock;
  }
  S4_CHECK(size > start);
  return static_cast<uint32_t>((size - start + kSectorSize - 1) / kSectorSize);
}

// A disk address: sector LBA. 0 is the superblock, so 0 doubles as "null".
using DiskAddr = uint64_t;
constexpr DiskAddr kNullAddr = 0;

using SegmentId = uint32_t;
constexpr SegmentId kNullSegment = 0xFFFFFFFFu;

constexpr uint32_t kSuperblockMagic = 0x53344D47;  // "S4MG"
constexpr uint32_t kChunkMagic = 0x53344348;       // "S4CH"
constexpr uint32_t kCheckpointMagic = 0x53344350;  // "S4CP"

enum class RecordKind : uint8_t {
  kData = 1,
  kJournal = 2,
  kInodeCheckpoint = 3,
  kIndirect = 4,
};

// One record within a chunk summary: `sectors` payload sectors belonging to
// `object_id`. For kData/kIndirect records, `block_index` is the logical
// block number within the object (back-reference used by the compacting
// cleaner).
struct ChunkRecord {
  RecordKind kind;
  uint64_t object_id;
  uint64_t block_index;
  uint16_t sectors;
};

// Summary sector at the head of each chunk.
struct ChunkSummary {
  uint64_t seq = 0;          // global monotonically increasing chunk number
  SimTime write_time = 0;
  uint32_t payload_crc = 0;  // CRC32C over all payload sectors of the chunk
  std::vector<ChunkRecord> records;

  uint32_t PayloadSectors() const {
    uint32_t n = 0;
    for (const auto& r : records) {
      n += r.sectors;
    }
    return n;
  }

  // Serialises into exactly one sector (fails if too many records).
  Result<Bytes> Encode() const;
  static Result<ChunkSummary> Decode(ByteSpan sector);
};

// Superblock: geometry plus mount lifecycle state. Replicated at up to three
// deterministic locations (sector 0, mid-disk, last sector); every rewrite
// bumps `epoch` so mount can vote: the valid copy with the highest epoch
// wins, stale or torn copies are healed from the winner. A clean unmount
// stamps `clean`/`clean_seq`, letting the next mount skip the log scan.
struct Superblock {
  uint64_t total_sectors = 0;
  uint32_t segment_sectors = 0;    // sectors per segment
  uint32_t segment_count = 0;
  DiskAddr checkpoint_a = 0;       // first sector of checkpoint region A
  DiskAddr checkpoint_b = 0;
  uint32_t checkpoint_sectors = 0; // size of each checkpoint region
  DiskAddr first_segment = 0;      // first sector of segment 0
  // Audit commit marker sectors (A/B alternating by generation parity; see
  // src/journal/commit_marker.h). 0 on pre-chain volumes: chain verification
  // then treats the whole audit object as uncommitted tail.
  DiskAddr audit_marker_a = 0;
  DiskAddr audit_marker_b = 0;
  // Replica/lifecycle state. Single-copy legacy volumes decode these from
  // the sector's zero padding: sb_mid == 0 means "no replicas, no mid-disk
  // hole" and the segment area is linear.
  uint64_t epoch = 0;      // bumped on every superblock rewrite
  uint8_t clean = 0;       // 1 = volume was cleanly unmounted
  uint64_t clean_seq = 0;  // checkpoint seq vouched for by a clean unmount
  DiskAddr sb_mid = 0;     // mid-disk replica sector (0 = none)
  DiskAddr sb_tail = 0;    // tail replica sector (0 = none)
  // Segment index displaced by the one-sector mid-disk replica hole:
  // segments at or after this index start one sector later. Meaningful only
  // when sb_mid != 0.
  SegmentId mid_seg = 0;

  DiskAddr SegmentStart(SegmentId seg) const {
    DiskAddr addr = first_segment + static_cast<uint64_t>(seg) * segment_sectors;
    if (sb_mid != 0 && seg >= mid_seg) addr += 1;
    return addr;
  }
  SegmentId SegmentOf(DiskAddr addr) const {
    uint64_t rel = addr - first_segment;
    if (sb_mid != 0 && addr > sb_mid) rel -= 1;
    return static_cast<SegmentId>(rel / segment_sectors);
  }

  Bytes Encode() const;
  static Result<Superblock> Decode(ByteSpan sector);
};

}  // namespace s4

#endif  // S4_SRC_LFS_FORMAT_H_
