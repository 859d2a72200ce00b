// Journal-based metadata (paper section 4.2.2).
//
// Every mutation of an object appends one compact JournalEntry instead of
// materialising a fresh inode + indirect-block chain (the conventional
// versioning approach of Figure 2). Entries record both the NEW and the OLD
// state touched by the mutation:
//
//   - walking entries FORWARD (oldest to newest) from a metadata checkpoint
//     reproduces the current state (crash-recovery roll-forward), and
//   - walking entries BACKWARD (newest to oldest) from the current state
//     undoes mutations one at a time, reconstructing the object exactly as it
//     was at any requested time T inside the detection window.
#ifndef S4_SRC_JOURNAL_ENTRY_H_
#define S4_SRC_JOURNAL_ENTRY_H_

#include <cstdint>
#include <vector>

#include "src/lfs/format.h"
#include "src/util/bytes.h"
#include "src/util/codec.h"
#include "src/util/status.h"
#include "src/util/time.h"

namespace s4 {

enum class JournalEntryType : uint8_t {
  kCreate = 1,
  kWrite = 2,
  kTruncate = 3,
  kDelete = 4,
  kSetAttr = 5,
  kSetAcl = 6,
  kCheckpoint = 7,
  // Compaction copied a current block: not a version (size and modify time
  // stay), and the old copy is freed rather than kept as history.
  kMove = 8,
};

// One logical block whose mapping changed: `old_addr` is where the previous
// version's data lives (kNullAddr for a hole / first write), `new_addr` where
// the new data was appended (kNullAddr when truncated away).
struct BlockDelta {
  uint64_t block_index = 0;
  DiskAddr old_addr = kNullAddr;
  DiskAddr new_addr = kNullAddr;
};

struct JournalEntry {
  JournalEntryType type = JournalEntryType::kWrite;
  SimTime time = 0;

  // kWrite / kTruncate: size transition and remapped blocks. kMove: one
  // block; the object's size is both sizes.
  uint64_t old_size = 0;
  uint64_t new_size = 0;
  std::vector<BlockDelta> blocks;

  // kSetAttr: opaque attribute blobs before/after.
  // kSetAcl: serialised ACL tables before/after.
  // kCreate: initial attr blob in `new_blob`.
  Bytes old_blob;
  Bytes new_blob;

  // kCheckpoint / kDelete: location of a full on-disk metadata checkpoint
  // (for kDelete, the object's final pre-deletion state).
  DiskAddr checkpoint_addr = kNullAddr;
  uint32_t checkpoint_sectors = 0;

  void EncodeTo(Encoder* enc) const;
  static Result<JournalEntry> DecodeFrom(Decoder* dec);

  // Encoded size in bytes (used to pack journal sectors).
  size_t EncodedSize() const;
};

}  // namespace s4

#endif  // S4_SRC_JOURNAL_ENTRY_H_
