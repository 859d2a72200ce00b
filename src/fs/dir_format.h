// Directory object format, shared by the S4/NFS translator and the FFS-like
// baseline server.
//
// A directory is a byte stream of add/remove records. Mutations append one
// small record (a single block read-modify-write on the backing store) —
// matching the cost profile of a real block-based directory update — and a
// compaction rewrite happens only when tombstones dominate.
//
// A record is `op | type | name | varint handle`. The handle comes last so
// a drive can complete a record without knowing this format: S4FileSystem
// sends the record without its handle as an append linked to the Create or
// Delete before it, and the drive appends that op's value (the new object
// id, or 0 after a Delete) as the varint.
#ifndef S4_SRC_FS_DIR_FORMAT_H_
#define S4_SRC_FS_DIR_FORMAT_H_

#include <map>
#include <string>

#include "src/fs/file_system.h"
#include "src/util/codec.h"

namespace s4 {

struct DirRecord {
  enum class Op : uint8_t { kAdd = 1, kRemove = 2 };
  Op op = Op::kAdd;
  FileType type = FileType::kFile;
  FileHandle handle = 0;
  std::string name;
};

// Encodes a single record (appended to the directory stream).
Bytes EncodeDirRecord(const DirRecord& record);
// The record without its trailing handle, for a linked append to complete.
Bytes EncodeDirRecordWithoutHandle(const DirRecord& record);

// Parsed directory state plus bookkeeping for compaction decisions.
struct ParsedDir {
  std::map<std::string, DirEntry> entries;
  uint64_t record_count = 0;  // total records in the stream

  bool NeedsCompaction() const { return NeedsCompaction(record_count, entries.size()); }
  // The rule, for a stream of `records` records holding `live` entries:
  // rewrite once tombstones dominate.
  static bool NeedsCompaction(uint64_t records, uint64_t live) {
    return records > 16 && records > 2 * live + 8;
  }
};

// Replays a directory stream. Tolerates a truncated tail record.
Result<ParsedDir> ParseDirStream(ByteSpan stream);

// Rewrites the directory as a minimal stream of adds.
Bytes CompactDirStream(const ParsedDir& dir);

}  // namespace s4

#endif  // S4_SRC_FS_DIR_FORMAT_H_
