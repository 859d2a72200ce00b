// Negative fixture for S4L007: drive code outside the audit append/trim path
// (drive_ops.cc) rewriting the reserved audit object through the drive's one
// block path. A cleaner that could do this could shorten or rewrite the
// chronicle from inside the trust boundary.
#include "src/drive/s4_drive.h"

namespace s4 {

Status S4Drive::RewriteAuditTail(CachedObject* obj, ByteSpan frames) {
  // VIOLATION: only src/drive/drive_ops.cc may mutate the audit object.
  return WriteBlocks(JournalEntryType::kWrite, kAuditLogObjectId, obj, 0, frames,
                     frames.size());
}

}  // namespace s4
