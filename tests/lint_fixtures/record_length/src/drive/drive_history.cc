// Negative fixture for S4L011: drive code reading a data record at a whole
// block. The record at `addr` holds only its block's live sectors, so a read
// at eight sectors returns wrong bytes, or an error from the cache.
#include "src/drive/s4_drive.h"

namespace s4 {

Result<Bytes> S4Drive::ReadWholeBlock(DiskAddr addr) {
  // VIOLATION: the length must come from DataRecordSectors(size, index).
  return ReadRecord(addr, kSectorsPerBlock);
}

}  // namespace s4
