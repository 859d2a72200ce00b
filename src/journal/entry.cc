#include "src/journal/entry.h"

namespace s4 {

void JournalEntry::EncodeTo(Encoder* enc) const {
  enc->PutU8(static_cast<uint8_t>(type));
  enc->PutI64(time);
  switch (type) {
    case JournalEntryType::kWrite:
    case JournalEntryType::kTruncate:
      enc->PutVarint(old_size);
      enc->PutVarint(new_size);
      enc->PutVarint(blocks.size());
      for (const auto& b : blocks) {
        enc->PutVarint(b.block_index);
        enc->PutVarint(b.old_addr);
        enc->PutVarint(b.new_addr);
      }
      break;
    case JournalEntryType::kCreate:  // old_blob = initial ACL, new_blob = attrs
    case JournalEntryType::kSetAttr:
    case JournalEntryType::kSetAcl:
      enc->PutLengthPrefixed(old_blob);
      enc->PutLengthPrefixed(new_blob);
      break;
    case JournalEntryType::kDelete:
    case JournalEntryType::kCheckpoint:
      enc->PutVarint(checkpoint_addr);
      enc->PutVarint(checkpoint_sectors);
      break;
    case JournalEntryType::kMove:
      enc->PutVarint(new_size);
      enc->PutVarint(blocks.front().block_index);
      enc->PutVarint(blocks.front().old_addr);
      enc->PutVarint(blocks.front().new_addr);
      break;
  }
}

Result<JournalEntry> JournalEntry::DecodeFrom(Decoder* dec) {
  JournalEntry e;
  S4_ASSIGN_OR_RETURN(uint8_t type, dec->U8());
  if (type < 1 || type > 8) {
    return Status::DataCorruption("bad journal entry type");
  }
  e.type = static_cast<JournalEntryType>(type);
  S4_ASSIGN_OR_RETURN(e.time, dec->I64());
  switch (e.type) {
    case JournalEntryType::kWrite:
    case JournalEntryType::kTruncate: {
      S4_ASSIGN_OR_RETURN(e.old_size, dec->Varint());
      S4_ASSIGN_OR_RETURN(e.new_size, dec->Varint());
      S4_ASSIGN_OR_RETURN(uint64_t n, dec->Varint());
      e.blocks.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        BlockDelta b;
        S4_ASSIGN_OR_RETURN(b.block_index, dec->Varint());
        S4_ASSIGN_OR_RETURN(b.old_addr, dec->Varint());
        S4_ASSIGN_OR_RETURN(b.new_addr, dec->Varint());
        e.blocks.push_back(b);
      }
      break;
    }
    case JournalEntryType::kCreate:
    case JournalEntryType::kSetAttr:
    case JournalEntryType::kSetAcl: {
      S4_ASSIGN_OR_RETURN(e.old_blob, dec->LengthPrefixed());
      S4_ASSIGN_OR_RETURN(e.new_blob, dec->LengthPrefixed());
      break;
    }
    case JournalEntryType::kDelete:
    case JournalEntryType::kCheckpoint: {
      S4_ASSIGN_OR_RETURN(e.checkpoint_addr, dec->Varint());
      S4_ASSIGN_OR_RETURN(uint64_t n, dec->Varint());
      e.checkpoint_sectors = static_cast<uint32_t>(n);
      break;
    }
    case JournalEntryType::kMove: {
      S4_ASSIGN_OR_RETURN(e.new_size, dec->Varint());
      e.old_size = e.new_size;
      BlockDelta& b = e.blocks.emplace_back();
      S4_ASSIGN_OR_RETURN(b.block_index, dec->Varint());
      S4_ASSIGN_OR_RETURN(b.old_addr, dec->Varint());
      S4_ASSIGN_OR_RETURN(b.new_addr, dec->Varint());
      break;
    }
  }
  return e;
}

size_t JournalEntry::EncodedSize() const {
  Encoder enc;
  EncodeTo(&enc);
  return enc.size();
}

}  // namespace s4
