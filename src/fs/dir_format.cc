#include "src/fs/dir_format.h"

namespace s4 {

Bytes EncodeDirRecordWithoutHandle(const DirRecord& record) {
  Encoder enc(16 + record.name.size());
  enc.PutU8(static_cast<uint8_t>(record.op));
  enc.PutU8(static_cast<uint8_t>(record.type));
  enc.PutString(record.name);
  return enc.Take();
}

Bytes EncodeDirRecord(const DirRecord& record) {
  Bytes out = EncodeDirRecordWithoutHandle(record);
  AppendVarint(record.handle, &out);
  return out;
}

Result<ParsedDir> ParseDirStream(ByteSpan stream) {
  ParsedDir dir;
  Decoder dec(stream);
  while (!dec.done()) {
    auto op_raw = dec.U8();
    if (!op_raw.ok()) {
      break;
    }
    if (*op_raw != 1 && *op_raw != 2) {
      return Status::DataCorruption("bad directory record op");
    }
    auto type_raw = dec.U8();
    auto name = type_raw.ok() ? dec.String() : Result<std::string>(type_raw.status());
    auto handle = name.ok() ? dec.Varint() : Result<uint64_t>(name.status());
    if (!handle.ok()) {
      break;  // truncated tail record
    }
    ++dir.record_count;
    if (*op_raw == 1) {
      DirEntry e;
      e.name = *name;
      e.handle = *handle;
      e.type = static_cast<FileType>(*type_raw);
      dir.entries[*name] = e;
    } else {
      dir.entries.erase(*name);
    }
  }
  return dir;
}

Bytes CompactDirStream(const ParsedDir& dir) {
  Encoder enc;
  for (const auto& [name, e] : dir.entries) {
    DirRecord rec;
    rec.op = DirRecord::Op::kAdd;
    rec.type = e.type;
    rec.handle = e.handle;
    rec.name = name;
    Bytes b = EncodeDirRecord(rec);
    enc.PutBytes(b);
  }
  return enc.Take();
}

}  // namespace s4
