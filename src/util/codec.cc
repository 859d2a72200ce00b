#include "src/util/codec.h"

namespace s4 {

void Encoder::PutU16(uint16_t v) {
  buf_.push_back(static_cast<uint8_t>(v));
  buf_.push_back(static_cast<uint8_t>(v >> 8));
}

void Encoder::PatchU16(size_t at, uint16_t v) {
  buf_[at] = static_cast<uint8_t>(v);
  buf_[at + 1] = static_cast<uint8_t>(v >> 8);
}

void Encoder::PutU32(uint32_t v) {
  uint8_t le[4];
  for (int i = 0; i < 4; ++i) {
    le[i] = static_cast<uint8_t>(v >> (8 * i));
  }
  buf_.insert(buf_.end(), le, le + 4);
}

void Encoder::PutU64(uint64_t v) {
  uint8_t le[8];
  for (int i = 0; i < 8; ++i) {
    le[i] = static_cast<uint8_t>(v >> (8 * i));
  }
  buf_.insert(buf_.end(), le, le + 8);
}

void AppendVarint(uint64_t v, Bytes* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

void Encoder::PutVarint(uint64_t v) { AppendVarint(v, &buf_); }

void Encoder::PutBytes(ByteSpan b) { buf_.insert(buf_.end(), b.begin(), b.end()); }

void Encoder::PutLengthPrefixed(ByteSpan b) {
  PutVarint(b.size());
  PutBytes(b);
}

void Encoder::SetLengthPrefix(size_t at) {
  const uint64_t n = buf_.size() - at - 1;
  if (n < 0x80) {
    buf_[at] = static_cast<uint8_t>(n);
    return;
  }
  Bytes prefix;
  AppendVarint(n, &prefix);
  buf_[at] = prefix[0];
  buf_.insert(buf_.begin() + static_cast<std::ptrdiff_t>(at) + 1, prefix.begin() + 1,
              prefix.end());
}

void Encoder::PutString(const std::string& s) {
  PutLengthPrefixed(ByteSpan(reinterpret_cast<const uint8_t*>(s.data()), s.size()));
}

Result<uint8_t> Decoder::U8() {
  if (remaining() < 1) {
    return Status::DataCorruption("decoder underrun (u8)");
  }
  return data_[pos_++];
}

Result<uint16_t> Decoder::U16() {
  if (remaining() < 2) {
    return Status::DataCorruption("decoder underrun (u16)");
  }
  uint16_t v = static_cast<uint16_t>(data_[pos_]) |
               static_cast<uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

Result<uint32_t> Decoder::U32() {
  if (remaining() < 4) {
    return Status::DataCorruption("decoder underrun (u32)");
  }
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  return v;
}

Result<uint64_t> Decoder::U64() {
  if (remaining() < 8) {
    return Status::DataCorruption("decoder underrun (u64)");
  }
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  return v;
}

Result<int64_t> Decoder::I64() {
  S4_ASSIGN_OR_RETURN(uint64_t v, U64());
  return static_cast<int64_t>(v);
}

Result<uint64_t> Decoder::Varint() {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (remaining() < 1) {
      return Status::DataCorruption("decoder underrun (varint)");
    }
    if (shift >= 64) {
      return Status::DataCorruption("varint too long");
    }
    uint8_t b = data_[pos_++];
    v |= static_cast<uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) {
      break;
    }
    shift += 7;
  }
  return v;
}

Result<Bytes> Decoder::RawBytes(size_t n) {
  if (remaining() < n) {
    return Status::DataCorruption("decoder underrun (bytes)");
  }
  Bytes out(data_.begin() + pos_, data_.begin() + pos_ + n);
  pos_ += n;
  return out;
}

Result<Bytes> Decoder::LengthPrefixed() {
  S4_ASSIGN_OR_RETURN(ByteSpan b, LengthPrefixedSpan());
  return Bytes(b.begin(), b.end());
}

Result<ByteSpan> Decoder::LengthPrefixedSpan() {
  S4_ASSIGN_OR_RETURN(uint64_t n, Varint());
  if (n > remaining()) {
    return Status::DataCorruption("length prefix exceeds buffer");
  }
  ByteSpan out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

Result<std::string> Decoder::String() {
  S4_ASSIGN_OR_RETURN(ByteSpan b, LengthPrefixedSpan());
  return std::string(b.begin(), b.end());
}

Status Decoder::Skip(size_t n) {
  if (remaining() < n) {
    return Status::DataCorruption("decoder underrun (skip)");
  }
  pos_ += n;
  return Status::Ok();
}

}  // namespace s4
