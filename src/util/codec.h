// Little-endian wire/on-disk codec.
//
// Every persistent structure (superblock, segment summaries, journal sectors,
// inode checkpoints, audit records) and every RPC message is serialised with
// Encoder and parsed with Decoder. Decoder never aborts on malformed input —
// it reports kDataCorruption / kInvalidArgument so corrupted sectors and
// hostile RPC payloads are handled gracefully.
#ifndef S4_SRC_UTIL_CODEC_H_
#define S4_SRC_UTIL_CODEC_H_

#include <cstdint>
#include <string>

#include "src/util/bytes.h"
#include "src/util/status.h"

namespace s4 {

// Appends `v` to `out` as an unsigned LEB128 varint (Encoder::PutVarint's
// encoding).
void AppendVarint(uint64_t v, Bytes* out);

class Encoder {
 public:
  Encoder() = default;
  explicit Encoder(size_t reserve) { buf_.reserve(reserve); }

  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU16(uint16_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  // Unsigned LEB128; compact for the many small counts in journal entries.
  void PutVarint(uint64_t v);
  void PutBytes(ByteSpan b);
  // Length-prefixed (varint) byte string.
  void PutLengthPrefixed(ByteSpan b);
  // The same for a string that `fill(this)` appends in place, with no copy:
  // one prefix byte is reserved first and widened afterwards if the string
  // turns out to need a longer varint.
  template <typename Fill>
  void PutLengthPrefixedWith(Fill&& fill) {
    const size_t at = buf_.size();
    buf_.push_back(0);
    fill(this);
    SetLengthPrefix(at);
  }
  void PutString(const std::string& s);
  // Overwrites the u16 already written at `at`: a length reserved before the
  // bytes it counts were encoded.
  void PatchU16(size_t at, uint16_t v);

  const Bytes& bytes() const { return buf_; }
  Bytes Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  // Rewrites the byte reserved at `at` as the varint length of everything
  // after it.
  void SetLengthPrefix(size_t at);

  Bytes buf_;
};

class Decoder {
 public:
  explicit Decoder(ByteSpan data) : data_(data) {}

  Result<uint8_t> U8();
  Result<uint16_t> U16();
  Result<uint32_t> U32();
  Result<uint64_t> U64();
  Result<int64_t> I64();
  Result<uint64_t> Varint();
  // Reads exactly n raw bytes.
  Result<Bytes> RawBytes(size_t n);
  // Varint-length-prefixed byte string.
  Result<Bytes> LengthPrefixed();
  // The same, as a view into the decoder's buffer (no copy): valid while
  // that buffer is.
  Result<ByteSpan> LengthPrefixedSpan();
  Result<std::string> String();

  size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }
  size_t position() const { return pos_; }
  Status Skip(size_t n);

 private:
  ByteSpan data_;
  size_t pos_ = 0;
};

}  // namespace s4

#endif  // S4_SRC_UTIL_CODEC_H_
