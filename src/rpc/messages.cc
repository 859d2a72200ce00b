#include "src/rpc/messages.h"

#include "src/util/crc32.h"

namespace s4 {
namespace {

constexpr uint32_t kRequestMagic = 0x53345251;        // "S4RQ"
constexpr uint32_t kResponseMagic = 0x53345250;       // "S4RP"
constexpr uint32_t kBatchRequestMagic = 0x53344251;   // "S4BQ"
constexpr uint32_t kBatchResponseMagic = 0x53344250;  // "S4BP"

// RpcRequest's flags byte. Any other bit is rejected, so a flag can be added
// later without an old server silently ignoring it.
constexpr uint8_t kFlagAt = 1;    // `at` follows
constexpr uint8_t kFlagSync = 2;  // sync after the op

Bytes Frame(uint32_t magic, Encoder body) {
  Encoder out(body.size() + 12);
  out.PutU32(magic);
  out.PutBytes(body.bytes());
  uint32_t crc = Crc32c(out.bytes());
  out.PutU32(crc);
  return out.Take();
}

Result<Decoder> Unframe(uint32_t magic, ByteSpan frame) {
  if (frame.size() < 8) {
    return Status::DataCorruption("rpc frame too short");
  }
  uint32_t stored;
  {
    Decoder tail(frame.subspan(frame.size() - 4));
    S4_ASSIGN_OR_RETURN(stored, tail.U32());
  }
  if (Crc32c(frame.subspan(0, frame.size() - 4)) != stored) {
    return Status::DataCorruption("rpc frame crc mismatch");
  }
  Decoder dec(frame.subspan(0, frame.size() - 4));
  S4_ASSIGN_OR_RETURN(uint32_t m, dec.U32());
  if (m != magic) {
    return Status::DataCorruption("rpc frame bad magic");
  }
  return dec;
}

}  // namespace

Bytes RpcRequest::Encode() const {
  Encoder enc(64 + data.size());
  enc.PutU8(static_cast<uint8_t>(op));
  enc.PutU32(creds.client);
  enc.PutU32(creds.user);
  enc.PutU64(creds.admin_key);
  enc.PutVarint(object);
  enc.PutVarint(offset);
  enc.PutVarint(length);
  enc.PutU8((at.has_value() ? kFlagAt : 0) | (sync ? kFlagSync : 0));
  if (at.has_value()) {
    enc.PutI64(*at);
  }
  enc.PutLengthPrefixed(data);
  enc.PutString(name);
  enc.PutU32(acl_entry.user);
  enc.PutU8(acl_entry.perms);
  enc.PutU32(user);
  enc.PutU32(index);
  enc.PutI64(from);
  enc.PutI64(to);
  enc.PutI64(window);
  return Frame(kRequestMagic, std::move(enc));
}

Result<RpcRequest> RpcRequest::Decode(ByteSpan frame) {
  S4_ASSIGN_OR_RETURN(Decoder dec, Unframe(kRequestMagic, frame));
  RpcRequest r;
  S4_ASSIGN_OR_RETURN(uint8_t op_raw, dec.U8());
  // kBatch is deliberately excluded: a batch travels under its own frame
  // magic, and rejecting the op byte here keeps batches from nesting.
  if (op_raw < static_cast<uint8_t>(RpcOp::kCreate) ||
      op_raw > static_cast<uint8_t>(RpcOp::kXorWrite) ||
      op_raw == static_cast<uint8_t>(RpcOp::kBatch)) {
    return Status::InvalidArgument("unknown rpc op");
  }
  r.op = static_cast<RpcOp>(op_raw);
  S4_ASSIGN_OR_RETURN(r.creds.client, dec.U32());
  S4_ASSIGN_OR_RETURN(r.creds.user, dec.U32());
  S4_ASSIGN_OR_RETURN(r.creds.admin_key, dec.U64());
  S4_ASSIGN_OR_RETURN(r.object, dec.Varint());
  S4_ASSIGN_OR_RETURN(r.offset, dec.Varint());
  S4_ASSIGN_OR_RETURN(r.length, dec.Varint());
  S4_ASSIGN_OR_RETURN(uint8_t flags, dec.U8());
  if ((flags & ~(kFlagAt | kFlagSync)) != 0) {
    return Status::InvalidArgument("unknown rpc request flag");
  }
  r.sync = (flags & kFlagSync) != 0;
  if ((flags & kFlagAt) != 0) {
    S4_ASSIGN_OR_RETURN(SimTime at, dec.I64());
    r.at = at;
  }
  S4_ASSIGN_OR_RETURN(r.data, dec.LengthPrefixed());
  S4_ASSIGN_OR_RETURN(r.name, dec.String());
  S4_ASSIGN_OR_RETURN(r.acl_entry.user, dec.U32());
  S4_ASSIGN_OR_RETURN(r.acl_entry.perms, dec.U8());
  S4_ASSIGN_OR_RETURN(r.user, dec.U32());
  S4_ASSIGN_OR_RETURN(r.index, dec.U32());
  S4_ASSIGN_OR_RETURN(r.from, dec.I64());
  S4_ASSIGN_OR_RETURN(r.to, dec.I64());
  S4_ASSIGN_OR_RETURN(r.window, dec.I64());
  return r;
}

Bytes RpcResponse::Encode() const {
  Encoder enc(64 + data.size());
  enc.PutU8(static_cast<uint8_t>(code));
  enc.PutString(message);
  enc.PutLengthPrefixed(data);
  enc.PutVarint(value);
  enc.PutVarint(attrs.size);
  enc.PutI64(attrs.create_time);
  enc.PutI64(attrs.modify_time);
  enc.PutLengthPrefixed(attrs.opaque);
  enc.PutU32(acl_entry.user);
  enc.PutU8(acl_entry.perms);
  enc.PutVarint(partitions.size());
  for (const auto& [name, id] : partitions) {
    enc.PutString(name);
    enc.PutVarint(id);
  }
  enc.PutVarint(versions.size());
  for (const auto& [time, cause] : versions) {
    enc.PutI64(time);
    enc.PutU8(cause);
  }
  return Frame(kResponseMagic, std::move(enc));
}

Result<RpcResponse> RpcResponse::Decode(ByteSpan frame) {
  S4_ASSIGN_OR_RETURN(Decoder dec, Unframe(kResponseMagic, frame));
  RpcResponse r;
  S4_ASSIGN_OR_RETURN(uint8_t code_raw, dec.U8());
  if (code_raw >= kNumErrorCodes) {
    return Status::DataCorruption("bad response code");
  }
  r.code = static_cast<ErrorCode>(code_raw);
  S4_ASSIGN_OR_RETURN(r.message, dec.String());
  S4_ASSIGN_OR_RETURN(r.data, dec.LengthPrefixed());
  S4_ASSIGN_OR_RETURN(r.value, dec.Varint());
  S4_ASSIGN_OR_RETURN(r.attrs.size, dec.Varint());
  S4_ASSIGN_OR_RETURN(r.attrs.create_time, dec.I64());
  S4_ASSIGN_OR_RETURN(r.attrs.modify_time, dec.I64());
  S4_ASSIGN_OR_RETURN(r.attrs.opaque, dec.LengthPrefixed());
  S4_ASSIGN_OR_RETURN(r.acl_entry.user, dec.U32());
  S4_ASSIGN_OR_RETURN(r.acl_entry.perms, dec.U8());
  S4_ASSIGN_OR_RETURN(uint64_t nparts, dec.Varint());
  for (uint64_t i = 0; i < nparts; ++i) {
    S4_ASSIGN_OR_RETURN(std::string name, dec.String());
    S4_ASSIGN_OR_RETURN(uint64_t id, dec.Varint());
    r.partitions.emplace_back(std::move(name), id);
  }
  S4_ASSIGN_OR_RETURN(uint64_t nversions, dec.Varint());
  for (uint64_t i = 0; i < nversions; ++i) {
    S4_ASSIGN_OR_RETURN(SimTime time, dec.I64());
    S4_ASSIGN_OR_RETURN(uint8_t cause, dec.U8());
    r.versions.emplace_back(time, cause);
  }
  return r;
}

Bytes RpcBatchRequest::Encode() const {
  Encoder enc(64);
  enc.PutVarint(subs.size());
  for (const RpcRequest& sub : subs) {
    enc.PutLengthPrefixed(sub.Encode());
  }
  return Frame(kBatchRequestMagic, std::move(enc));
}

Result<RpcBatchRequest> RpcBatchRequest::Decode(ByteSpan frame) {
  S4_ASSIGN_OR_RETURN(Decoder dec, Unframe(kBatchRequestMagic, frame));
  S4_ASSIGN_OR_RETURN(uint64_t count, dec.Varint());
  if (count == 0) {
    return Status::InvalidArgument("empty rpc batch");
  }
  if (count > kMaxSubRequests) {
    return Status::InvalidArgument("rpc batch sub-request count exceeds cap");
  }
  RpcBatchRequest r;
  r.subs.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    S4_ASSIGN_OR_RETURN(Bytes sub_frame, dec.LengthPrefixed());
    S4_ASSIGN_OR_RETURN(RpcRequest sub, RpcRequest::Decode(sub_frame));
    r.subs.push_back(std::move(sub));
  }
  if (!dec.done()) {
    return Status::DataCorruption("trailing bytes after rpc batch");
  }
  return r;
}

Bytes RpcBatchResponse::Encode() const {
  Encoder enc(64);
  enc.PutVarint(subs.size());
  for (const RpcResponse& sub : subs) {
    enc.PutLengthPrefixed(sub.Encode());
  }
  return Frame(kBatchResponseMagic, std::move(enc));
}

Result<RpcBatchResponse> RpcBatchResponse::Decode(ByteSpan frame) {
  S4_ASSIGN_OR_RETURN(Decoder dec, Unframe(kBatchResponseMagic, frame));
  S4_ASSIGN_OR_RETURN(uint64_t count, dec.Varint());
  if (count > RpcBatchRequest::kMaxSubRequests) {
    return Status::DataCorruption("rpc batch response count exceeds cap");
  }
  RpcBatchResponse r;
  r.subs.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    S4_ASSIGN_OR_RETURN(Bytes sub_frame, dec.LengthPrefixed());
    S4_ASSIGN_OR_RETURN(RpcResponse sub, RpcResponse::Decode(sub_frame));
    r.subs.push_back(std::move(sub));
  }
  return r;
}

bool IsBatchRequestFrame(ByteSpan frame) {
  if (frame.size() < 4) {
    return false;
  }
  Decoder dec(frame);
  auto magic = dec.U32();
  return magic.ok() && *magic == kBatchRequestMagic;
}

FramePeek PeekRequestFrame(ByteSpan frame) {
  FramePeek peek;
  Decoder dec(frame);
  auto magic = dec.U32();
  if (!magic.ok()) {
    return peek;  // too short to carry any magic: reject path
  }
  if (*magic == kBatchRequestMagic) {
    peek.batch = true;
    return peek;
  }
  if (*magic != kRequestMagic) {
    return peek;
  }
  // Mirror the RpcRequest::Decode prefix (op, creds, object) without the CRC
  // pass or the tail fields.
  auto op_raw = dec.U8();
  if (!op_raw.ok() || *op_raw < static_cast<uint8_t>(RpcOp::kCreate) ||
      *op_raw > static_cast<uint8_t>(RpcOp::kXorWrite) ||
      *op_raw == static_cast<uint8_t>(RpcOp::kBatch)) {
    return peek;
  }
  if (!dec.U32().ok() || !dec.U32().ok() || !dec.U64().ok()) {
    return peek;  // creds
  }
  auto object = dec.Varint();
  if (!object.ok()) {
    return peek;
  }
  peek.single = true;
  peek.op = static_cast<RpcOp>(*op_raw);
  peek.object = *object;
  return peek;
}

}  // namespace s4
