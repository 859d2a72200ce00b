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
constexpr uint8_t kFlagLink = 4;  // linked to the previous sub-request

// A frame is `magic | body | CRC32C of magic and body`, encoded in place:
// its magic and body are appended to an encoder, a batch's sub-frames
// inside the envelope's own, and SealFrame then appends the CRC of the
// frame's bytes from `start`.
void SealFrame(Encoder* enc, size_t start) {
  enc->PutU32(Crc32c(ByteSpan(enc->bytes()).subspan(start)));
}

void PutRequestFrame(const RpcRequest& r, Encoder* enc) {
  const size_t start = enc->size();
  enc->PutU32(kRequestMagic);
  enc->PutU8(static_cast<uint8_t>(r.op));
  enc->PutU32(r.creds.client);
  enc->PutU32(r.creds.user);
  enc->PutU64(r.creds.admin_key);
  enc->PutVarint(r.object);
  enc->PutVarint(r.offset);
  enc->PutVarint(r.length);
  enc->PutU8((r.at.has_value() ? kFlagAt : 0) | (r.sync ? kFlagSync : 0) |
             (r.link ? kFlagLink : 0));
  if (r.at.has_value()) {
    enc->PutI64(*r.at);
  }
  enc->PutLengthPrefixed(r.data);
  enc->PutString(r.name);
  enc->PutU32(r.acl_entry.user);
  enc->PutU8(r.acl_entry.perms);
  enc->PutU32(r.user);
  enc->PutU32(r.index);
  enc->PutI64(r.from);
  enc->PutI64(r.to);
  enc->PutI64(r.window);
  SealFrame(enc, start);
}

void PutResponseFrame(const RpcResponse& r, Encoder* enc) {
  const size_t start = enc->size();
  enc->PutU32(kResponseMagic);
  enc->PutU8(static_cast<uint8_t>(r.code));
  enc->PutString(r.message);
  enc->PutLengthPrefixed(r.data);
  enc->PutVarint(r.value);
  enc->PutVarint(r.attrs.size);
  enc->PutI64(r.attrs.create_time);
  enc->PutI64(r.attrs.modify_time);
  enc->PutLengthPrefixed(r.attrs.opaque);
  enc->PutU32(r.acl_entry.user);
  enc->PutU8(r.acl_entry.perms);
  enc->PutVarint(r.partitions.size());
  for (const auto& [name, id] : r.partitions) {
    enc->PutString(name);
    enc->PutVarint(id);
  }
  enc->PutVarint(r.versions.size());
  for (const auto& [time, cause] : r.versions) {
    enc->PutI64(time);
    enc->PutU8(cause);
  }
  SealFrame(enc, start);
}

// Room for a frame's fixed fields and its byte strings (a reserve hint).
size_t FrameBytes(const RpcRequest& r) { return 96 + r.data.size() + r.name.size(); }
size_t FrameBytes(const RpcResponse& r) {
  return 96 + r.message.size() + r.data.size() + r.attrs.opaque.size();
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

// Decodes one request frame. Only a batch's sub-request may carry `link`;
// where it may is CheckBatchLinks's rule.
Result<RpcRequest> DecodeRequest(ByteSpan frame, bool in_batch) {
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
  if ((flags & ~(kFlagAt | kFlagSync | kFlagLink)) != 0) {
    return Status::InvalidArgument("unknown rpc request flag");
  }
  r.sync = (flags & kFlagSync) != 0;
  r.link = (flags & kFlagLink) != 0;
  if (r.link && !in_batch) {
    return Status::InvalidArgument("rpc link flag outside a batch");
  }
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

}  // namespace

Bytes RpcRequest::Encode() const {
  Encoder enc(FrameBytes(*this));
  PutRequestFrame(*this, &enc);
  return enc.Take();
}

Result<RpcRequest> RpcRequest::Decode(ByteSpan frame) {
  return DecodeRequest(frame, /*in_batch=*/false);
}

Bytes RpcResponse::Encode() const {
  Encoder enc(FrameBytes(*this));
  PutResponseFrame(*this, &enc);
  return enc.Take();
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
  size_t bytes = 16;
  for (const RpcRequest& sub : subs) {
    bytes += 2 + FrameBytes(sub);
  }
  Encoder enc(bytes);
  enc.PutU32(kBatchRequestMagic);
  enc.PutVarint(subs.size());
  for (const RpcRequest& sub : subs) {
    enc.PutLengthPrefixedWith([&sub](Encoder* e) { PutRequestFrame(sub, e); });
  }
  SealFrame(&enc, 0);
  return enc.Take();
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
    S4_ASSIGN_OR_RETURN(ByteSpan sub_frame, dec.LengthPrefixedSpan());
    S4_ASSIGN_OR_RETURN(RpcRequest sub, DecodeRequest(sub_frame, /*in_batch=*/true));
    r.subs.push_back(std::move(sub));
  }
  if (!dec.done()) {
    return Status::DataCorruption("trailing bytes after rpc batch");
  }
  S4_RETURN_IF_ERROR(CheckBatchLinks(r.subs));
  return r;
}

Bytes RpcBatchResponse::Encode() const {
  size_t bytes = 16;
  for (const RpcResponse& sub : subs) {
    bytes += 2 + FrameBytes(sub);
  }
  Encoder enc(bytes);
  enc.PutU32(kBatchResponseMagic);
  enc.PutVarint(subs.size());
  for (const RpcResponse& sub : subs) {
    enc.PutLengthPrefixedWith([&sub](Encoder* e) { PutResponseFrame(sub, e); });
  }
  SealFrame(&enc, 0);
  return enc.Take();
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
    S4_ASSIGN_OR_RETURN(ByteSpan sub_frame, dec.LengthPrefixedSpan());
    S4_ASSIGN_OR_RETURN(RpcResponse sub, RpcResponse::Decode(sub_frame));
    r.subs.push_back(std::move(sub));
  }
  return r;
}

Status CheckBatchLinks(const std::vector<RpcRequest>& subs) {
  for (size_t i = 0; i < subs.size(); ++i) {
    if (!subs[i].link) {
      continue;
    }
    if (i == 0) {
      return Status::InvalidArgument("rpc link flag on a batch's first sub-request");
    }
    if (subs[i].op != RpcOp::kAppend) {
      return Status::InvalidArgument("rpc link flag on a sub-request that is not an append");
    }
  }
  return Status::Ok();
}

Status ResolveLink(const RpcResponse& prev, RpcRequest* linked) {
  if (!prev.ok()) {
    return Status::FailedPrecondition("linked sub-request skipped: its predecessor failed");
  }
  AppendVarint(prev.value, &linked->data);
  linked->link = false;
  return Status::Ok();
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
