// RPC wire messages for the S4 protocol (Table 1).
//
// A single generic request/response pair keeps the codec small; unused
// fields stay at their defaults and encode compactly as varint zeros. Every
// frame is CRC-protected: the drive sits behind a security perimeter and
// must not trust the transport.
#ifndef S4_SRC_RPC_MESSAGES_H_
#define S4_SRC_RPC_MESSAGES_H_

#include <optional>
#include <string>
#include <vector>

#include "src/audit/audit_log.h"
#include "src/object/types.h"
#include "src/util/codec.h"

namespace s4 {

struct RpcRequest {
  RpcOp op = RpcOp::kRead;
  Credentials creds;
  ObjectId object = kInvalidObjectId;
  uint64_t offset = 0;
  uint64_t length = 0;
  std::optional<SimTime> at;  // time-based access (Table 1 "yes" rows)
  // Make the op durable before replying: the server runs a Sync after the op
  // succeeds, in the same round trip (an NFSv3-style stable write).
  bool sync = false;
  // Link this sub-request to the one before it in its batch (NFSv4
  // COMPOUND's rule): it runs only if that one succeeded, and that
  // response's `value` is first appended to `data` as a varint (the new
  // object id after a Create, 0 after a Delete). Legal only on a kAppend
  // that is not its batch's first sub-request; see CheckBatchLinks.
  bool link = false;
  Bytes data;                 // write/append payload or attr blob
  std::string name;           // partition name
  AclEntry acl_entry;         // SetACL
  UserId user = 0;            // GetACLByUser
  uint32_t index = 0;         // GetACLByIndex
  SimTime from = 0;           // Flush / FlushO
  SimTime to = 0;
  SimDuration window = 0;     // SetWindow

  Bytes Encode() const;
  static Result<RpcRequest> Decode(ByteSpan frame);
};

struct RpcResponse {
  ErrorCode code = ErrorCode::kOk;
  std::string message;
  Bytes data;                  // read payload / attr blob
  uint64_t value = 0;          // object id, append size, ...
  ObjectAttrs attrs;
  AclEntry acl_entry;
  std::vector<std::pair<std::string, ObjectId>> partitions;
  std::vector<std::pair<SimTime, uint8_t>> versions;  // GetVersionList

  bool ok() const { return code == ErrorCode::kOk; }
  Status ToStatus() const {
    return ok() ? Status::Ok() : Status(code, message);
  }

  Bytes Encode() const;
  static Result<RpcResponse> Decode(ByteSpan frame);
};

// Vectored batch frame: N complete RpcRequest frames under one envelope and
// one transport round-trip (RpcOp::kBatch). Sub-requests reuse the single-op
// codec verbatim, so every hardening rule of RpcRequest::Decode (CRC, op
// range, field bounds) applies to each sub-request too; only a sub-request
// may carry `link`. The whole batch is validated before any sub-op is
// dispatched: a hostile batch is rejected as a unit, never partially
// applied.
struct RpcBatchRequest {
  // Caps a batch at a size a drive can buffer without letting one client
  // monopolise the front end.
  static constexpr uint64_t kMaxSubRequests = 256;

  std::vector<RpcRequest> subs;

  Bytes Encode() const;
  static Result<RpcBatchRequest> Decode(ByteSpan frame);
};

struct RpcBatchResponse {
  std::vector<RpcResponse> subs;

  Bytes Encode() const;
  static Result<RpcBatchResponse> Decode(ByteSpan frame);
};

// The rule for `link`: only a kAppend that is not the first sub-request may
// carry it. A batch that breaks the rule is rejected as a unit
// (kInvalidArgument), like any malformed frame; a single frame with the flag
// never decodes.
Status CheckBatchLinks(const std::vector<RpcRequest>& subs);

// Applies a linked sub-request's rule once its predecessor's response `prev`
// is known. If `prev` failed, returns the kFailedPrecondition the skipped
// sub-request reports: it does not run and runs no Sync. Otherwise appends
// prev.value to `linked`'s data as a varint, clears its link and returns Ok.
Status ResolveLink(const RpcResponse& prev, RpcRequest* linked);

// Cheap peek at the frame magic: true if this looks like a batch envelope
// (full validation still happens in RpcBatchRequest::Decode).
bool IsBatchRequestFrame(ByteSpan frame);

// What a request scheduler needs to classify a frame without paying for a
// full decode: the op and the target object. Deliberately does NOT verify
// the CRC or the trailing fields — a frame that peeks one way and decodes
// another merely lands in a stricter (exclusive) scheduling class or on the
// reject path, never in a weaker one, so a hostile frame cannot buy itself
// concurrency it is not entitled to.
struct FramePeek {
  bool single = false;  // prefix parses as a single-request frame
  bool batch = false;   // batch envelope magic
  RpcOp op = RpcOp::kInvalid;
  ObjectId object = kInvalidObjectId;
};
FramePeek PeekRequestFrame(ByteSpan frame);

}  // namespace s4

#endif  // S4_SRC_RPC_MESSAGES_H_
