#include "src/rpc/auth.h"

#include <cstring>
#include <vector>

#include "src/rpc/messages.h"
#include "src/util/codec.h"

namespace s4 {
namespace {

constexpr uint32_t kEnvelopeMagic = 0x53344155;  // "S4AU"

inline uint64_t Rotl64(uint64_t x, int b) { return (x << b) | (x >> (64 - b)); }

Bytes ErrorResponse(ErrorCode code, const char* message) {
  RpcResponse resp;
  resp.code = code;
  resp.message = message;
  return resp.Encode();
}

}  // namespace

uint64_t SipHash24(const MacKey& key, ByteSpan data) {
  uint64_t k0;
  uint64_t k1;
  std::memcpy(&k0, key.data(), 8);
  std::memcpy(&k1, key.data() + 8, 8);

  uint64_t v0 = 0x736f6d6570736575ull ^ k0;
  uint64_t v1 = 0x646f72616e646f6dull ^ k1;
  uint64_t v2 = 0x6c7967656e657261ull ^ k0;
  uint64_t v3 = 0x7465646279746573ull ^ k1;

  auto sipround = [&] {
    v0 += v1;
    v1 = Rotl64(v1, 13);
    v1 ^= v0;
    v0 = Rotl64(v0, 32);
    v2 += v3;
    v3 = Rotl64(v3, 16);
    v3 ^= v2;
    v0 += v3;
    v3 = Rotl64(v3, 21);
    v3 ^= v0;
    v2 += v1;
    v1 = Rotl64(v1, 17);
    v1 ^= v2;
    v2 = Rotl64(v2, 32);
  };

  size_t len = data.size();
  const uint8_t* p = data.data();
  const uint8_t* end = p + (len - len % 8);
  for (; p != end; p += 8) {
    uint64_t m;
    std::memcpy(&m, p, 8);
    v3 ^= m;
    sipround();
    sipround();
    v0 ^= m;
  }
  uint64_t b = static_cast<uint64_t>(len) << 56;
  for (size_t i = 0; i < len % 8; ++i) {
    b |= static_cast<uint64_t>(p[i]) << (8 * i);
  }
  v3 ^= b;
  sipround();
  sipround();
  v0 ^= b;
  v2 ^= 0xFF;
  sipround();
  sipround();
  sipround();
  sipround();
  return v0 ^ v1 ^ v2 ^ v3;
}

// ---------------------------------------------------------------------------
// SigningTransport
// ---------------------------------------------------------------------------

Bytes SigningTransport::Envelope(ByteSpan request, uint64_t sequence) {
  Encoder body(32 + request.size());
  body.PutU32(kEnvelopeMagic);
  body.PutU32(client_);
  body.PutU32(user_);
  body.PutU64(sequence);
  body.PutLengthPrefixed(request);
  uint64_t mac = SipHash24(key_, body.bytes());
  if (corrupt_next_) {
    mac ^= 0xDEADBEEF;
    corrupt_next_ = false;
  }
  body.PutU64(mac);
  return body.Take();
}

Result<Bytes> SigningTransport::Call(ByteSpan request) {
  last_envelope_ = Envelope(request, ++sequence_);
  return next_->Call(last_envelope_);
}

Result<Bytes> SigningTransport::ReplayLast() {
  if (last_envelope_.empty()) {
    return Status::FailedPrecondition("nothing to replay");
  }
  return next_->Call(last_envelope_);
}

// ---------------------------------------------------------------------------
// AuthGateway
// ---------------------------------------------------------------------------

void AuthGateway::RegisterPrincipal(ClientId client, UserId user, const MacKey& key) {
  principals_[{client, user}] = Principal{key, 0};
}

void AuthGateway::RevokePrincipal(ClientId client, UserId user) {
  principals_.erase({client, user});
}

Bytes AuthGateway::Handle(ByteSpan envelope_frame) {
  Decoder dec(envelope_frame);
  auto magic = dec.U32();
  if (!magic.ok() || *magic != kEnvelopeMagic) {
    return ErrorResponse(ErrorCode::kPermissionDenied, "missing auth envelope");
  }
  auto client = dec.U32();
  auto user = client.ok() ? dec.U32() : client;
  auto sequence = user.ok() ? dec.U64() : Result<uint64_t>(user.status());
  auto inner = sequence.ok() ? dec.LengthPrefixedSpan() : Result<ByteSpan>(sequence.status());
  auto mac = inner.ok() ? dec.U64() : Result<uint64_t>(inner.status());
  if (!mac.ok() || !dec.done()) {
    return ErrorResponse(ErrorCode::kPermissionDenied, "malformed auth envelope");
  }

  auto it = principals_.find({*client, *user});
  if (it == principals_.end()) {
    ++rejected_unknown_principal_;
    return ErrorResponse(ErrorCode::kPermissionDenied, "unknown principal");
  }
  Principal& principal = it->second;

  // Verify the MAC over everything before it.
  size_t mac_offset = envelope_frame.size() - 8;
  uint64_t expected = SipHash24(principal.key, envelope_frame.subspan(0, mac_offset));
  if (expected != *mac) {
    ++rejected_bad_mac_;
    return ErrorResponse(ErrorCode::kPermissionDenied, "bad request mac");
  }
  // Replay protection: sequence numbers are strictly increasing.
  if (*sequence <= principal.last_sequence) {
    ++rejected_replay_;
    return ErrorResponse(ErrorCode::kPermissionDenied, "replayed request");
  }
  principal.last_sequence = *sequence;

  // The credentials inside the request, or inside every sub-request of a
  // batch, must match the authenticated identity: a valid user may not speak
  // for another. One mismatch rejects the whole frame before the drive sees
  // any of it.
  std::vector<RpcRequest> requests;
  if (IsBatchRequestFrame(*inner)) {
    auto batch = RpcBatchRequest::Decode(*inner);
    if (!batch.ok()) {
      return ErrorResponse(batch.status().code(), "bad inner frame");
    }
    requests = std::move(batch->subs);
  } else {
    auto request = RpcRequest::Decode(*inner);
    if (!request.ok()) {
      return ErrorResponse(request.status().code(), "bad inner frame");
    }
    requests.push_back(std::move(*request));
  }
  for (const RpcRequest& request : requests) {
    if (request.creds.client != *client || request.creds.user != *user) {
      ++rejected_identity_mismatch_;
      return ErrorResponse(ErrorCode::kPermissionDenied,
                           "request credentials do not match authenticated identity");
    }
  }
  return server_->Handle(*inner);
}

Result<Bytes> AuthLoopbackTransport::Call(ByteSpan request) {
  clock_->Advance(model_.TransferCost(request.size()));
  Bytes response = gateway_->Handle(request);
  clock_->Advance(model_.TransferCost(response.size()));
  return response;
}

}  // namespace s4
