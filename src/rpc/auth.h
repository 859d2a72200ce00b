// Authenticated access (paper section 3.2): "the new security perimeter
// becomes more useful if the device can verify each access as coming from
// both a valid user and a valid client. Such verification allows the device
// to enforce access control decisions and partially track propagation of
// tainted data."
//
// The NFS-style transport carries unauthenticated identity *claims*; this
// layer upgrades it: each request frame travels in an envelope carrying the
// claimed (client, user), a strictly increasing sequence number, and a
// SipHash-2-4 MAC over all of it under a key registered with the drive. The
// gateway in front of the drive verifies the MAC, checks the envelope
// identity against the credentials inside the request (every sub-request of
// a batch), and rejects replays — so audit records can be trusted to name the
// real principal.
#ifndef S4_SRC_RPC_AUTH_H_
#define S4_SRC_RPC_AUTH_H_

#include <array>
#include <map>
#include <memory>

#include "src/rpc/transport.h"

namespace s4 {

using MacKey = std::array<uint8_t, 16>;

// SipHash-2-4 (Aumasson & Bernstein), implemented from scratch.
uint64_t SipHash24(const MacKey& key, ByteSpan data);

// Server-side key registry + verifier. Sits in front of an S4RpcServer and
// only forwards frames whose envelopes check out.
class AuthGateway {
 public:
  explicit AuthGateway(S4RpcServer* server) : server_(server) {}

  // Registers/rotates the key for a principal. In a deployment this happens
  // over the administrative channel (section 3.5).
  void RegisterPrincipal(ClientId client, UserId user, const MacKey& key);
  void RevokePrincipal(ClientId client, UserId user);

  // Verifies and unwraps an envelope; on success dispatches the inner frame
  // to the drive. Every failure mode returns an encoded error response.
  Bytes Handle(ByteSpan envelope_frame);

  uint64_t rejected_bad_mac() const { return rejected_bad_mac_; }
  uint64_t rejected_replay() const { return rejected_replay_; }
  uint64_t rejected_identity_mismatch() const { return rejected_identity_mismatch_; }
  uint64_t rejected_unknown_principal() const { return rejected_unknown_principal_; }

 private:
  struct Principal {
    MacKey key;
    uint64_t last_sequence = 0;
  };

  S4RpcServer* server_;
  std::map<std::pair<ClientId, UserId>, Principal> principals_;
  uint64_t rejected_bad_mac_ = 0;
  uint64_t rejected_replay_ = 0;
  uint64_t rejected_identity_mismatch_ = 0;
  uint64_t rejected_unknown_principal_ = 0;
};

// Transport adapter used by S4RpcServer-facing loopback transports: wraps a
// gateway the same way LoopbackTransport wraps a server.
class AuthLoopbackTransport : public RpcTransport {
 public:
  AuthLoopbackTransport(AuthGateway* gateway, SimClock* clock, NetModel model = NetModel())
      : gateway_(gateway), clock_(clock), model_(model) {}

  Result<Bytes> Call(ByteSpan request) override;

 private:
  AuthGateway* gateway_;
  SimClock* clock_;
  NetModel model_;
};

// Client-side signer: wraps any transport, enveloping each outgoing frame
// with this principal's identity, sequence number, and MAC.
class SigningTransport : public RpcTransport {
 public:
  SigningTransport(RpcTransport* next, ClientId client, UserId user, const MacKey& key)
      : next_(next), client_(client), user_(user), key_(key) {}

  Result<Bytes> Call(ByteSpan request) override;

  // Test hook: corrupt the next MAC (models an attacker without the key).
  void CorruptNextMac() { corrupt_next_ = true; }
  // Test hook: replay the previous envelope verbatim.
  Result<Bytes> ReplayLast();

 private:
  Bytes Envelope(ByteSpan request, uint64_t sequence);

  RpcTransport* next_;
  ClientId client_;
  UserId user_;
  MacKey key_;
  uint64_t sequence_ = 0;
  bool corrupt_next_ = false;
  Bytes last_envelope_;
};

}  // namespace s4

#endif  // S4_SRC_RPC_AUTH_H_
