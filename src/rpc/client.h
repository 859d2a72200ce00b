// S4ClientApi: the typed client surface file systems and tools program
// against. The typed Table-1 wrappers are implemented once, over the two
// virtual entry points (Call / CallBatch), so any request router — the
// single-drive S4Client or the multi-drive ShardRouter — presents the same
// interface.
#ifndef S4_SRC_RPC_CLIENT_H_
#define S4_SRC_RPC_CLIENT_H_

#include <string>
#include <vector>

#include "src/rpc/messages.h"
#include "src/rpc/transport.h"

namespace s4 {

class S4ClientApi {
 public:
  virtual ~S4ClientApi() = default;

  virtual const Credentials& creds() const = 0;
  virtual void set_creds(Credentials creds) = 0;

  // Sends a raw single-op request (creds stamped by the implementation). With
  // `req.sync` the op is durable when the call returns: the response is the
  // op's error if it failed, else the Sync's error if that failed.
  virtual Result<RpcResponse> Call(RpcRequest req) = 0;
  // Sends N requests under one kBatch envelope and one network round-trip.
  // Returns one response per sub-request, in order. Sub-op failures are
  // reported in the per-sub response codes, not as a transport error.
  virtual Result<std::vector<RpcResponse>> CallBatch(std::vector<RpcRequest> reqs) = 0;

  // Typed wrappers over Call(), shared by every implementation.
  Result<ObjectId> Create(Bytes opaque_attrs);
  Status Delete(ObjectId id);
  Result<Bytes> Read(ObjectId id, uint64_t offset, uint64_t length,
                     std::optional<SimTime> at = std::nullopt);
  Status Write(ObjectId id, uint64_t offset, ByteSpan data);
  Status XorWrite(ObjectId id, uint64_t offset, ByteSpan data);
  Result<uint64_t> Append(ObjectId id, ByteSpan data);
  Status Truncate(ObjectId id, uint64_t new_size);
  Result<ObjectAttrs> GetAttr(ObjectId id, std::optional<SimTime> at = std::nullopt);
  Status SetAttr(ObjectId id, Bytes opaque_attrs);
  Result<AclEntry> GetAclByUser(ObjectId id, UserId user,
                                std::optional<SimTime> at = std::nullopt);
  Result<AclEntry> GetAclByIndex(ObjectId id, uint32_t index,
                                 std::optional<SimTime> at = std::nullopt);
  Status SetAcl(ObjectId id, AclEntry entry);
  Status PCreate(const std::string& name, ObjectId id);
  Status PDelete(const std::string& name);
  Result<std::vector<std::pair<std::string, ObjectId>>> PList(
      std::optional<SimTime> at = std::nullopt);
  Result<ObjectId> PMount(const std::string& name, std::optional<SimTime> at = std::nullopt);
  Status Sync();
  Status Flush(SimTime from, SimTime to);
  Status FlushObject(ObjectId id, SimTime from, SimTime to);
  Status SetWindow(SimDuration window);
  Result<std::vector<std::pair<SimTime, uint8_t>>> GetVersionList(ObjectId id);
  // Challenge/response audit verification (admin-only). `saved` is the chain
  // state this auditor last verified (genesis AuditChainState{} on the first
  // run). Iterates challenge rounds, verifying each returned frame span as a
  // whole-frame chain continuation of `saved`, until it catches up with the
  // drive's claimed committed chain end; on success `saved` has advanced to
  // that end. Any divergence — wrong link, wrong seq, wrong self-address, a
  // shrunk chain — fails with DataCorruption and leaves `saved` at the last
  // verified state.
  Status AuditChallenge(AuditChainState* saved);
};

// Single-endpoint client: stamps this client's credentials on every request
// and ships frames over one transport.
class S4Client : public S4ClientApi {
 public:
  S4Client(RpcTransport* transport, Credentials creds)
      : transport_(transport), creds_(creds) {}

  const Credentials& creds() const override { return creds_; }
  void set_creds(Credentials creds) override { creds_ = creds; }

  Result<RpcResponse> Call(RpcRequest req) override;
  Result<std::vector<RpcResponse>> CallBatch(std::vector<RpcRequest> reqs) override;
  // Like CallBatch, but each sub-request keeps the credentials already set on
  // it. An array controller mixes client-credentialed data sub-ops with its
  // own parity maintenance sub-ops in one frame; the audit log must attribute
  // each to the principal that issued it.
  Result<std::vector<RpcResponse>> CallBatchPrestamped(std::vector<RpcRequest> reqs);

 private:
  Result<std::vector<RpcResponse>> SendBatch(RpcBatchRequest batch);

  RpcTransport* transport_;
  Credentials creds_;
};

}  // namespace s4

#endif  // S4_SRC_RPC_CLIENT_H_
