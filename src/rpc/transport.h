// Transport abstraction between S4 clients and the drive.
//
// LoopbackTransport models the paper's testbed: client and drive on the same
// 100Mb switched Ethernet segment. Each Call charges the network model for
// request and response transfer on the shared simulation clock, then invokes
// the server dispatcher synchronously (S4 RPCs are synchronous in the
// prototype).
//
// The server is the request boundary of the observability plane: every frame
// — valid or hostile — gets an OpContext with a fresh request id, so the
// drive's spans, metrics and audit records all hang off one id per RPC.
#ifndef S4_SRC_RPC_TRANSPORT_H_
#define S4_SRC_RPC_TRANSPORT_H_

#include "src/drive/s4_drive.h"
#include "src/rpc/messages.h"
#include "src/sim/net_model.h"
#include "src/sim/sim_clock.h"

namespace s4 {

class RpcTransport {
 public:
  virtual ~RpcTransport() = default;
  virtual Result<Bytes> Call(ByteSpan request) = 0;
};

// Server-side dispatcher: decodes a request frame, invokes the drive, and
// encodes the response. Malformed frames produce error responses and an
// audit record (op kInvalid) — the drive never crashes on hostile input.
// A request with the sync bit runs the op and then, if it succeeded, a Sync
// under the same request id, with the Sync's own audit record and latency.
// A linked batch sub-request runs only if the one before it succeeded; a
// skipped one runs no Sync and leaves one audit record (S4Drive::
// AuditSkippedOp).
class S4RpcServer {
 public:
  // Upper bound on an accepted request frame. Anything larger is rejected
  // before decode: a hostile client must not be able to make the server
  // buffer unbounded payloads.
  static constexpr size_t kMaxFrameBytes = 16u << 20;

  // `shard` is stamped into every OpContext this server mints, so metrics
  // and traces carry the array position; -1 = standalone drive.
  explicit S4RpcServer(S4Drive* drive, int32_t shard = -1)
      : drive_(drive), shard_(shard) {
    if (shard >= 0) {
      drive_->tracer().set_pid(shard + 1);
    }
  }

  Bytes Handle(ByteSpan request_frame) { return Handle(request_frame, 0); }
  // `request_id` ties the server's spans to a transport-allocated id;
  // 0 means mint a fresh one.
  Bytes Handle(ByteSpan request_frame, uint64_t request_id);

  S4Drive* drive() const { return drive_; }
  int32_t shard() const { return shard_; }

 private:
  RpcResponse Dispatch(OpContext& ctx, const RpcRequest& req);
  S4Drive* drive_;
  int32_t shard_ = -1;
};

class LoopbackTransport : public RpcTransport {
 public:
  // `endpoint` names this link in the drive's metric registry. The unlabeled
  // "net.*" counters aggregate every transport bound to the same drive; the
  // labeled "net.<endpoint>.*" set keeps per-link accounting honest when a
  // multi-drive bench or several clients share one registry view.
  LoopbackTransport(S4RpcServer* server, SimClock* clock, NetModel model = NetModel(),
                    const std::string& endpoint = "")
      : server_(server), clock_(clock), model_(model) {
    MetricRegistry& reg = server_->drive()->metrics();
    messages_sent_ = reg.GetCounter("net.messages_sent");
    bytes_sent_ = reg.GetCounter("net.bytes_sent");
    messages_received_ = reg.GetCounter("net.messages_received");
    bytes_received_ = reg.GetCounter("net.bytes_received");
    if (!endpoint.empty()) {
      std::string prefix = "net." + endpoint + ".";
      ep_messages_sent_ = reg.GetCounter(prefix + "messages_sent");
      ep_bytes_sent_ = reg.GetCounter(prefix + "bytes_sent");
      ep_messages_received_ = reg.GetCounter(prefix + "messages_received");
      ep_bytes_received_ = reg.GetCounter(prefix + "bytes_received");
    }
  }

  Result<Bytes> Call(ByteSpan request) override;

 private:
  S4RpcServer* server_;
  SimClock* clock_;
  NetModel model_;
  Counter* messages_sent_;
  Counter* bytes_sent_;
  Counter* messages_received_;
  Counter* bytes_received_;
  // Labeled per-endpoint counters; null when the link is anonymous.
  Counter* ep_messages_sent_ = nullptr;
  Counter* ep_bytes_sent_ = nullptr;
  Counter* ep_messages_received_ = nullptr;
  Counter* ep_bytes_received_ = nullptr;
};

}  // namespace s4

#endif  // S4_SRC_RPC_TRANSPORT_H_
