// Fuzz target: the RPC frame codecs — the drive's outermost untrusted
// surface. A hostile client controls every byte here, so Decode must never
// crash, hang, or over-read, and anything it accepts must re-encode into a
// frame it accepts again (round-trip closure).
#include <cstddef>
#include <cstdint>

#include "src/rpc/messages.h"
#include "src/util/check.h"

using s4::Bytes;
using s4::ByteSpan;

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  ByteSpan frame(data, size);

  auto req = s4::RpcRequest::Decode(frame);
  if (req.ok()) {
    Bytes re = req->Encode();
    auto again = s4::RpcRequest::Decode(re);
    S4_CHECK(again.ok());
    S4_CHECK(again->op == req->op);
    S4_CHECK(again->object == req->object);
    S4_CHECK(again->at == req->at);
    S4_CHECK(again->sync == req->sync);
    S4_CHECK(again->link == req->link);
    S4_CHECK(again->data == req->data);
  }

  auto resp = s4::RpcResponse::Decode(frame);
  if (resp.ok()) {
    Bytes re = resp->Encode();
    auto again = s4::RpcResponse::Decode(re);
    S4_CHECK(again.ok());
    S4_CHECK(again->code == resp->code);
    S4_CHECK(again->data == resp->data);
  }

  // Batch envelopes: the same bytes, interpreted as a vectored frame. The
  // magic peek must agree with the full decode's framing acceptance, and an
  // accepted batch obeys the sub-request cap and the link rule.
  (void)s4::IsBatchRequestFrame(frame);  // must not crash; cheap peek only
  auto batch = s4::RpcBatchRequest::Decode(frame);
  if (batch.ok()) {
    S4_CHECK(batch->subs.size() <= s4::RpcBatchRequest::kMaxSubRequests);
    S4_CHECK(s4::CheckBatchLinks(batch->subs).ok());
    Bytes re = batch->Encode();
    S4_CHECK(s4::IsBatchRequestFrame(re));
    auto again = s4::RpcBatchRequest::Decode(re);
    S4_CHECK(again.ok());
    S4_CHECK(again->subs.size() == batch->subs.size());
    for (size_t i = 0; i < batch->subs.size(); ++i) {
      S4_CHECK(again->subs[i].op == batch->subs[i].op);
      S4_CHECK(again->subs[i].sync == batch->subs[i].sync);
      S4_CHECK(again->subs[i].link == batch->subs[i].link);
      S4_CHECK(again->subs[i].data == batch->subs[i].data);
    }
  }
  auto bresp = s4::RpcBatchResponse::Decode(frame);
  if (bresp.ok()) {
    Bytes re = bresp->Encode();
    auto again = s4::RpcBatchResponse::Decode(re);
    S4_CHECK(again.ok());
    S4_CHECK(again->subs.size() == bresp->subs.size());
  }
  return 0;
}
