#include "src/rpc/transport.h"

namespace s4 {
namespace {

RpcResponse StatusResponse(const Status& s) {
  RpcResponse resp;
  resp.code = s.code();
  resp.message = s.message();
  return resp;
}

}  // namespace

Result<Bytes> LoopbackTransport::Call(ByteSpan request) {
  S4Drive* drive = server_->drive();
  uint64_t request_id = drive->tracer().NextRequestId();
  OpContext net_ctx;
  net_ctx.request_id = request_id;
  net_ctx.start_time = clock_->Now();
  net_ctx.clock = clock_;
  net_ctx.tracer = &drive->tracer();

  {
    ScopedSpan span(&net_ctx, "net.request");
    clock_->Advance(model_.TransferCost(request.size()));
  }
  messages_sent_->Inc();
  bytes_sent_->Add(request.size());
  if (ep_messages_sent_ != nullptr) {
    ep_messages_sent_->Inc();
    ep_bytes_sent_->Add(request.size());
  }

  Bytes response = server_->Handle(request, request_id);

  {
    ScopedSpan span(&net_ctx, "net.response");
    clock_->Advance(model_.TransferCost(response.size()));
  }
  messages_received_->Inc();
  bytes_received_->Add(response.size());
  if (ep_messages_received_ != nullptr) {
    ep_messages_received_->Inc();
    ep_bytes_received_->Add(response.size());
  }
  return response;
}

Bytes S4RpcServer::Handle(ByteSpan request_frame, uint64_t request_id) {
  auto reject = [&](const Status& s) {
    OpContext ctx = drive_->MakeContext(Credentials{}, RpcOp::kInvalid);
    ctx.shard = shard_;
    if (request_id != 0) {
      ctx.request_id = request_id;
    }
    ScopedSpan span(&ctx, "rpc.reject");
    drive_->AuditRejectedFrame(ctx, s);
    return StatusResponse(s).Encode();
  };

  if (request_frame.size() > kMaxFrameBytes) {
    return reject(Status::InvalidArgument("rpc frame exceeds size cap"));
  }
  if (IsBatchRequestFrame(request_frame)) {
    auto batch = RpcBatchRequest::Decode(request_frame);
    if (!batch.ok()) {
      // Rejected as a unit: no sub-op has been dispatched yet, so a hostile
      // batch is never partially applied. The reject path audits kInvalid.
      return reject(batch.status());
    }
    // One OpContext for the whole round-trip; sub-ops update creds/op as
    // they run so their spans, metrics and audit records stay per-op while
    // sharing the envelope's request id.
    OpContext ctx = drive_->MakeContext(batch->subs.front().creds, RpcOp::kBatch);
    ctx.shard = shard_;
    if (request_id != 0) {
      ctx.request_id = request_id;
    }
    SimTime batch_start = ctx.start_time;
    RpcBatchResponse resp;
    resp.subs.reserve(batch->subs.size());
    {
      ScopedSpan span(&ctx, "rpc.batch");
      for (RpcRequest& sub : batch->subs) {
        ctx.creds = sub.creds;
        ctx.op = sub.op;
        if (sub.link) {
          // Decode admitted the link only after a first sub-request.
          if (Status skipped = ResolveLink(resp.subs.back(), &sub); !skipped.ok()) {
            drive_->AuditSkippedOp(ctx, sub.op, sub.object, skipped);
            resp.subs.push_back(StatusResponse(skipped));
            continue;
          }
        }
        resp.subs.push_back(Dispatch(ctx, sub));
      }
    }
    ctx.creds = batch->subs.front().creds;
    ctx.op = RpcOp::kBatch;
    drive_->AuditBatchFrame(ctx, batch->subs.size(), batch_start);
    return resp.Encode();
  }
  auto req = RpcRequest::Decode(request_frame);
  if (!req.ok()) {
    return reject(req.status());
  }
  OpContext ctx = drive_->MakeContext(req->creds, req->op);
  ctx.shard = shard_;
  if (request_id != 0) {
    ctx.request_id = request_id;
  }
  ScopedSpan span(&ctx, "rpc.dispatch");
  return Dispatch(ctx, *req).Encode();
}

RpcResponse S4RpcServer::Dispatch(OpContext& ctx, const RpcRequest& req) {
  RpcResponse resp;
  auto set_status = [&resp](const Status& s) {
    resp.code = s.code();
    resp.message = s.message();
  };

  switch (req.op) {
    case RpcOp::kCreate: {
      auto r = drive_->Create(ctx, req.data);
      set_status(r.status());
      if (r.ok()) {
        resp.value = *r;
      }
      break;
    }
    case RpcOp::kDelete:
      set_status(drive_->Delete(ctx, req.object));
      break;
    case RpcOp::kRead: {
      auto r = drive_->Read(ctx, req.object, req.offset, req.length, req.at);
      set_status(r.status());
      if (r.ok()) {
        resp.data = std::move(*r);
      }
      break;
    }
    case RpcOp::kWrite:
      set_status(drive_->Write(ctx, req.object, req.offset, req.data));
      break;
    case RpcOp::kXorWrite:
      set_status(drive_->XorWrite(ctx, req.object, req.offset, req.data));
      break;
    case RpcOp::kAppend: {
      auto r = drive_->Append(ctx, req.object, req.data);
      set_status(r.status());
      if (r.ok()) {
        resp.value = *r;
      }
      break;
    }
    case RpcOp::kTruncate:
      set_status(drive_->Truncate(ctx, req.object, req.length));
      break;
    case RpcOp::kGetAttr: {
      auto r = drive_->GetAttr(ctx, req.object, req.at);
      set_status(r.status());
      if (r.ok()) {
        resp.attrs = std::move(*r);
      }
      break;
    }
    case RpcOp::kSetAttr:
      set_status(drive_->SetAttr(ctx, req.object, req.data));
      break;
    case RpcOp::kGetAclByUser: {
      auto r = drive_->GetAclByUser(ctx, req.object, req.user, req.at);
      set_status(r.status());
      if (r.ok()) {
        resp.acl_entry = *r;
      }
      break;
    }
    case RpcOp::kGetAclByIndex: {
      auto r = drive_->GetAclByIndex(ctx, req.object, req.index, req.at);
      set_status(r.status());
      if (r.ok()) {
        resp.acl_entry = *r;
      }
      break;
    }
    case RpcOp::kSetAcl:
      set_status(drive_->SetAcl(ctx, req.object, req.acl_entry));
      break;
    case RpcOp::kPCreate:
      set_status(drive_->PCreate(ctx, req.name, req.object));
      break;
    case RpcOp::kPDelete:
      set_status(drive_->PDelete(ctx, req.name));
      break;
    case RpcOp::kPList: {
      auto r = drive_->PList(ctx, req.at);
      set_status(r.status());
      if (r.ok()) {
        resp.partitions = std::move(*r);
      }
      break;
    }
    case RpcOp::kPMount: {
      auto r = drive_->PMount(ctx, req.name, req.at);
      set_status(r.status());
      if (r.ok()) {
        resp.value = *r;
      }
      break;
    }
    case RpcOp::kSync:
      set_status(drive_->Sync(ctx));
      break;
    case RpcOp::kFlush:
      set_status(drive_->Flush(ctx, req.from, req.to));
      break;
    case RpcOp::kFlushObject:
      set_status(drive_->FlushObject(ctx, req.object, req.from, req.to));
      break;
    case RpcOp::kSetWindow:
      set_status(drive_->SetWindow(ctx, req.window));
      break;
    case RpcOp::kGetVersionList: {
      auto r = drive_->GetVersionList(ctx, req.object);
      set_status(r.status());
      if (r.ok()) {
        for (const auto& v : *r) {
          resp.versions.emplace_back(v.time, static_cast<uint8_t>(v.cause));
        }
      }
      break;
    }
    case RpcOp::kAuditChallenge: {
      auto r = drive_->AuditChallenge(ctx, req.offset);
      set_status(r.status());
      if (r.ok()) {
        // Proof wire form: claimed chain end (seq, offset, link) followed by
        // the raw whole-frame bytes for this round.
        Encoder enc(20 + r->frames.size());
        enc.PutU64(r->end_state.next_seq);
        enc.PutU64(r->end_state.next_offset);
        enc.PutU32(r->end_state.link);
        enc.PutBytes(r->frames);
        resp.data = enc.Take();
      }
      break;
    }
    case RpcOp::kInvalid:
    default:
      // Decode rejects out-of-range op bytes, so this is unreachable from the
      // wire; keep the error response anyway so no future gap can crash.
      set_status(Status::InvalidArgument("unknown rpc op"));
      break;
  }
  if (req.sync && resp.ok()) {
    // The op's own Sync, in its round trip: audited and timed as a Sync of
    // the same request. A failed op has nothing new to make durable.
    ctx.op = RpcOp::kSync;
    set_status(drive_->Sync(ctx));
    ctx.op = req.op;
  }
  return resp;
}

}  // namespace s4
