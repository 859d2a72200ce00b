// OpContext: the per-request spine threaded through every layer.
//
// One OpContext is created where a request enters the system (the
// S4RpcServer boundary, or directly by S4Drive for in-process callers and
// background work like the cleaner). It carries identity (request id,
// credentials, op), the sim-time start, and accumulation slots that lower
// layers (SegmentWriter, BlockCache, BlockDevice) charge so the cost of a
// request can be attributed to the layer that incurred it.
//
// Lower layers accept `OpContext*` and treat nullptr as "untracked" — no
// layer requires a context to function.
#ifndef S4_SRC_OBS_OP_CONTEXT_H_
#define S4_SRC_OBS_OP_CONTEXT_H_

#include <cstdint>

#include "src/audit/audit_log.h"
#include "src/object/types.h"
#include "src/obs/trace.h"
#include "src/sim/sim_clock.h"
#include "src/util/time.h"

namespace s4 {

struct OpContext {
  uint64_t request_id = 0;
  Credentials creds;
  RpcOp op = RpcOp::kRead;
  SimTime start_time = 0;
  // Which shard of a multi-drive array is serving this request; -1 for a
  // standalone drive. Stamped at the S4RpcServer boundary.
  int32_t shard = -1;

  // Wiring; null members degrade gracefully (spans become no-ops).
  SimClock* clock = nullptr;
  Tracer* tracer = nullptr;
  uint8_t span_depth = 0;  // current nesting level, maintained by ScopedSpan

  // Per-layer cost attribution, filled in as the request descends.
  SimDuration cpu_time = 0;   // drive front-end CPU charged to this request
  SimDuration disk_time = 0;  // modelled disk time (reads + writes)
  uint64_t disk_reads = 0;    // sectors read on behalf of this request
  uint64_t disk_writes = 0;   // sectors written on behalf of this request
};

// RAII span: opens at construction, records a TraceEvent at destruction.
// No-op when ctx (or its tracer/clock) is null, so deep layers can create
// spans unconditionally.
class ScopedSpan {
 public:
  ScopedSpan(OpContext* ctx, const char* name) : ctx_(ctx), name_(name) {
    if (ctx_ == nullptr || ctx_->tracer == nullptr || ctx_->clock == nullptr) {
      ctx_ = nullptr;
      return;
    }
    start_ = ctx_->clock->Now();
    depth_ = ctx_->span_depth;
    ++ctx_->span_depth;
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() {
    if (ctx_ == nullptr) return;
    --ctx_->span_depth;
    ctx_->tracer->Record(name_, ctx_->request_id, start_, ctx_->clock->Now() - start_,
                         depth_);
  }

 private:
  OpContext* ctx_;
  const char* name_;
  SimTime start_ = 0;
  uint8_t depth_ = 0;
};

}  // namespace s4

#endif  // S4_SRC_OBS_OP_CONTEXT_H_
