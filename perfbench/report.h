// Derivation of the per-layer metrics and the correctness gates shared by
// every workload.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <string>
#include <vector>

#include "perfbench/adapter.h"
#include "perfbench/probe.h"
#include "perfbench/workload.h"
#include "src/drive/s4_drive.h"
#include "src/rpc/transport.h"

namespace perfbench {

struct LayerInputs {
  Counters delta;  // counter deltas over the measured phase
  const SpanLog* log = nullptr;
  uint64_t ops = 0;
  SimDuration sim_elapsed = 0;
  uint64_t user_bytes_written = 0;
  // The S4ClientApi the file system (or workload) calls, an S4Client or a
  // ShardRouter; null when absent.
  const ClientProbe* client = nullptr;
  std::vector<const TransportProbe*> transports;
};

// Every per-layer metric name with its unit; layers a workload does not
// exercise read 0.
MetricMap LayerMetrics(const LayerInputs& in);

// Workload-specific simulated latencies and sample counts (history reads,
// degraded reads, all ops) from a repetition's samples.
void AddSampleMetrics(const RepResult& rep, MetricMap* out);

// End-of-run audit gate for one drive: an AuditChallenge from the genesis
// state must verify, and the chain must hold at least one record per op the
// drive executed. Issued as admin over `transport`; failures are appended.
void CheckAudit(s4::S4Drive* drive, s4::RpcTransport* transport, const std::string& label,
                std::vector<std::string>* failures);

// Chrome trace + the measured-phase attribution share shared by the traced
// paths of every workload.
void FinishTrace(const SpanLog& log, const RepOptions& opts, RepResult* rep);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
