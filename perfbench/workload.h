// One repetition of a workload: set-up, measured phase, correctness gates.
// Each workload builds its own system from scratch, so repetitions are
// independent and (on the single-threaded workloads) simulate identically.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/probe.h"

namespace perfbench {

struct Metric {
  double value = 0;
  const char* unit = "";
};
using MetricMap = std::map<std::string, Metric>;

struct RepOptions {
  uint64_t seed = 42;
  // Stop right after set-up: an extra set-up-time sample.
  bool setup_only = false;
  // Install the span decorators and derive the per-layer metrics.
  bool traced = false;
  // Chrome-trace output path for a traced repetition ("" = none).
  std::string trace_out;
};

struct RepResult {
  // Host figures are HostTimer-scaled process CPU seconds, all threads.
  double setup_cpu_s = 0;  // from the start of set-up to the measured phase
  // Since the start of the measured phase, taken after the same op counts in
  // every repetition; the last is the phase end.
  std::vector<double> cpu_marks;
  double raw_cpu_s = 0;  // unscaled process CPU of the measured phase
  uint64_t ops = 0;           // workload ops completed in the measured phase
  SimDuration sim_elapsed = 0;
  // Per-call simulated latency samples of the measured phase.
  std::vector<SimDuration> op_lat;
  std::vector<SimDuration> history_lat;   // forensics_mix: time-based reads
  std::vector<SimDuration> degraded_lat;  // array_postmark: reads of files on the failed shard
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double space_amp = 0;
  std::vector<std::string> gate_failures;  // empty = every correctness gate passed
  // False when simulated results depend on host thread scheduling.
  bool deterministic = true;
  MetricMap layers;  // traced repetitions only

  double measured_cpu_s() const { return cpu_marks.empty() ? 0 : cpu_marks.back(); }
};

RepResult RunPostmarkNas(const RepOptions& opts);
RepResult RunForensicsMix(const RepOptions& opts);
RepResult RunArrayPostmark(const RepOptions& opts);
RepResult RunExecutorMix(const RepOptions& opts);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
