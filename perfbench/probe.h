// Measurement probes: the benchmark's own span log, host clocks, and timing
// decorators around the system's virtual boundaries (FileSystemApi,
// S4ClientApi, RpcTransport). The decorators forward every call unchanged
// and charge no simulated time, so a traced run's simulated results equal an
// untraced run's exactly.
#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/fs/file_system.h"
#include "src/rpc/client.h"
#include "src/rpc/transport.h"
#include "src/sim/sim_clock.h"

namespace perfbench {

using s4::SimDuration;
using s4::SimTime;

// Monotonic wall clock for span host times (nanoseconds).
int64_t HostNowNs();
// CPU time of the whole process, all threads (seconds).
double ProcessCpuSeconds();
// Peak resident set size of the process so far (MiB).
double PeakRssMb();

// Host-speed normalization. Other tenants of the machine (SMT siblings,
// shared caches, memory bandwidth) change how much CPU time the same work
// takes, by 25-30% over minutes on a shared 4-vCPU Xeon VM. HostTimer brackets
// each interval with runs of a fixed calibration kernel (CRC table lookups,
// ordered-map inserts and lookups, buffer copies) and scales the interval's
// process CPU time by kCalibrationReferenceS over the kernel's CPU time, so
// host figures are reference-host seconds and the machine's drift cancels.
class HostTimer {
 public:
  // The kernel's CPU time on that VM when quiet; only sets the unit.
  static constexpr double kCalibrationReferenceS = 0.004;

  void Start();
  // Scaled CPU seconds since Start() or the previous Lap(), all threads. The
  // closing calibration also opens the next interval.
  double Lap();
  // Unscaled CPU seconds of all laps so far.
  double raw_total() const { return raw_total_; }

 private:
  double scale_ = 1;  // from the calibration that opened the interval
  double cpu_ = 0;
  double raw_total_ = 0;
};

// Scaled process CPU at fixed points of a measured phase: Mark() after the
// same op count in every repetition, and once at the end. Per-chunk costs can
// then be compared across repetitions, which filters out bursts of host
// interference.
class CpuMarks {
 public:
  void Start();
  void Mark();
  // Cumulative scaled CPU seconds since Start() at each mark.
  const std::vector<double>& marks() const { return marks_; }
  double raw_total() const { return timer_.raw_total(); }

 private:
  HostTimer timer_;
  std::vector<double> marks_;
};

// Aggregate of every span sharing one name.
struct SpanAgg {
  uint64_t calls = 0;
  SimDuration sim = 0;
  SimDuration sim_self = 0;  // minus the part covered by child spans
  int64_t host_ns = 0;
  int64_t host_self_ns = 0;
};

// Single-threaded span recorder. Spans nest by call order: the span open when
// another begins is its parent, and all spans under one top-level span share
// its request id. Aggregates are kept for every span; the spans themselves
// are kept up to kMaxKept and written out as chrome-trace JSON.
class SpanLog {
 public:
  static constexpr size_t kMaxKept = 1 << 17;

  explicit SpanLog(const s4::SimClock* clock) : clock_(clock) {}

  // Spans are recorded only while active (the measured phase).
  bool active() const { return active_; }
  void set_active(bool on) { active_ = on; }

  // `name` must be a string literal: spans never own their names.
  void Begin(const char* name, int32_t shard = -1);
  void End();

  // Sum of the aggregates whose name starts with `prefix`.
  SpanAgg Sum(const std::string& prefix) const;
  // Simulated time inside "rpc.transport" spans, per shard index.
  const std::map<int32_t, SimDuration>& transport_sim_by_shard() const {
    return transport_by_shard_;
  }
  // Simulated time covered by top-level spans.
  SimDuration top_level_sim() const { return top_level_sim_; }

  // {"traceEvents": [...]}: the layout s4::Tracer::ToChromeJson uses (ts/dur
  // in simulated microseconds, tid = request id), plus parent index and host
  // nanoseconds in each event's args.
  bool WriteChromeJson(const std::string& path) const;

 private:
  struct Span {
    const char* name = "";
    int32_t shard = -1;
    int64_t parent = -1;  // index into kept_, -1 = top level or not kept
    uint64_t request = 0;
    SimTime sim_start = 0;
    SimTime sim_end = 0;
    int64_t host_start = 0;
    int64_t host_end = 0;
  };
  struct Open {
    int64_t index = -1;  // slot in kept_, -1 when over the cap
    Span span;
    SimDuration child_sim = 0;
    int64_t child_host = 0;
  };

  const s4::SimClock* clock_;
  bool active_ = false;
  uint64_t next_request_ = 0;
  std::vector<Open> stack_;
  std::vector<Span> kept_;
  uint64_t dropped_ = 0;
  std::unordered_map<const char*, SpanAgg> agg_;
  std::map<int32_t, SimDuration> transport_by_shard_;
  SimDuration top_level_sim_ = 0;
};

// RAII span; a no-op when the log is null or inactive.
class Timed {
 public:
  Timed(SpanLog* log, const char* name, int32_t shard = -1)
      : log_(log != nullptr && log->active() ? log : nullptr) {
    if (log_ != nullptr) log_->Begin(name, shard);
  }
  ~Timed() {
    if (log_ != nullptr) log_->End();
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  SpanLog* log_;
};

// FileSystemApi decorator. Always records the simulated latency of every call
// while sampling is on (the benchmark's per-call samples); opens "fs.<Op>"
// spans when a span log is attached.
class FsProbe : public s4::FileSystemApi {
 public:
  FsProbe(s4::FileSystemApi* inner, const s4::SimClock* clock, SpanLog* log)
      : inner_(inner), clock_(clock), log_(log) {}

  static constexpr size_t kCallsPerCpuMark = 2000;

  // Sampling on also starts the CPU marks (one every kCallsPerCpuMark calls).
  void set_sampling(bool on) {
    if (on) cpu_marks_.Start();
    sampling_ = on;
  }
  const std::vector<SimDuration>& samples() const { return samples_; }
  CpuMarks& cpu_marks() { return cpu_marks_; }
  uint64_t failed() const { return failed_; }
  uint64_t bytes_written() const { return bytes_written_; }

  s4::Result<s4::FileHandle> Root() override;
  s4::Result<s4::FileHandle> Lookup(s4::FileHandle dir, const std::string& name) override;
  s4::Result<s4::FileHandle> CreateFile(s4::FileHandle dir, const std::string& name,
                                        uint32_t mode) override;
  s4::Result<s4::FileHandle> Mkdir(s4::FileHandle dir, const std::string& name,
                                   uint32_t mode) override;
  s4::Status Remove(s4::FileHandle dir, const std::string& name) override;
  s4::Status Rmdir(s4::FileHandle dir, const std::string& name) override;
  s4::Status Rename(s4::FileHandle from_dir, const std::string& from_name,
                    s4::FileHandle to_dir, const std::string& to_name) override;
  s4::Result<s4::Bytes> ReadFile(s4::FileHandle file, uint64_t offset,
                                 uint64_t length) override;
  s4::Status WriteFile(s4::FileHandle file, uint64_t offset, s4::ByteSpan data) override;
  s4::Result<s4::FileAttr> GetAttr(s4::FileHandle file) override;
  s4::Status SetSize(s4::FileHandle file, uint64_t size) override;
  s4::Result<std::vector<s4::DirEntry>> ReadDir(s4::FileHandle dir) override;
  s4::Result<s4::FileHandle> Symlink(s4::FileHandle dir, const std::string& name,
                                     const std::string& target) override;
  s4::Result<std::string> ReadLink(s4::FileHandle link) override;

 private:
  template <typename F>
  auto Run(const char* span_name, F&& call) -> decltype(call());

  s4::FileSystemApi* inner_;
  const s4::SimClock* clock_;
  SpanLog* log_;
  bool sampling_ = false;
  std::vector<SimDuration> samples_;
  CpuMarks cpu_marks_;
  uint64_t failed_ = 0;
  uint64_t bytes_written_ = 0;
};

// S4ClientApi decorator: one span per Call / CallBatch. Wrapping an S4Client
// the spans are "rpc.client.*"; wrapping a ShardRouter they are "cluster.*".
class ClientProbe : public s4::S4ClientApi {
 public:
  ClientProbe(s4::S4ClientApi* inner, SpanLog* log, bool cluster)
      : inner_(inner), log_(log), cluster_(cluster) {}

  const s4::Credentials& creds() const override { return inner_->creds(); }
  void set_creds(s4::Credentials creds) override { inner_->set_creds(creds); }
  s4::Result<s4::RpcResponse> Call(s4::RpcRequest req) override;
  s4::Result<std::vector<s4::RpcResponse>> CallBatch(std::vector<s4::RpcRequest> reqs) override;

  // Counted while the span log is active.
  uint64_t calls() const { return calls_; }
  uint64_t data_writes() const { return data_writes_; }  // Write/Append/Truncate requests

 private:
  void Count(const s4::RpcRequest& req);

  s4::S4ClientApi* inner_;
  SpanLog* log_;
  bool cluster_;
  uint64_t calls_ = 0;
  uint64_t data_writes_ = 0;
};

// RpcTransport decorator: one "rpc.transport" span per frame round trip,
// tagged with the shard index (-1 for a standalone drive).
class TransportProbe : public s4::RpcTransport {
 public:
  TransportProbe(s4::RpcTransport* inner, SpanLog* log, int32_t shard)
      : inner_(inner), log_(log), shard_(shard) {}

  s4::Result<s4::Bytes> Call(s4::ByteSpan request) override;

  // Counted while the span log is active.
  uint64_t calls() const { return calls_; }
  uint64_t request_bytes() const { return request_bytes_; }
  uint64_t response_bytes() const { return response_bytes_; }

 private:
  s4::RpcTransport* inner_;
  SpanLog* log_;
  int32_t shard_;
  uint64_t calls_ = 0;
  uint64_t request_bytes_ = 0;
  uint64_t response_bytes_ = 0;
};

// Sorted-sample percentiles (linear interpolation between closest ranks).
struct Percentiles {
  explicit Percentiles(std::vector<SimDuration> samples);
  size_t count() const { return sorted_.size(); }
  // Quantile q in [0, 1], in simulated milliseconds; 0 when empty.
  double Ms(double q) const;
  // True when at least ten samples lie beyond quantile q.
  bool Supports(double q) const;

 private:
  std::vector<SimDuration> sorted_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
