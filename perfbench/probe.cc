#include "perfbench/probe.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <map>

namespace perfbench {

int64_t HostNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// --- HostTimer / CpuMarks ------------------------------------------------------

namespace {

volatile uint64_t g_calibration_sink = 0;

// CPU seconds of one run of the calibration kernel.
double CalibrationCpuSeconds() {
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(256);
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0x82F63B78u & (0u - (c & 1u)));
      t[i] = c;
    }
    return t;
  }();
  static const std::vector<uint8_t> buf = [] {
    std::vector<uint8_t> b(64 << 10);
    uint64_t x = 1;
    for (uint8_t& v : b) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      v = static_cast<uint8_t>(x >> 56);
    }
    return b;
  }();
  const double start = ProcessCpuSeconds();
  uint32_t crc = ~0u;
  for (int pass = 0; pass < 8; ++pass) {
    for (uint8_t b : buf) crc = table[(crc ^ b) & 0xff] ^ (crc >> 8);
  }
  std::map<uint64_t, uint64_t> map;
  uint64_t x = crc;
  uint64_t sum = 0;
  for (int i = 0; i < 8192; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    map[x >> 20] = static_cast<uint64_t>(i);
  }
  for (int i = 0; i < 8192; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    auto it = map.lower_bound(x >> 20);
    if (it != map.end()) sum += it->second;
  }
  std::vector<uint8_t> copy;
  for (int pass = 0; pass < 16; ++pass) {
    copy.assign(buf.begin(), buf.end());
    sum += copy[static_cast<size_t>(pass) * 97];
  }
  const double cpu = ProcessCpuSeconds() - start;
  g_calibration_sink = g_calibration_sink + crc + sum;
  return cpu;
}

double SpeedScale() { return HostTimer::kCalibrationReferenceS / CalibrationCpuSeconds(); }

}  // namespace

void HostTimer::Start() {
  raw_total_ = 0;
  scale_ = SpeedScale();
  cpu_ = ProcessCpuSeconds();
}

double HostTimer::Lap() {
  const double cpu = ProcessCpuSeconds() - cpu_;
  const double closing = SpeedScale();
  const double scaled = cpu * (scale_ + closing) / 2;
  raw_total_ += cpu;
  scale_ = closing;
  cpu_ = ProcessCpuSeconds();
  return scaled;
}

void CpuMarks::Start() {
  marks_.clear();
  timer_.Start();
}

void CpuMarks::Mark() {
  marks_.push_back((marks_.empty() ? 0 : marks_.back()) + timer_.Lap());
}

// --- SpanLog -----------------------------------------------------------------

void SpanLog::Begin(const char* name, int32_t shard) {
  Open open;
  open.span.name = name;
  open.span.shard = shard;
  if (stack_.empty()) {
    open.span.request = ++next_request_;
  } else {
    open.span.request = stack_.back().span.request;
    open.span.parent = stack_.back().index;
  }
  if (kept_.size() < kMaxKept) {
    open.index = static_cast<int64_t>(kept_.size());
    kept_.emplace_back();
  } else {
    ++dropped_;
  }
  open.span.sim_start = clock_->Now();
  open.span.host_start = HostNowNs();
  stack_.push_back(open);
}

void SpanLog::End() {
  Open open = stack_.back();
  stack_.pop_back();
  open.span.host_end = HostNowNs();
  open.span.sim_end = clock_->Now();
  const SimDuration sim = open.span.sim_end - open.span.sim_start;
  const int64_t host = open.span.host_end - open.span.host_start;

  SpanAgg& agg = agg_[open.span.name];
  ++agg.calls;
  agg.sim += sim;
  agg.sim_self += sim - open.child_sim;
  agg.host_ns += host;
  agg.host_self_ns += host - open.child_host;
  if (open.span.shard >= 0) {
    transport_by_shard_[open.span.shard] += sim;
  }
  if (stack_.empty()) {
    top_level_sim_ += sim;
  } else {
    stack_.back().child_sim += sim;
    stack_.back().child_host += host;
  }
  if (open.index >= 0) {
    kept_[static_cast<size_t>(open.index)] = open.span;
  }
}

SpanAgg SpanLog::Sum(const std::string& prefix) const {
  SpanAgg sum;
  for (const auto& [name, agg] : agg_) {
    if (std::string(name).rfind(prefix, 0) != 0) continue;
    sum.calls += agg.calls;
    sum.sim += agg.sim;
    sum.sim_self += agg.sim_self;
    sum.host_ns += agg.host_ns;
    sum.host_self_ns += agg.host_self_ns;
  }
  return sum;
}

bool SpanLog::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"traceEvents\": [");
  for (size_t i = 0; i < kept_.size(); ++i) {
    const Span& s = kept_[i];
    std::fprintf(f,
                 "%s\n  {\"name\": \"%s\", \"ph\": \"X\", \"ts\": %lld, \"dur\": %lld, "
                 "\"pid\": %d, \"tid\": %llu, \"args\": {\"span\": %zu, \"parent\": %lld, "
                 "\"host_start_ns\": %lld, \"host_dur_ns\": %lld}}",
                 i == 0 ? "" : ",", s.name, static_cast<long long>(s.sim_start),
                 static_cast<long long>(s.sim_end - s.sim_start), s.shard + 2,
                 static_cast<unsigned long long>(s.request), i,
                 static_cast<long long>(s.parent), static_cast<long long>(s.host_start),
                 static_cast<long long>(s.host_end - s.host_start));
  }
  std::fprintf(f, "\n], \"otherData\": {\"dropped_spans\": %llu}}\n",
               static_cast<unsigned long long>(dropped_));
  return std::fclose(f) == 0;
}

// --- FsProbe -------------------------------------------------------------------

template <typename F>
auto FsProbe::Run(const char* span_name, F&& call) -> decltype(call()) {
  Timed span(log_, span_name);
  const SimTime start = clock_->Now();
  auto result = call();
  if (sampling_) {
    samples_.push_back(clock_->Now() - start);
    if (!result.ok()) ++failed_;
    if (samples_.size() % kCallsPerCpuMark == 0) cpu_marks_.Mark();
  }
  return result;
}

s4::Result<s4::FileHandle> FsProbe::Root() {
  return Run("fs.Root", [&] { return inner_->Root(); });
}
s4::Result<s4::FileHandle> FsProbe::Lookup(s4::FileHandle dir, const std::string& name) {
  return Run("fs.Lookup", [&] { return inner_->Lookup(dir, name); });
}
s4::Result<s4::FileHandle> FsProbe::CreateFile(s4::FileHandle dir, const std::string& name,
                                               uint32_t mode) {
  return Run("fs.CreateFile", [&] { return inner_->CreateFile(dir, name, mode); });
}
s4::Result<s4::FileHandle> FsProbe::Mkdir(s4::FileHandle dir, const std::string& name,
                                          uint32_t mode) {
  return Run("fs.Mkdir", [&] { return inner_->Mkdir(dir, name, mode); });
}
s4::Status FsProbe::Remove(s4::FileHandle dir, const std::string& name) {
  return Run("fs.Remove", [&] { return inner_->Remove(dir, name); });
}
s4::Status FsProbe::Rmdir(s4::FileHandle dir, const std::string& name) {
  return Run("fs.Rmdir", [&] { return inner_->Rmdir(dir, name); });
}
s4::Status FsProbe::Rename(s4::FileHandle from_dir, const std::string& from_name,
                           s4::FileHandle to_dir, const std::string& to_name) {
  return Run("fs.Rename", [&] { return inner_->Rename(from_dir, from_name, to_dir, to_name); });
}
s4::Result<s4::Bytes> FsProbe::ReadFile(s4::FileHandle file, uint64_t offset, uint64_t length) {
  return Run("fs.ReadFile", [&] { return inner_->ReadFile(file, offset, length); });
}
s4::Status FsProbe::WriteFile(s4::FileHandle file, uint64_t offset, s4::ByteSpan data) {
  if (sampling_) bytes_written_ += data.size();
  return Run("fs.WriteFile", [&] { return inner_->WriteFile(file, offset, data); });
}
s4::Result<s4::FileAttr> FsProbe::GetAttr(s4::FileHandle file) {
  return Run("fs.GetAttr", [&] { return inner_->GetAttr(file); });
}
s4::Status FsProbe::SetSize(s4::FileHandle file, uint64_t size) {
  return Run("fs.SetSize", [&] { return inner_->SetSize(file, size); });
}
s4::Result<std::vector<s4::DirEntry>> FsProbe::ReadDir(s4::FileHandle dir) {
  return Run("fs.ReadDir", [&] { return inner_->ReadDir(dir); });
}
s4::Result<s4::FileHandle> FsProbe::Symlink(s4::FileHandle dir, const std::string& name,
                                            const std::string& target) {
  return Run("fs.Symlink", [&] { return inner_->Symlink(dir, name, target); });
}
s4::Result<std::string> FsProbe::ReadLink(s4::FileHandle link) {
  return Run("fs.ReadLink", [&] { return inner_->ReadLink(link); });
}

// --- ClientProbe / TransportProbe ---------------------------------------------

void ClientProbe::Count(const s4::RpcRequest& req) {
  if (req.op == s4::RpcOp::kWrite || req.op == s4::RpcOp::kAppend ||
      req.op == s4::RpcOp::kTruncate) {
    ++data_writes_;
  }
}

s4::Result<s4::RpcResponse> ClientProbe::Call(s4::RpcRequest req) {
  if (log_->active()) {
    ++calls_;
    Count(req);
  }
  Timed span(log_, cluster_ ? "cluster.Call" : "rpc.client.Call");
  return inner_->Call(std::move(req));
}

s4::Result<std::vector<s4::RpcResponse>> ClientProbe::CallBatch(
    std::vector<s4::RpcRequest> reqs) {
  if (log_->active()) {
    ++calls_;
    for (const s4::RpcRequest& req : reqs) Count(req);
  }
  Timed span(log_, cluster_ ? "cluster.CallBatch" : "rpc.client.CallBatch");
  return inner_->CallBatch(std::move(reqs));
}

s4::Result<s4::Bytes> TransportProbe::Call(s4::ByteSpan request) {
  Timed span(log_, "rpc.transport", shard_);
  s4::Result<s4::Bytes> response = inner_->Call(request);
  if (log_->active()) {
    ++calls_;
    request_bytes_ += request.size();
    if (response.ok()) response_bytes_ += response->size();
  }
  return response;
}

// --- Percentiles ---------------------------------------------------------------

Percentiles::Percentiles(std::vector<SimDuration> samples) : sorted_(std::move(samples)) {
  std::sort(sorted_.begin(), sorted_.end());
}

double Percentiles::Ms(double q) const {
  if (sorted_.empty()) {
    return 0;
  }
  // Samples are whole simulated microseconds and tie heavily, so each value v
  // is read as spread evenly over [v - 0.5, v + 0.5): the quantile is
  // interpolated inside the run of samples equal to the one at rank q * n.
  const double rank = q * static_cast<double>(sorted_.size());
  const size_t at = std::min(static_cast<size_t>(rank), sorted_.size() - 1);
  const auto [lo, hi] = std::equal_range(sorted_.begin(), sorted_.end(), sorted_[at]);
  const double first = static_cast<double>(lo - sorted_.begin());
  const double within = (rank - first) / static_cast<double>(hi - lo);
  return (static_cast<double>(sorted_[at]) - 0.5 + std::min(within, 1.0)) / 1000.0;
}

bool Percentiles::Supports(double q) const {
  // The epsilon absorbs rounding in (1 - q): 1000 samples support p99.
  return (1.0 - q) * static_cast<double>(sorted_.size()) >= 10.0 - 1e-9;
}

}  // namespace perfbench
