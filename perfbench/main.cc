// perfbench: the repository benchmark.
//
//   perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//             [--trace-out FILE]
//
// --trace 0 repeats the workload (fresh system each time) at least three times
// and until another repetition would overrun --seconds, sets up at least five
// times, and prints the end-to-end metrics as medians over repetitions.
// --trace 1 runs untraced, traced and untraced repetitions and prints the
// per-layer metrics of the traced one; on the single-threaded workloads their
// simulated results must match exactly. Human-readable lines come first; the
// last stdout line is one JSON object {"correct", "attempted", "failed",
// "metrics"}. Exit status is 0 only when every correctness gate passed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <string>
#include <vector>

#include "perfbench/probe.h"
#include "perfbench/report.h"
#include "perfbench/workload.h"

namespace perfbench {
namespace {

struct WorkloadDef {
  const char* name;
  RepResult (*run)(const RepOptions&);
};

constexpr WorkloadDef kWorkloads[] = {
    {"postmark_nas", RunPostmarkNas},
    {"forensics_mix", RunForensicsMix},
    {"array_postmark", RunArrayPostmark},
    {"executor_mix", RunExecutorMix},
};

constexpr size_t kMinReps = 3;
constexpr size_t kMinSetups = 5;

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Host CPU per op: each chunk of the measured phase (the work between two CPU
// marks, identical in every repetition of a deterministic workload) costs the
// median over repetitions; the chunks are summed. With unaligned marks the
// whole phase is one chunk.
double HostUsPerOp(const std::vector<RepResult>& reps) {
  size_t chunks = reps.front().cpu_marks.size();
  for (const RepResult& r : reps) {
    if (r.cpu_marks.size() != chunks) chunks = 1;
  }
  double total = 0;
  for (size_t i = 0; i < chunks; ++i) {
    std::vector<double> cost;
    for (const RepResult& r : reps) {
      const std::vector<double>& m = r.cpu_marks;
      cost.push_back(chunks == 1 ? m.back() : m[i] - (i == 0 ? 0 : m[i - 1]));
    }
    total += Median(cost);
  }
  return total * 1e6 / static_cast<double>(reps.front().ops);
}

// FNV-1a over every simulated output of a repetition.
uint64_t Fingerprint(const RepResult& r) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  mix(r.ops);
  mix(static_cast<uint64_t>(r.sim_elapsed));
  for (const auto* v : {&r.op_lat, &r.history_lat, &r.degraded_lat}) {
    mix(v->size());
    for (SimDuration d : *v) mix(static_cast<uint64_t>(d));
  }
  return h;
}

void PrintRep(const char* what, const RepResult& r) {
  const Percentiles ops(r.op_lat);
  std::printf("%s: setup %.3f cpu-s | measured %llu ops in %.2f sim-s (%.2f ops/sim-s), "
              "%.3f cpu-s (%.3f unscaled) | op latency n=%zu p50 %.3f ms p99 %.3f ms | "
              "space_amp %.3f | peak rss %.0f MB\n",
              what, r.setup_cpu_s, static_cast<unsigned long long>(r.ops),
              s4::ToSeconds(r.sim_elapsed),
              static_cast<double>(r.ops) / s4::ToSeconds(r.sim_elapsed), r.measured_cpu_s(),
              r.raw_cpu_s, ops.count(), ops.Ms(0.50), ops.Supports(0.99) ? ops.Ms(0.99) : 0.0,
              r.space_amp, PeakRssMb());
  for (const auto& [label, samples] :
       {std::pair{"history read", &r.history_lat}, std::pair{"degraded read", &r.degraded_lat}}) {
    if (samples->empty()) continue;
    const Percentiles p(*samples);
    std::printf("  %s latency n=%zu p50 %.3f ms p99 %s\n", label, p.count(), p.Ms(0.50),
                p.Supports(0.99) ? std::to_string(p.Ms(0.99)).c_str() : "(too few samples)");
  }
  for (const std::string& g : r.gate_failures) std::printf("  GATE FAILED: %s\n", g.c_str());
}

// Prints the result line and returns the exit status.
int Emit(bool correct, uint64_t attempted, uint64_t failed, const MetricMap& metrics) {
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    json += std::string(first ? "" : ", ") + "\"" + name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int RunMeasured(const WorkloadDef& w, uint64_t seed, int seconds) {
  const int64_t budget_ns = static_cast<int64_t>(seconds) * 1000000000;
  const int64_t start = HostNowNs();
  int64_t longest = 0;
  std::vector<RepResult> reps;
  std::vector<double> setups;
  std::vector<std::string> gates;
  do {
    const int64_t t0 = HostNowNs();
    reps.push_back(w.run(RepOptions{seed}));
    longest = std::max(longest, HostNowNs() - t0);
    setups.push_back(reps.back().setup_cpu_s);
    PrintRep(("rep " + std::to_string(reps.size())).c_str(), reps.back());
    for (const std::string& g : reps.back().gate_failures) gates.push_back(g);
  } while (gates.empty() &&
           (reps.size() < kMinReps || HostNowNs() - start + longest <= budget_ns));
  while (setups.size() < kMinSetups) {
    RepOptions setup_only{seed};
    setup_only.setup_only = true;
    setups.push_back(w.run(setup_only).setup_cpu_s);
    std::printf("extra setup: %.3f cpu-s\n", setups.back());
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> ops_per_s, p50, p99, space;
  for (const RepResult& r : reps) {
    attempted += r.attempted;
    failed += r.failed;
    if (r.deterministic && Fingerprint(r) != Fingerprint(reps.front())) {
      gates.push_back("simulated results differ between repetitions of one seed");
    }
    const Percentiles lat(r.op_lat);
    if (!lat.Supports(0.99)) gates.push_back("too few op samples for a p99");
    ops_per_s.push_back(static_cast<double>(r.ops) / s4::ToSeconds(r.sim_elapsed));
    p50.push_back(lat.Ms(0.50));
    p99.push_back(lat.Ms(0.99));
    space.push_back(r.space_amp);
  }
  MetricMap m;
  m["sim_ops_per_s"] = Metric{Median(ops_per_s), "1/s"};
  m["op_p50_ms"] = Metric{Median(p50), "ms"};
  m["op_p99_ms"] = Metric{Median(p99), "ms"};
  m["host_us_per_op"] = Metric{HostUsPerOp(reps), "us"};
  m["setup_s"] = Metric{Median(setups), "s"};
  m["peak_rss_mb"] = Metric{PeakRssMb(), "MB"};
  m["space_amp"] = Metric{Median(space), "ratio"};
  std::printf("%s seed %llu: %zu repetitions, %zu setups, %llu/%llu ops failed\n", w.name,
              static_cast<unsigned long long>(seed), reps.size(), setups.size(),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  for (const std::string& g : gates) std::printf("GATE FAILED: %s\n", g.c_str());
  return Emit(gates.empty() && failed == 0, attempted, failed, m);
}

int RunTraced(const WorkloadDef& w, uint64_t seed, const std::string& trace_out) {
  // The first repetition of a process pays for first-touching its heap, so
  // the traced repetition is compared with an untraced one that follows it.
  const RepResult warmup = w.run(RepOptions{seed});
  PrintRep("untraced (warm-up)", warmup);
  RepOptions traced_opts{seed};
  traced_opts.traced = true;
  traced_opts.trace_out = trace_out;
  RepResult traced = w.run(traced_opts);
  PrintRep("traced", traced);
  const RepResult plain = w.run(RepOptions{seed});
  PrintRep("untraced", plain);

  std::vector<std::string> gates;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const RepResult* r : std::initializer_list<const RepResult*>{&warmup, &traced, &plain}) {
    gates.insert(gates.end(), r->gate_failures.begin(), r->gate_failures.end());
    attempted += r->attempted;
    failed += r->failed;
    if (r->deterministic && Fingerprint(*r) != Fingerprint(plain)) {
      gates.push_back("traced and untraced simulated results differ");
    }
  }
  traced.layers["trace.host_overhead_share"] =
      Metric{traced.measured_cpu_s() / plain.measured_cpu_s() - 1.0, "ratio"};
  if (!trace_out.empty()) std::printf("trace written to %s\n", trace_out.c_str());
  for (const std::string& g : gates) std::printf("GATE FAILED: %s\n", g.c_str());
  return Emit(gates.empty() && failed == 0, attempted, failed, traced.layers);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] "
               "[--trace-out FILE]\nworkloads:");
  for (const WorkloadDef& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const WorkloadDef* workload = nullptr;
  uint64_t seed = 42;
  int seconds = 20;
  bool trace = false;
  std::string trace_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      for (const WorkloadDef& w : kWorkloads) {
        if (std::strcmp(w.name, value) == 0) workload = &w;
      }
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atoi(value);
    } else if (flag == "--trace") {
      trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return Usage();
    }
  }
  if (workload == nullptr || argc % 2 == 0) return Usage();
  return trace ? RunTraced(*workload, seed, trace_out) : RunMeasured(*workload, seed, seconds);
}
