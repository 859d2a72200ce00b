// Batched RPC + group commit microbenchmark (no paper figure; perf PR).
//
// Two views of the same question — what does batching buy on the write
// path?
//
//   1. File-system level: a write-heavy workload (create + overwrite) on
//      the S4-NAS stack, unbatched (every mutating op synced, NFSv2
//      discipline, by the sync bit on its own frame) vs group-commit sizes
//      8 and 32 (every 8th or 32nd op carries the sync). Reports ops/sec,
//      disk writes per logical op, and the sync counts.
//   2. Raw RPC level: N Write RPCs, each followed by its own Sync RPC, vs
//      packed into kBatch envelopes, showing the round-trip savings alone.
//
// Usage: bench_batch [--quick] [google-benchmark flags]
// Writes BENCH_batch.json, one label per file-system configuration.
#include <benchmark/benchmark.h>

#include <map>
#include <string>
#include <vector>

#include "bench/harness.h"

namespace s4 {
namespace bench {
namespace {

struct BatchConfig {
  const char* name;       // also its label in BENCH_batch.json
  uint32_t group_commit;  // 1 = per-op sync (unbatched)
};

constexpr BatchConfig kConfigs[] = {
    {"unbatched", 1},
    {"group8", 8},
    {"group32", 32},
};

struct Row {
  double sim_seconds = 0;
  uint64_t logical_ops = 0;
  uint64_t disk_writes = 0;
  uint64_t net_messages = 0;
  uint64_t rpc_syncs = 0;
};
std::map<std::string, Row> g_rows;

// Write-heavy mix: create files, then overwrite them round-robin. Every op
// is mutating, so the sync discipline dominates — the worst case the paper
// measures in section 5.2 and the best case for group commit.
void RunFsWorkload(::benchmark::State& state, const BatchConfig& config,
                   BenchReport& report) {
  const uint32_t files = report.quick() ? 50 : 200;
  const uint32_t writes = report.quick() ? 500 : 4000;
  const uint32_t write_bytes = 4096;

  for (auto _ : state) {
    ServerOptions opts;
    opts.fs_group_commit_ops = config.group_commit;
    ServerKind kind =
        config.group_commit > 1 ? ServerKind::kS4NasBatched : ServerKind::kS4Nas;
    auto server = MakeServer(kind, opts);

    auto root = server->fs->Root();
    S4_CHECK(root.ok());
    std::vector<FileHandle> handles;
    handles.reserve(files);
    for (uint32_t i = 0; i < files; ++i) {
      auto h = server->fs->CreateFile(*root, "f" + std::to_string(i), 0644);
      S4_CHECK(h.ok());
      handles.push_back(*h);
    }
    Bytes payload(write_bytes, 0x5A);
    for (uint32_t i = 0; i < writes; ++i) {
      FileHandle h = handles[i % files];
      uint64_t offset = (i / files) % 4 * write_bytes;
      S4_CHECK(server->fs->WriteFile(h, offset, payload).ok());
      server->Tick();
    }
    server->Drain();

    Row row;
    row.sim_seconds = server->SimSeconds();
    row.logical_ops = files + writes;
    row.disk_writes = server->device->stats().writes;
    row.net_messages = server->drive->metrics().CounterValue("net.messages_sent");
    row.rpc_syncs = server->s4_fs->stats().rpc_syncs;
    g_rows[config.name] = row;

    state.SetIterationTime(row.sim_seconds);
    state.counters["ops_per_s"] = row.logical_ops / row.sim_seconds;
    state.counters["disk_w_per_op"] =
        static_cast<double>(row.disk_writes) / row.logical_ops;
    report.Server(config.name, *server);
  }
}

// Raw RPC round-trips: the same N Write+Sync pairs, one frame per RPC vs
// one kBatch frame per `group` sub-ops.
void RunRawRpc(::benchmark::State& state, uint32_t group, bool quick) {
  const uint32_t total_writes = quick ? 512 : 2048;
  const uint32_t write_bytes = 4096;

  for (auto _ : state) {
    auto server = MakeServer(ServerKind::kS4Nas);
    auto id = server->client->Create(Bytes());
    S4_CHECK(id.ok());

    Bytes payload(write_bytes, 0xC3);
    if (group <= 1) {
      for (uint32_t i = 0; i < total_writes; ++i) {
        S4_CHECK(server->client->Write(*id, i * write_bytes, payload).ok());
        S4_CHECK(server->client->Sync().ok());
      }
    } else {
      for (uint32_t base = 0; base < total_writes; base += group) {
        std::vector<RpcRequest> subs;
        uint32_t n = std::min(group, total_writes - base);
        subs.reserve(n + 1);
        for (uint32_t i = 0; i < n; ++i) {
          RpcRequest req;
          req.op = RpcOp::kWrite;
          req.object = *id;
          req.offset = static_cast<uint64_t>(base + i) * write_bytes;
          req.data = payload;
          subs.push_back(std::move(req));
        }
        RpcRequest sync;
        sync.op = RpcOp::kSync;
        subs.push_back(std::move(sync));
        auto resps = server->client->CallBatch(std::move(subs));
        S4_CHECK(resps.ok());
        for (const RpcResponse& r : *resps) {
          S4_CHECK(r.ok());
        }
      }
    }

    double sim_s = server->SimSeconds();
    state.SetIterationTime(sim_s);
    state.counters["ops_per_s"] = total_writes / sim_s;
    state.counters["net_msgs"] =
        static_cast<double>(server->drive->metrics().CounterValue("net.messages_sent"));
    state.counters["disk_w_per_op"] =
        static_cast<double>(server->device->stats().writes) / total_writes;
  }
}

void Report(BenchReport& report) {
  std::printf("\n=== Batched RPC + group commit (write-heavy fs workload) ===\n");
  std::printf("%-12s %10s %12s %14s %10s %10s\n", "config", "sim (s)", "ops/sec",
              "disk w/op", "net msgs", "syncs");
  for (const BatchConfig& config : kConfigs) {
    auto it = g_rows.find(config.name);
    if (it == g_rows.end()) {
      continue;
    }
    const Row& r = it->second;
    std::printf("%-12s %10.2f %12.1f %14.3f %10llu %10llu\n", config.name,
                r.sim_seconds, r.logical_ops / r.sim_seconds,
                static_cast<double>(r.disk_writes) / r.logical_ops,
                static_cast<unsigned long long>(r.net_messages),
                static_cast<unsigned long long>(r.rpc_syncs));
    report.Row("batch", {{"config", config.name},
                         {"sim_s", r.sim_seconds},
                         {"ops_per_s", r.logical_ops / r.sim_seconds},
                         {"disk_writes_per_op", static_cast<double>(r.disk_writes) / r.logical_ops},
                         {"net_messages", r.net_messages},
                         {"rpc_syncs", r.rpc_syncs}});
  }
  std::printf("\nExpected shape: each sync point costs one journal chunk write; grouping\n"
              "N ops per sync divides disk writes per op. Every config sends one frame\n"
              "per mutating RPC: the sync rides the frame of the op that is due.\n");
}

}  // namespace
}  // namespace bench
}  // namespace s4

int main(int argc, char** argv) {
  s4::bench::BenchReport report("batch", &argc, argv);
  for (const auto& config : s4::bench::kConfigs) {
    std::string name = std::string("BatchFs/") + config.name;
    ::benchmark::RegisterBenchmark(name.c_str(),
                                   [&config, &report](::benchmark::State& state) {
                                     s4::bench::RunFsWorkload(state, config, report);
                                   })
        ->UseManualTime()
        ->Iterations(1)
        ->Unit(::benchmark::kSecond);
  }
  for (uint32_t group : {1u, 8u, 32u}) {
    std::string name = "BatchRawRpc/group" + std::to_string(group);
    ::benchmark::RegisterBenchmark(name.c_str(),
                                   [group, &report](::benchmark::State& state) {
                                     s4::bench::RunRawRpc(state, group, report.quick());
                                   })
        ->UseManualTime()
        ->Iterations(1)
        ->Unit(::benchmark::kSecond);
  }
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  s4::bench::Report(report);
  return report.Finish();
}
