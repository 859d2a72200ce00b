// Figure 3: PostMark on the four server configurations.
//
// Paper result: the S4 systems perform comparably to the BSD and Linux NFS
// servers — slightly better, thanks to the log-structured layout turning
// PostMark's small synchronous writes into sequential segment writes.
//
// Usage: bench_postmark [--quick] [--check] [google-benchmark flags]
// Writes BENCH_postmark.json, one label per server. At paper size it gates
// Figure 3's ordering: S4-NAS and S4-NFS at or above Linux-ext2-NFS in tx/s.
// Each figure3 row also carries host_cpu_s, the process CPU seconds spent in
// that server's PostMark run (create, transaction and delete phases), and
// host_us_per_txn. They are results, not metrics: host time varies with the
// machine, and metrics are compared against baselines from another one.
#include <benchmark/benchmark.h>

#include <ctime>
#include <map>
#include <string>

#include "bench/harness.h"
#include "src/workload/postmark.h"

namespace s4 {
namespace bench {
namespace {

PostMarkConfig Config(bool quick) {
  PostMarkConfig config;  // paper defaults: 5,000 files, 20,000 transactions
  if (quick) {
    config.file_count = 1000;
    config.transactions = 4000;
  }
  return config;
}

struct Row {
  PostMarkReport report;
  uint32_t transactions = 0;
  uint64_t disk_writes = 0;
  double host_cpu_s = 0;
};
std::map<ServerKind, Row> g_rows;

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void RunPostMark(::benchmark::State& state, ServerKind kind, BenchReport& report) {
  for (auto _ : state) {
    auto server = MakeServer(kind);
    PostMarkConfig config = Config(report.quick());
    config.cleaner_hook = [s = server.get()] { s->Tick(); };
    PostMark pm(server->fs, server->clock.get(), config);
    const double cpu_start = ProcessCpuSeconds();
    auto result = pm.Run();
    const double host_cpu_s = ProcessCpuSeconds() - cpu_start;
    S4_CHECK(result.ok());
    server->Drain();
    state.SetIterationTime(ToSeconds(result->create_phase + result->transaction_phase));
    state.counters["create_s"] = ToSeconds(result->create_phase);
    state.counters["txn_s"] = ToSeconds(result->transaction_phase);
    state.counters["tx_per_s"] = result->TransactionsPerSecond(config.transactions);
    g_rows[kind] =
        Row{*result, config.transactions, server->device->stats().writes, host_cpu_s};
    report.Server(ServerSlug(kind), *server);
  }
}

void Report(BenchReport& report) {
  std::printf("\n=== Figure 3: PostMark benchmark (simulated seconds) ===\n");
  std::printf("%-18s %12s %14s %10s %12s %12s\n", "server", "create (s)", "transact (s)",
              "tx/sec", "dw/txn", "host cpu s");
  std::map<ServerKind, double> tx_per_s_of;
  for (auto kind : {ServerKind::kS4Nas, ServerKind::kS4NasBatched, ServerKind::kS4Nfs,
                    ServerKind::kFfsNfs, ServerKind::kExt2Nfs}) {
    auto it = g_rows.find(kind);
    if (it == g_rows.end()) {
      continue;
    }
    const Row& row = it->second;
    const double tx_per_s = row.report.TransactionsPerSecond(row.transactions);
    const double dw_per_txn =
        row.transactions > 0 ? static_cast<double>(row.disk_writes) / row.transactions : 0.0;
    const double host_us_per_txn =
        row.transactions > 0 ? row.host_cpu_s * 1e6 / row.transactions : 0.0;
    std::printf("%-18s %12s %14s %10.1f %12.2f %12.2f\n", ServerName(kind),
                Secs(row.report.create_phase).c_str(),
                Secs(row.report.transaction_phase).c_str(), tx_per_s, dw_per_txn,
                row.host_cpu_s);
    report.Row("figure3", {{"server", ServerName(kind)},
                           {"create_s", ToSeconds(row.report.create_phase)},
                           {"transact_s", ToSeconds(row.report.transaction_phase)},
                           {"tx_per_s", tx_per_s},
                           {"disk_writes_per_txn", dw_per_txn},
                           {"host_cpu_s", row.host_cpu_s},
                           {"host_us_per_txn", host_us_per_txn}});
    report.Metric(ServerSlug(kind) + ".tx_per_s", tx_per_s, "1/s", Better::kHigher);
    tx_per_s_of[kind] = tx_per_s;
  }
  // Figure 3's ordering: each S4 server against Linux-ext2-NFS, the faster
  // of the two in-place servers.
  for (auto [kind, metric] : {std::pair{ServerKind::kS4Nas, "s4_nas_vs_ext2.tx_ratio"},
                              std::pair{ServerKind::kS4Nfs, "s4_nfs_vs_ext2.tx_ratio"}}) {
    if (tx_per_s_of.count(kind) > 0 && tx_per_s_of.count(ServerKind::kExt2Nfs) > 0) {
      report.Metric(metric, tx_per_s_of.at(kind) / tx_per_s_of.at(ServerKind::kExt2Nfs), "x",
                    Better::kHigher);
    }
    // The paper's shape holds at its own size; --quick's small file set
    // says nothing about it.
    if (!report.quick()) report.Gate(metric, ">=", 1.0);
  }
  std::printf("\nExpected shape (paper): S4 comparable to, slightly faster than, the\n"
              "in-place NFS servers on both phases. The batched S4 mode (group commit:\n"
              "one sync per 32 ops) should cut disk writes per transaction by >=2x.\n");
}

}  // namespace
}  // namespace bench
}  // namespace s4

int main(int argc, char** argv) {
  s4::bench::BenchReport report("postmark", &argc, argv);
  using s4::bench::ServerKind;
  for (auto kind : {ServerKind::kS4Nas, ServerKind::kS4NasBatched, ServerKind::kS4Nfs,
                    ServerKind::kFfsNfs, ServerKind::kExt2Nfs}) {
    std::string name = std::string("PostMark/") + s4::bench::ServerName(kind);
    ::benchmark::RegisterBenchmark(
        name.c_str(),
        [kind, &report](::benchmark::State& state) {
          s4::bench::RunPostMark(state, kind, report);
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
