// Figure 3: PostMark on the four server configurations.
//
// Paper result: the S4 systems perform comparably to the BSD and Linux NFS
// servers — slightly better, thanks to the log-structured layout turning
// PostMark's small synchronous writes into sequential segment writes.
//
// Usage: bench_postmark [--quick] [google-benchmark flags]
// Writes BENCH_postmark.json, one label per server.
#include <benchmark/benchmark.h>

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
};
std::map<ServerKind, Row> g_rows;

void RunPostMark(::benchmark::State& state, ServerKind kind, BenchReport& report) {
  for (auto _ : state) {
    auto server = MakeServer(kind);
    PostMarkConfig config = Config(report.quick());
    config.cleaner_hook = [s = server.get()] { s->Tick(); };
    PostMark pm(server->fs, server->clock.get(), config);
    auto result = pm.Run();
    S4_CHECK(result.ok());
    server->Drain();
    state.SetIterationTime(ToSeconds(result->create_phase + result->transaction_phase));
    state.counters["create_s"] = ToSeconds(result->create_phase);
    state.counters["txn_s"] = ToSeconds(result->transaction_phase);
    state.counters["tx_per_s"] = result->TransactionsPerSecond(config.transactions);
    g_rows[kind] = Row{*result, config.transactions, server->device->stats().writes};
    report.Server(ServerSlug(kind), *server);
  }
}

void Report(BenchReport& report) {
  std::printf("\n=== Figure 3: PostMark benchmark (simulated seconds) ===\n");
  std::printf("%-18s %12s %14s %10s %12s\n", "server", "create (s)", "transact (s)", "tx/sec",
              "dw/txn");
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
    std::printf("%-18s %12s %14s %10.1f %12.2f\n", ServerName(kind),
                Secs(row.report.create_phase).c_str(),
                Secs(row.report.transaction_phase).c_str(), tx_per_s, dw_per_txn);
    report.Row("figure3", {{"server", ServerName(kind)},
                           {"create_s", ToSeconds(row.report.create_phase)},
                           {"transact_s", ToSeconds(row.report.transaction_phase)},
                           {"tx_per_s", tx_per_s},
                           {"disk_writes_per_txn", dw_per_txn}});
    report.Metric(ServerSlug(kind) + ".tx_per_s", tx_per_s, "1/s", Better::kHigher);
  }
  std::printf("\nExpected shape (paper): S4 comparable to, slightly faster than, the\n"
              "in-place NFS servers on both phases. The batched S4 mode (group commit\n"
              "+ vectored RPCs) should cut disk writes per transaction by >=2x.\n");
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
