// Figure 6: audit log overhead.
//
// Paper result, small-file microbenchmark (10,000 1KB files in 10 dirs):
// auditing costs 2.8% on create, 2.9% on delete, and 7.2% on read (audit
// blocks interleave with data in the segments, reducing read locality).
// Macro benchmarks lose only 1-3%.
//
// Usage: bench_audit [--check] [google-benchmark flags]
//   --check  exit non-zero when hash-chained audit framing costs more than
//            10% on the batched PostMark run
// Writes BENCH_audit.json.
#include <benchmark/benchmark.h>

#include <map>

#include "bench/harness.h"
#include "src/workload/microbench.h"
#include "src/workload/postmark.h"

namespace s4 {
namespace bench {
namespace {

std::map<bool, MicrobenchReport> g_micro;
std::map<bool, PostMarkReport> g_macro;

// Chained-vs-unchained audit framing on the batched PostMark path (the
// group-commit flush amortises the per-record hashing); the chained server's
// stats land in BENCH_audit.json.
std::map<bool, SimDuration> g_chain_time;

ServerOptions WithAudit(bool audit) {
  ServerOptions options;
  options.audit_enabled = audit;
  // Small enough that the 10MB file set misses the cache: the read phase
  // then sees the segment-locality cost of interleaved audit blocks.
  options.s4_block_cache = 6ull << 20;
  options.s4_object_cache = 2ull << 20;
  return options;
}

void RunMicro(::benchmark::State& state, bool audit) {
  for (auto _ : state) {
    auto server = MakeServer(ServerKind::kS4Nfs, WithAudit(audit));
    auto report = RunSmallFileMicrobench(server->fs, server->clock.get(), MicrobenchConfig{});
    S4_CHECK(report.ok());
    state.SetIterationTime(ToSeconds(report->create + report->read + report->remove));
    state.counters["create_s"] = ToSeconds(report->create);
    state.counters["read_s"] = ToSeconds(report->read);
    state.counters["delete_s"] = ToSeconds(report->remove);
    g_micro[audit] = *report;
  }
}

void RunMacro(::benchmark::State& state, bool audit) {
  for (auto _ : state) {
    auto server = MakeServer(ServerKind::kS4Nfs, WithAudit(audit));
    PostMarkConfig config;
    config.file_count = 2000;
    config.transactions = 8000;
    config.cleaner_hook = [s = server.get()] { s->Tick(); };
    PostMark pm(server->fs, server->clock.get(), config);
    auto report = pm.Run();
    S4_CHECK(report.ok());
    state.SetIterationTime(ToSeconds(report->create_phase + report->transaction_phase));
    g_macro[audit] = *report;
  }
}

double Overhead(SimDuration with, SimDuration without) {
  return without == 0 ? 0.0 : 100.0 * (ToSeconds(with) / ToSeconds(without) - 1.0);
}

void RunChain(::benchmark::State& state, bool chained, BenchReport& report) {
  for (auto _ : state) {
    ServerOptions options;
    options.audit_enabled = true;
    options.tweak_drive_options = [chained](S4DriveOptions& o) { o.audit_chain = chained; };
    auto server = MakeServer(ServerKind::kS4NasBatched, options);
    PostMarkConfig config;
    config.file_count = 2000;
    config.transactions = 8000;
    config.cleaner_hook = [s = server.get()] { s->Tick(); };
    PostMark pm(server->fs, server->clock.get(), config);
    auto result = pm.Run();
    S4_CHECK(result.ok());
    server->Drain();
    SimDuration total = result->create_phase + result->transaction_phase;
    state.SetIterationTime(ToSeconds(total));
    g_chain_time[chained] = total;
    if (chained) {
      report.Server("chained", *server);
      report.Metric("audit_blocks_written",
                    server->drive->metrics().CounterValue("audit.blocks_written"), "count",
                    Better::kLower);
    }
  }
}

double ChainOverheadPct() {
  return Overhead(g_chain_time[true], g_chain_time[false]);
}

void Report(BenchReport& report) {
  std::printf("\n=== Figure 6: auditing overhead (small-file microbenchmark) ===\n");
  std::printf("(10,000 1KB files in 10 directories on the S4-enhanced NFS server)\n\n");
  std::printf("%-10s %14s %14s %12s\n", "phase", "no audit (s)", "audit (s)", "overhead");
  auto row = [&report](const char* phase, SimDuration without, SimDuration with) {
    std::printf("%-10s %14s %14s %11.1f%%\n", phase, Secs(without).c_str(),
                Secs(with).c_str(), Overhead(with, without));
    report.Row("figure6", {{"phase", phase},
                           {"no_audit_s", ToSeconds(without)},
                           {"audit_s", ToSeconds(with)},
                           {"overhead_pct", Overhead(with, without)}});
  };
  row("create", g_micro[false].create, g_micro[true].create);
  row("read", g_micro[false].read, g_micro[true].read);
  row("delete", g_micro[false].remove, g_micro[true].remove);

  const PostMarkReport& moff = g_macro[false];
  const PostMarkReport& mon = g_macro[true];
  SimDuration total_off = moff.create_phase + moff.transaction_phase;
  SimDuration total_on = mon.create_phase + mon.transaction_phase;
  std::printf("\nMacro check (PostMark total): %s s -> %s s, overhead %.1f%%\n",
              Secs(total_off).c_str(), Secs(total_on).c_str(),
              Overhead(total_on, total_off));
  report.Row("figure6", {{"phase", "postmark"},
                         {"no_audit_s", ToSeconds(total_off)},
                         {"audit_s", ToSeconds(total_on)},
                         {"overhead_pct", Overhead(total_on, total_off)}});
  std::printf("\nExpected shape (paper): create/delete ~3%%, read ~7%% (audit blocks\n"
              "interleaved with data reduce segment read locality); macro 1-3%%.\n");

  std::printf("\n=== Hash-chained audit framing (batched PostMark) ===\n");
  std::printf("%-12s %14s\n", "framing", "total (s)");
  std::printf("%-12s %14s\n", "bare", Secs(g_chain_time[false]).c_str());
  std::printf("%-12s %14s\n", "chained", Secs(g_chain_time[true]).c_str());
  std::printf("chained overhead: %.1f%% (gate: 10%%)\n", ChainOverheadPct());
  report.Metric("postmark_unchained_s", ToSeconds(g_chain_time[false]), "s", Better::kLower);
  report.Metric("postmark_chained_s", ToSeconds(g_chain_time[true]), "s", Better::kLower);
  report.Metric("chain_overhead_pct", ChainOverheadPct(), "%", Better::kLower);
  report.Gate("chain_overhead_pct", "<=", 10.0);
}

}  // namespace
}  // namespace bench
}  // namespace s4

int main(int argc, char** argv) {
  s4::bench::BenchReport report("audit", &argc, argv);
  for (bool audit : {false, true}) {
    std::string micro_name = std::string("Microbench/audit:") + (audit ? "on" : "off");
    ::benchmark::RegisterBenchmark(
        micro_name.c_str(),
        [audit](::benchmark::State& state) { s4::bench::RunMicro(state, audit); })
        ->UseManualTime()
        ->Iterations(1)
        ->Unit(::benchmark::kSecond);
    std::string macro_name = std::string("PostMark/audit:") + (audit ? "on" : "off");
    ::benchmark::RegisterBenchmark(
        macro_name.c_str(),
        [audit](::benchmark::State& state) { s4::bench::RunMacro(state, audit); })
        ->UseManualTime()
        ->Iterations(1)
        ->Unit(::benchmark::kSecond);
  }
  for (bool chained : {false, true}) {
    std::string name = std::string("PostMarkBatched/chain:") + (chained ? "on" : "off");
    ::benchmark::RegisterBenchmark(
        name.c_str(),
        [chained, &report](::benchmark::State& state) {
          s4::bench::RunChain(state, chained, report);
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
