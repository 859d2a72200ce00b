// Section 5.1.5: the fundamental performance cost of self-securing storage.
//
// Compares the full S4 configuration (comprehensive versioning + auditing)
// against the same drive with both disabled — a plain journaling LFS that
// provides no data-protection guarantees. Paper claim: the fundamental costs
// degrade performance by less than 13%.
//
// Usage: bench_fundamental [google-benchmark flags]
// Writes BENCH_fundamental.json, one label per run.
#include <benchmark/benchmark.h>

#include <map>

#include "bench/harness.h"
#include "src/workload/microbench.h"
#include "src/workload/postmark.h"

namespace s4 {
namespace bench {
namespace {

ServerOptions Protection(bool enabled) {
  ServerOptions options;
  options.versioning_enabled = enabled;
  options.audit_enabled = enabled;
  return options;
}

std::map<bool, SimDuration> g_postmark;
std::map<bool, SimDuration> g_micro;

void RunPostMarkCfg(::benchmark::State& state, bool protection, BenchReport& report) {
  for (auto _ : state) {
    auto server = MakeServer(ServerKind::kS4Nfs, Protection(protection));
    PostMarkConfig config;
    config.file_count = 2000;
    config.transactions = 8000;
    config.cleaner_hook = [s = server.get()] { s->Tick(); };
    PostMark pm(server->fs, server->clock.get(), config);
    auto result = pm.Run();
    S4_CHECK(result.ok());
    SimDuration total = result->create_phase + result->transaction_phase;
    g_postmark[protection] = total;
    state.SetIterationTime(ToSeconds(total));
    report.Server(protection ? "postmark_protected" : "postmark_unprotected", *server);
  }
}

void RunMicroCfg(::benchmark::State& state, bool protection, BenchReport& report) {
  for (auto _ : state) {
    auto server = MakeServer(ServerKind::kS4Nfs, Protection(protection));
    MicrobenchConfig config;
    config.file_count = 5000;
    auto result = RunSmallFileMicrobench(server->fs, server->clock.get(), config);
    S4_CHECK(result.ok());
    SimDuration total = result->create + result->read + result->remove;
    g_micro[protection] = total;
    state.SetIterationTime(ToSeconds(total));
    report.Server(protection ? "micro_protected" : "micro_unprotected", *server);
  }
}

void Report(BenchReport& report) {
  auto overhead = [](SimDuration with, SimDuration without) {
    return 100.0 * (ToSeconds(with) / ToSeconds(without) - 1.0);
  };
  std::printf("\n=== Section 5.1.5: fundamental costs of self-securing storage ===\n");
  std::printf("(full versioning+auditing vs. the same drive with no protection)\n\n");
  std::printf("%-22s %16s %16s %10s\n", "workload", "unprotected (s)", "protected (s)",
              "cost");
  auto row = [&](const char* workload, std::map<bool, SimDuration>& totals) {
    std::printf("%-22s %16s %16s %9.1f%%\n", workload, Secs(totals[false]).c_str(),
                Secs(totals[true]).c_str(), overhead(totals[true], totals[false]));
    report.Row("section515", {{"workload", workload},
                              {"unprotected_s", ToSeconds(totals[false])},
                              {"protected_s", ToSeconds(totals[true])},
                              {"cost_pct", overhead(totals[true], totals[false])}});
  };
  row("PostMark", g_postmark);
  row("small-file microbench", g_micro);
  std::printf("\nExpected shape (paper): versioning is nearly free (journal-based\n"
              "metadata + LFS), auditing costs 1-3%%; total fundamental cost < 13%%.\n");
}

}  // namespace
}  // namespace bench
}  // namespace s4

int main(int argc, char** argv) {
  s4::bench::BenchReport report("fundamental");
  for (bool protection : {false, true}) {
    std::string pm_name =
        std::string("PostMark/protection:") + (protection ? "on" : "off");
    ::benchmark::RegisterBenchmark(pm_name.c_str(),
                                   [protection, &report](::benchmark::State& state) {
                                     s4::bench::RunPostMarkCfg(state, protection, report);
                                   })
        ->UseManualTime()
        ->Iterations(1)
        ->Unit(::benchmark::kSecond);
    std::string mb_name =
        std::string("Microbench/protection:") + (protection ? "on" : "off");
    ::benchmark::RegisterBenchmark(mb_name.c_str(),
                                   [protection, &report](::benchmark::State& state) {
                                     s4::bench::RunMicroCfg(state, protection, report);
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
