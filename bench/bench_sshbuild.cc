// Figure 4: SSH-build (unpack / configure / build) on the four servers.
//
// Paper result: S4 and BSD perform similarly in all three phases; the Linux
// server is anomalously fast in configure because its "synchronous" mount
// issues far fewer metadata write I/Os. The build phase is CPU-bound and
// nearly identical everywhere.
//
// Usage: bench_sshbuild [google-benchmark flags]
// Writes BENCH_sshbuild.json, one label per server.
#include <benchmark/benchmark.h>

#include <map>
#include <string>

#include "bench/harness.h"
#include "src/workload/ssh_build.h"

namespace s4 {
namespace bench {
namespace {

std::map<ServerKind, SshBuildReport> g_rows;

void RunSshBuild(::benchmark::State& state, ServerKind kind, BenchReport& report) {
  for (auto _ : state) {
    auto server = MakeServer(kind);
    SshBuild build(server->fs, server->clock.get(), SshBuildConfig{});
    auto result = build.Run();
    S4_CHECK(result.ok());
    server->Drain();
    state.SetIterationTime(ToSeconds(result->unpack + result->configure + result->build));
    state.counters["unpack_s"] = ToSeconds(result->unpack);
    state.counters["configure_s"] = ToSeconds(result->configure);
    state.counters["build_s"] = ToSeconds(result->build);
    g_rows[kind] = *result;
    report.Server(ServerSlug(kind), *server);
  }
}

void Report(BenchReport& report) {
  std::printf("\n=== Figure 4: SSH-build benchmark (simulated seconds) ===\n");
  std::printf("%-18s %10s %13s %10s %10s\n", "server", "unpack", "configure", "build",
              "total");
  for (auto kind : {ServerKind::kS4Nas, ServerKind::kS4NasBatched, ServerKind::kS4Nfs,
                    ServerKind::kFfsNfs, ServerKind::kExt2Nfs}) {
    auto it = g_rows.find(kind);
    if (it == g_rows.end()) {
      continue;
    }
    const SshBuildReport& r = it->second;
    std::printf("%-18s %10s %13s %10s %10s\n", ServerName(kind), Secs(r.unpack).c_str(),
                Secs(r.configure).c_str(), Secs(r.build).c_str(),
                Secs(r.unpack + r.configure + r.build).c_str());
    report.Row("figure4", {{"server", ServerName(kind)},
                           {"unpack_s", ToSeconds(r.unpack)},
                           {"configure_s", ToSeconds(r.configure)},
                           {"build_s", ToSeconds(r.build)},
                           {"total_s", ToSeconds(r.unpack + r.configure + r.build)}});
  }
  std::printf("\nExpected shape (paper): S4 and BSD similar in every phase; Linux's\n"
              "flawed sync mount makes its configure phase anomalously fast; the build\n"
              "phase is CPU-bound and close across all systems.\n");
}

}  // namespace
}  // namespace bench
}  // namespace s4

int main(int argc, char** argv) {
  s4::bench::BenchReport report("sshbuild");
  using s4::bench::ServerKind;
  for (auto kind : {ServerKind::kS4Nas, ServerKind::kS4NasBatched, ServerKind::kS4Nfs,
                    ServerKind::kFfsNfs, ServerKind::kExt2Nfs}) {
    std::string name = std::string("SshBuild/") + s4::bench::ServerName(kind);
    ::benchmark::RegisterBenchmark(
        name.c_str(),
        [kind, &report](::benchmark::State& state) {
          s4::bench::RunSshBuild(state, kind, report);
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
