// Design-choice ablations for the S4 drive (DESIGN.md section 6).
//
// Three sweeps isolate the structural decisions the paper's design rests on:
//   segment size     - bigger segments batch more per sequential write but
//                      roll over less gracefully;
//   buffer cache     - the sharp 2%->10% drop in Figure 5 is the working set
//                      escaping the cache, so cache size moves the knee;
//   journal packing  - how many pending entries are packed per flush trades
//                      journal-sector count against sync latency.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench/harness.h"
#include "src/workload/postmark.h"

namespace s4 {
namespace bench {
namespace {

struct Row {
  std::string label;
  double tx_per_sec = 0;
  uint64_t journal_sectors = 0;
};
std::vector<Row> g_segment_rows;
std::vector<Row> g_cache_rows;
std::vector<Row> g_journal_rows;

PostMarkConfig WorkloadConfig() {
  PostMarkConfig config;
  config.file_count = 1500;
  config.transactions = 6000;
  return config;
}

Row RunWith(S4DriveOptions drive_opts, const std::string& label) {
  auto clock = std::make_unique<SimClock>();
  auto device = std::make_unique<BlockDevice>((1ull << 30) / kSectorSize, clock.get());
  auto drive = S4Drive::Format(device.get(), clock.get(), drive_opts);
  S4_CHECK(drive.ok());
  S4RpcServer server(drive->get());
  LoopbackTransport transport(&server, clock.get());
  Credentials user;
  user.user = 100;
  user.client = 1;
  S4Client client(&transport, user);
  auto fs = S4FileSystem::Format(&client, "root");
  S4_CHECK(fs.ok());

  PostMarkConfig config = WorkloadConfig();
  config.cleaner_hook = [&] {
    if ((*drive)->CleanerNeeded()) {
      S4_CHECK((*drive)->RunCleanerPass(2).ok());
    }
  };
  PostMark pm(fs->get(), clock.get(), config);
  auto report = pm.Run();
  S4_CHECK(report.ok());
  Row row;
  row.label = label;
  row.tx_per_sec = report->TransactionsPerSecond(config.transactions);
  row.journal_sectors = (*drive)->metrics().CounterValue("drive.journal_sectors_written");
  return row;
}

void SegmentSizeSweep(::benchmark::State& state, uint32_t segment_sectors) {
  for (auto _ : state) {
    S4DriveOptions opts;
    opts.segment_sectors = segment_sectors;
    Row row = RunWith(opts, std::to_string(segment_sectors * kSectorSize / 1024) + "KB");
    g_segment_rows.push_back(row);
    state.counters["tx_per_s"] = row.tx_per_sec;
    state.SetIterationTime(1.0);
  }
}

void CacheSizeSweep(::benchmark::State& state, uint64_t cache_bytes) {
  for (auto _ : state) {
    S4DriveOptions opts;
    opts.block_cache_bytes = cache_bytes;
    Row row = RunWith(opts, std::to_string(cache_bytes >> 20) + "MB");
    g_cache_rows.push_back(row);
    state.counters["tx_per_s"] = row.tx_per_sec;
    state.SetIterationTime(1.0);
  }
}

void JournalPackingSweep(::benchmark::State& state, uint64_t flush_entries) {
  for (auto _ : state) {
    S4DriveOptions opts;
    opts.journal_flush_entries = flush_entries;
    Row row = RunWith(opts, std::to_string(flush_entries) + " entries");
    g_journal_rows.push_back(row);
    state.counters["tx_per_s"] = row.tx_per_sec;
    state.counters["journal_sectors"] = static_cast<double>(row.journal_sectors);
    state.SetIterationTime(1.0);
  }
}

void PrintAblations() {
  auto print = [](const char* title, const std::vector<Row>& rows, bool journal) {
    std::printf("\n--- ablation: %s ---\n", title);
    for (const Row& row : rows) {
      if (journal) {
        std::printf("  %-14s %8.1f tx/s   %8llu journal sectors\n", row.label.c_str(),
                    row.tx_per_sec, static_cast<unsigned long long>(row.journal_sectors));
      } else {
        std::printf("  %-14s %8.1f tx/s\n", row.label.c_str(), row.tx_per_sec);
      }
    }
  };
  std::printf("\n=== Design-choice ablations (PostMark 1500 files / 6000 txns) ===\n");
  print("segment size", g_segment_rows, false);
  print("drive buffer cache size", g_cache_rows, false);
  print("journal packing threshold", g_journal_rows, true);
  std::printf("\nExpected: throughput is flat-to-slightly-better with larger segments\n"
              "(sync writes dominate); cache size sets where the Figure 5 knee sits;\n"
              "journal packing barely moves throughput because NFSv2 syncs flush\n"
              "per-op anyway — the LFS structure, not the packing, is what matters.\n");
}

}  // namespace
}  // namespace bench
}  // namespace s4

int main(int argc, char** argv) {
  for (uint32_t seg : {128u, 512u, 1024u, 4096u}) {
    std::string name = "Ablation/segment_kb:" + std::to_string(seg * 512 / 1024);
    ::benchmark::RegisterBenchmark(name.c_str(), [seg](::benchmark::State& state) {
      s4::bench::SegmentSizeSweep(state, seg);
    })->UseManualTime()->Iterations(1);
  }
  for (uint64_t mb : {4ull, 16ull, 64ull}) {
    std::string name = "Ablation/cache_mb:" + std::to_string(mb);
    ::benchmark::RegisterBenchmark(name.c_str(), [mb](::benchmark::State& state) {
      s4::bench::CacheSizeSweep(state, mb << 20);
    })->UseManualTime()->Iterations(1);
  }
  for (uint64_t entries : {8ull, 64ull, 512ull}) {
    std::string name = "Ablation/journal_flush:" + std::to_string(entries);
    ::benchmark::RegisterBenchmark(name.c_str(), [entries](::benchmark::State& state) {
      s4::bench::JournalPackingSweep(state, entries);
    })->UseManualTime()->Iterations(1);
  }
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  s4::bench::PrintAblations();
  return 0;
}
