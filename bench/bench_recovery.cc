// Mount cost: clean mounts vs. crash recovery, as a function of journal
// length since the last checkpoint.
//
// Two series, same workload:
//   clean  — Unmount() then Mount(): the quorum superblocks record the
//            checkpoint seq, so the mount skips the log scan entirely.
//            Disk cost must be flat in the journal length — O(1)-ish.
//   dirty  — crash (drop the drive) then Mount(): roll-forward must rescan
//            every chunk written after the covered sequence number, but the
//            scan is bounded to candidate segments (checkpoint-time active +
//            allocation-order free chain) and skips payload reads for chunks
//            the checkpoint already covers, so it grows with the
//            post-checkpoint journal — not with disk size.
//
// Reported per point:
//   wall_ms   host milliseconds spent inside S4Drive::Mount
//   disk_ms   simulated disk time consumed by mount I/O
//   reads     disk read commands issued by the mount
//
// Usage: bench_recovery [--quick] [--check] [google-benchmark flags]
//   --quick  smaller journal series (CI)
//   --check  exit non-zero unless (a) dirty recovery at the largest point
//            beats the pre-bounded-scan baseline by >= 3x, and (b) clean
//            mount disk cost is flat (max/min <= 1.5) across journal sizes.
// Writes BENCH_recovery.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/drive/s4_drive.h"
#include "src/obs/trace.h"
#include "src/sim/block_device.h"
#include "src/sim/sim_clock.h"
#include "src/util/check.h"

namespace s4 {
namespace bench {
namespace {

constexpr uint64_t kDiskBytes = 512ull << 20;

struct Point {
  uint64_t journal_mb = 0;
  double wall_ms = 0;
  double disk_ms = 0;
  double audit_ms = 0;  // of disk_ms: the audit-chain tamper sweep
  uint64_t reads = 0;
};
std::vector<Point> g_dirty;
std::vector<Point> g_clean;

std::vector<uint64_t> JournalMbTargets(bool quick) {
  if (quick) {
    return {1, 8};
  }
  return {1, 4, 16, 64};
}

// Formats a drive, grows the post-checkpoint journal to the target length,
// then either crashes (dirty) or unmounts (clean), and measures the
// subsequent Mount. The measured point lands in g_dirty or g_clean.
void RunPoint(::benchmark::State& state, uint64_t journal_mb, bool dirty) {
  for (auto _ : state) {
    SimClock clock(SimTime{1000000});
    BlockDevice device(kDiskBytes / kSectorSize, &clock);
    S4DriveOptions options;
    // Effectively disable auto-checkpoints: the only checkpoint on disk is
    // the one Format wrote, so the whole workload is roll-forward territory.
    options.checkpoint_interval_bytes = ~0ull;
    auto drive = S4Drive::Format(&device, &clock, options);
    S4_CHECK(drive.ok());

    // Grow the post-checkpoint journal to the target length: overwrite one
    // object block by block, syncing every 16 blocks so the log is made of
    // realistically sized chunks interleaved with journal sectors.
    Credentials user;
    user.user = 1;
    user.client = 1;
    auto id = (*drive)->Create(user, {});
    S4_CHECK(id.ok());
    Bytes block(kBlockSize, 0x5A);
    uint64_t target_bytes = journal_mb << 20;
    uint64_t written = 0;
    uint32_t block_index = 0;
    while (written < target_bytes) {
      S4_CHECK((*drive)->Write(user, *id, uint64_t{block_index} * kBlockSize, block).ok());
      written += kBlockSize;
      if (++block_index % 16 == 0) {
        S4_CHECK((*drive)->Sync(user).ok());
      }
      // Bound the object size so indirect chains stay realistic while the
      // journal keeps growing (overwrites version the same blocks).
      if (block_index == 2048) {
        block_index = 0;
      }
    }
    S4_CHECK((*drive)->Sync(user).ok());

    if (dirty) {
      // Crash: the drive dies with its caches; no checkpoint is written.
      drive->reset();
    } else {
      // Clean shutdown: checkpoint + clean-marked superblock replicas.
      S4_CHECK((*drive)->Unmount().ok());
      drive->reset();
    }

    DiskStats before = device.stats();
    SimTime sim_before = clock.Now();
    auto wall_start = std::chrono::steady_clock::now();
    auto mounted = S4Drive::Mount(&device, &clock, options);
    auto wall_end = std::chrono::steady_clock::now();
    S4_CHECK(mounted.ok());
    DiskStats delta = device.stats() - before;

    Point p;
    p.journal_mb = journal_mb;
    p.wall_ms =
        std::chrono::duration<double, std::milli>(wall_end - wall_start).count();
    p.disk_ms = ToMillis(clock.Now() - sim_before);
    // The audit-chain tamper sweep runs on every mount (clean included): a
    // byte flipped offline is only caught by re-hashing the chronicle, so
    // its cost scales with operation history, not journal length. Pull it
    // out of the mount span so the clean series isolates recovery cost.
    for (const TraceEvent& e : (*mounted)->tracer().events()) {
      if (std::strcmp(e.name, "mount.audit_verify") == 0) {
        p.audit_ms += ToMillis(e.duration);
      }
    }
    if (std::getenv("BENCH_RECOVERY_SPANS") != nullptr) {
      std::map<std::string, std::pair<uint64_t, double>> agg;
      for (const TraceEvent& e : (*mounted)->tracer().events()) {
        auto& a = agg[e.name];
        ++a.first;
        a.second += ToMillis(e.duration);
      }
      std::printf("--- spans: %s journal_mb=%llu ---\n", dirty ? "dirty" : "clean",
                  static_cast<unsigned long long>(journal_mb));
      for (const auto& [name, a] : agg) {
        std::printf("  %-28s n=%-6llu %10.2f ms\n", name.c_str(),
                    static_cast<unsigned long long>(a.first), a.second);
      }
    }
    p.reads = delta.reads;
    (dirty ? g_dirty : g_clean).push_back(p);
    state.SetIterationTime(p.wall_ms / 1e3);
  }
}

void PrintSeries(const char* title, const std::vector<Point>& points) {
  std::printf("\n=== %s ===\n", title);
  std::printf("%12s %12s %12s %12s %12s\n", "journal_mb", "wall_ms", "disk_ms",
              "audit_ms", "reads");
  for (const Point& p : points) {
    std::printf("%12llu %12.2f %12.2f %12.2f %12llu\n",
                static_cast<unsigned long long>(p.journal_mb), p.wall_ms, p.disk_ms,
                p.audit_ms, static_cast<unsigned long long>(p.reads));
  }
}

void PrintSummary() {
  PrintSeries("Clean mount cost vs. journal length (expected flat)", g_clean);
  PrintSeries("Crash-recovery cost vs. post-checkpoint journal length", g_dirty);
  std::printf("\nExpected shape: clean mounts read the superblock quorum plus the\n"
              "checkpoint — constant in the journal length. Dirty mounts grow with\n"
              "the post-checkpoint journal (bounded candidate scan), and the\n"
              "checkpoint_interval_bytes option caps that cost in deployment.\n");
}

// Host wall_ms is deliberately left out of the report: it varies with the
// hardware, while disk_ms and reads are simulated and comparable across runs.
//
// Gates:
//
// (a) Dirty recovery at the largest journal must beat the unbounded-scan
//     baseline (full-disk segment sweep + per-chunk payload CRC) by >= 3x.
//     Baseline disk_ms, measured before the bounded scan landed:
//       64 MB journal: 15832.0   (full series largest point)
//        8 MB journal:  4842.12  (quick series largest point)
// (b) Clean-mount recovery cost must be flat across journal lengths: the
//     quorum vote + checkpoint load touches no log segments, so max/min
//     <= 1.5x regardless of how much journal the previous incarnation
//     wrote. The audit-chain tamper sweep is excluded: it re-hashes the
//     whole chronicle on every mount by design (audit_chain_test pins that
//     a byte flipped offline is detected AT MOUNT), so its cost necessarily
//     grows with operation history. It is reported as its own column.
void Report(BenchReport& report) {
  auto series = [&report](const char* name, const std::vector<Point>& points) {
    for (const Point& p : points) {
      report.Row(name, {{"journal_mb", p.journal_mb},
                        {"disk_ms", p.disk_ms},
                        {"audit_ms", p.audit_ms},
                        {"reads", p.reads}});
      const std::string key = std::string(name) + "." + std::to_string(p.journal_mb) + "mb.";
      report.Metric(key + "disk_ms", p.disk_ms, "ms", Better::kLower);
      report.Metric(key + "audit_ms", p.audit_ms, "ms", Better::kLower);
      report.Metric(key + "reads", p.reads, "count", Better::kLower);
    }
  };
  series("dirty", g_dirty);
  series("clean", g_clean);

  if (!g_dirty.empty()) {
    const double baseline_ms = report.quick() ? 4842.12 : 15832.0;
    const Point& worst =
        *std::max_element(g_dirty.begin(), g_dirty.end(),
                          [](const Point& a, const Point& b) {
                            return a.journal_mb < b.journal_mb;
                          });
    report.Metric("dirty_speedup", worst.disk_ms > 0 ? baseline_ms / worst.disk_ms : 0, "x",
                  Better::kHigher);
  }
  if (!g_clean.empty()) {
    auto recovery_ms = [](const Point& p) { return p.disk_ms - p.audit_ms; };
    auto minmax = std::minmax_element(g_clean.begin(), g_clean.end(),
                                      [&](const Point& a, const Point& b) {
                                        return recovery_ms(a) < recovery_ms(b);
                                      });
    double lo = recovery_ms(*minmax.first);
    double hi = recovery_ms(*minmax.second);
    report.Metric("clean_flatness", lo > 0 ? hi / lo : 1e9, "x", Better::kLower);
  }
  report.Gate("dirty_speedup", ">=", 3.0);
  report.Gate("clean_flatness", "<=", 1.5);
}

}  // namespace
}  // namespace bench
}  // namespace s4

int main(int argc, char** argv) {
  s4::bench::BenchReport report("recovery", &argc, argv);
  for (uint64_t mb : s4::bench::JournalMbTargets(report.quick())) {
    for (bool dirty : {false, true}) {
      std::string name = std::string(dirty ? "Recovery" : "CleanMount") +
                         "/journal_mb:" + std::to_string(mb);
      ::benchmark::RegisterBenchmark(name.c_str(),
                                     [mb, dirty](::benchmark::State& state) {
                                       s4::bench::RunPoint(state, mb, dirty);
                                     })
          ->UseManualTime()
          ->Iterations(1)
          ->Unit(::benchmark::kMillisecond);
    }
  }
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  s4::bench::PrintSummary();
  s4::bench::Report(report);
  return report.Finish();
}
