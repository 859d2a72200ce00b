// Figure 5: cleaner overhead vs. capacity utilisation.
//
// PostMark transactions against S4 with the initial file set scaled to fill
// 2%..90% of the disk, run once with no cleaning and once with continuous
// foreground cleaning competing for the disk arm. Paper result: performance
// falls as utilisation rises (cache + disk locality), and foreground
// cleaning costs up to ~50% in the worst case — more than a classic LFS
// cleaner, because the paper's S4 cleans object-by-object and history pins
// segments. This cleaner sweeps the log in write order instead.
//
// Scaled for the harness: 1GB disk (paper: 2GB), 10,000 transactions
// (paper: 50,000). Utilisation is the swept variable either way.
//
// Each point's file count comes from a measured cost per created file, so
// the create phase lands at its nominal fill. At the top fill (80%) the
// transaction phase runs the log out of free segments with the cleaner on;
// such a point is reported as a full disk.
//
// Usage: bench_cleaner [--quick] [--check] [google-benchmark flags]
//   --check  exit non-zero when a gate fails (steady-state sweep reads a log
//            sector twice; idle-slice cleaning regresses foreground p99)
// Writes BENCH_cleaner.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <vector>

#include "bench/harness.h"
#include "src/exec/drive_executor.h"
#include "src/workload/postmark.h"

namespace s4 {
namespace bench {
namespace {

constexpr uint64_t kDiskBytes = 1ull << 30;
constexpr uint32_t kTransactions = 10000;
// Files in the create phase that measures what one file costs on disk.
constexpr uint32_t kCalibrationFiles = 4000;

struct Point {
  uint32_t target_percent = 0;
  double utilization = 0;  // measured after the create phase
  double tx_per_sec = 0;
  bool disk_full = false;  // the transaction phase ran out of free segments
};
std::map<bool, std::vector<Point>> g_series;  // cleaning? -> points

std::vector<uint32_t> UtilizationTargets(bool quick) {
  if (quick) {
    return {2, 30, 65};
  }
  return {2, 10, 30, 50, 65, 80};
}

std::unique_ptr<Server> MakeFigure5Server() {
  ServerOptions options;
  options.disk_bytes = kDiskBytes;
  // Short enough that versions age out during the run, so the cleaner has
  // real reclamation work whose per-freed-byte cost grows with utilisation
  // (the classic LFS cleaning economics the paper measures).
  options.detection_window = kMinute;
  return MakeServer(ServerKind::kS4Nfs, options);
}

// What one created file adds to SpaceUtilization(), and the utilisation of
// the freshly formatted disk, measured once by a create phase of
// kCalibrationFiles files. A file costs its data records, a directory-record
// append (the directory's rebuilt tail block, its predecessor kept as
// history), journal sectors and audit records; the mix moves whenever the
// write path does, so it is measured rather than assumed.
struct FillCost {
  double base = 0;
  double per_file = 0;
};

const FillCost& MeasureFillCost() {
  static const FillCost cost = [] {
    auto server = MakeFigure5Server();
    FillCost c;
    c.base = server->drive->SpaceUtilization();
    PostMarkConfig config;
    config.file_count = kCalibrationFiles;
    PostMark pm(server->fs, server->clock.get(), config);
    S4_CHECK(pm.RunCreateOnly().ok());
    c.per_file = (server->drive->SpaceUtilization() - c.base) / kCalibrationFiles;
    S4_CHECK(c.per_file > 0);
    return c;
  }();
  return cost;
}

void RunPoint(::benchmark::State& state, uint32_t util_percent, bool cleaning) {
  for (auto _ : state) {
    auto server = MakeFigure5Server();

    // Fill the disk to the target utilisation at the measured cost per file.
    // The figure plots *measured* utilisation (the `util` counter), not the
    // nominal target.
    const FillCost& cost = MeasureFillCost();
    const double fill = util_percent / 100.0 - cost.base;
    uint32_t files = static_cast<uint32_t>(std::max(fill, 0.0) / cost.per_file);
    PostMarkConfig config;
    config.file_count = std::max<uint32_t>(files, 100);
    config.transactions = kTransactions;
    config.max_append = 2048;
    if (cleaning) {
      // Continuous foreground cleaning: expiry + compaction passes compete
      // with the benchmark for the disk arm instead of waiting for idle time.
      config.cleaner_hook = [s = server.get()] {
        S4_CHECK(s->drive->RunCleanerPass(1, /*force_compaction=*/true).ok());
      };
      config.cleaner_interval = 100;
    }
    PostMark pm(server->fs, server->clock.get(), config);
    auto created = pm.RunCreateOnly();
    S4_CHECK(created.ok());
    double utilization = server->drive->SpaceUtilization();

    auto report = pm.RunTransactionsOnly();
    if (!report.ok()) {
      // A full disk is a measured result at the top fill; any other error
      // is a bug.
      S4_CHECK(report.status().code() == ErrorCode::kOutOfSpace);
      g_series[cleaning].push_back(Point{util_percent, utilization, 0, /*disk_full=*/true});
      state.SkipWithError("disk full");
      continue;
    }
    double tps = report->TransactionsPerSecond(config.transactions);
    state.SetIterationTime(ToSeconds(report->transaction_phase));
    state.counters["util"] = utilization;
    state.counters["tx_per_s"] = tps;
    g_series[cleaning].push_back(Point{util_percent, utilization, tps});
  }
}

// ---------------------------------------------------------------------------
// Steady-state sweep cost. Most of the disk is pinned by static live data so
// the cleaner runs in its space-pressure regime, and a small population of
// hot objects keeps window-long chains churning. After a warm-up pass drains
// the backlog, each pass sweeps only the log that aged since the last one:
// the gate is that no log sector is read twice, so the sectors the steady
// passes scan are at most the sectors appended since the warm-up pass plus
// one segment (the sweep reads a segment's fill at a time).
// ---------------------------------------------------------------------------

struct SteadyState {
  uint64_t passes = 0;
  uint64_t segments_swept = 0;
  uint64_t sectors_scanned = 0;
  uint64_t sectors_appended = 0;
  uint64_t segment_sectors = 0;
  uint64_t journal_sectors_decoded = 0;
  double expiry_sim_ms = 0;
  uint64_t freed_sectors = 0;
};

SteadyState RunSteadyState(BenchReport& report) {
  const bool quick = report.quick();
  const uint32_t kObjects = quick ? 4 : 6;
  const SimDuration kWindow = quick ? 10 * kMinute : 20 * kMinute;
  const SimDuration kSpacing = 10 * kSecond;
  const SimDuration kBuildSpan = kWindow + kWindow / 2;
  const int kPasses = quick ? 4 : 8;
  const SimDuration kPassEvery = kMinute;

  ServerOptions options;
  options.disk_bytes = 128ull << 20;
  options.detection_window = kWindow;
  options.tweak_drive_options = [](S4DriveOptions& o) {
    o.waypoint_interval_sectors = 4;
    // The static filler drives utilisation high on purpose; the throttle is
    // not what this scenario measures.
    o.throttle_threshold = 2.0;
    o.reject_threshold = 2.0;
  };
  auto server = MakeServer(ServerKind::kS4Nas, options);
  S4Drive* drive = server->drive.get();
  Credentials user;
  user.user = 100;
  user.client = 1;

  // Pin ~80% of the disk with static live data: free segments drop below the
  // cleaner's comfort threshold, so every pass also runs compaction.
  auto filler = drive->Create(user, {});
  S4_CHECK(filler.ok());
  Bytes mb(1 << 20, 0x42);
  for (uint64_t off = 0; off < (104ull << 20); off += mb.size()) {
    S4_CHECK(drive->Write(user, *filler, off, mb).ok());
  }
  S4_CHECK(drive->Sync(user).ok());

  // Hot population: one synced one-block version per object per step, chains
  // spanning 1.5 windows so the tail is already expirable.
  std::vector<ObjectId> ids;
  for (uint32_t i = 0; i < kObjects; ++i) {
    auto id = drive->Create(user, {});
    S4_CHECK(id.ok());
    ids.push_back(*id);
  }
  Bytes block(kBlockSize, 0);
  auto churn_step = [&](uint64_t step) {
    server->clock->Advance(kSpacing);
    block[0] = static_cast<uint8_t>(step);
    for (ObjectId id : ids) {
      S4_CHECK(drive->Write(user, id, 0, block).ok());
    }
    S4_CHECK(drive->Sync(user).ok());
  };
  uint64_t build_steps = kBuildSpan / kSpacing;
  for (uint64_t step = 0; step < build_steps; ++step) {
    churn_step(step);
  }

  // Warm-up pass: drains the half-window backlog (not what steady state
  // measures).
  S4_CHECK(drive->RunCleanerPass(1).ok());

  const MetricRegistry& reg = drive->metrics();
  SteadyState result;
  result.segment_sectors = drive->superblock().segment_sectors;
  uint64_t swept0 = reg.CounterValue("cleaner.segments_swept");
  uint64_t scanned0 = reg.CounterValue("cleaner.sweep_sectors_read");
  uint64_t appended0 = drive->writer_stats().sectors_flushed;
  uint64_t decoded0 = reg.CounterValue("cleaner.walk_sectors_read");
  uint64_t sweep_us0 = reg.CounterValue("cleaner.sweep_time_us");
  uint64_t freed0 = reg.CounterValue("cleaner.sectors_expired");
  for (int pass = 0; pass < kPasses; ++pass) {
    for (uint64_t step = 0; step < kPassEvery / kSpacing; ++step) {
      churn_step(step);
    }
    S4_CHECK(drive->RunCleanerPass(1).ok());
    ++result.passes;
  }
  result.segments_swept = reg.CounterValue("cleaner.segments_swept") - swept0;
  result.sectors_scanned = reg.CounterValue("cleaner.sweep_sectors_read") - scanned0;
  result.sectors_appended = drive->writer_stats().sectors_flushed - appended0;
  result.journal_sectors_decoded = reg.CounterValue("cleaner.walk_sectors_read") - decoded0;
  result.expiry_sim_ms =
      static_cast<double>(reg.CounterValue("cleaner.sweep_time_us") - sweep_us0) / 1e3;
  result.freed_sectors = reg.CounterValue("cleaner.sectors_expired") - freed0;
  report.Server("steady_state", *server);
  return result;
}

// ---------------------------------------------------------------------------
// Idle-slice scheduling vs inline cleaning: foreground tail latency.
//
// A burst of foreground writes runs through the DriveExecutor while the
// cleaner has a real reclamation backlog. "Inline" forces a cleaner pass
// into the burst every 64 submissions, the pre-executor discipline.
// "Idle-slice" requests maintenance just as often but lets the executor's
// scheduler grant it only in queue-empty gaps (with its starvation floor),
// so cleaning slides behind the burst instead of stalling it. The foreground
// sojourn p99 — submission-to-completion simulated time — must not regress
// when cleaning moves to idle slices; that is this scenario's gate.
// ---------------------------------------------------------------------------

struct IdleSlicePoint {
  double fg_p99_us = 0;       // p99 foreground sojourn (burst start -> op done)
  double fg_makespan_s = 0;   // burst start -> last foreground completion
  uint64_t cleaner_passes = 0;
};
IdleSlicePoint RunIdleSlicePoint(bool idle_slice, bool quick) {
  const uint32_t kObjects = 8;
  const uint32_t kBurst = quick ? 256 : 1024;
  const uint32_t kMaintEvery = 64;
  const SimDuration kWindow = kMinute;

  ServerOptions options;
  options.disk_bytes = 256ull << 20;
  options.detection_window = kWindow;
  auto server = MakeServer(ServerKind::kS4Nas, options);
  S4Drive* drive = server->drive.get();
  Credentials user;
  user.user = 100;
  user.client = 1;

  // Build an expirable backlog: version chains spanning 1.5 windows, so the
  // passes taken during the burst do real reclamation work.
  std::vector<ObjectId> ids;
  for (uint32_t i = 0; i < kObjects; ++i) {
    auto id = drive->Create(user, {});
    S4_CHECK(id.ok());
    ids.push_back(*id);
  }
  Bytes block(4096, 0x6C);
  const SimDuration kSpacing = 10 * kSecond;
  for (uint64_t step = 0; step < (kWindow + kWindow / 2) / kSpacing; ++step) {
    server->clock->Advance(kSpacing);
    block[0] = static_cast<uint8_t>(step);
    for (ObjectId id : ids) {
      S4_CHECK(drive->Write(user, id, 0, block).ok());
    }
    S4_CHECK(drive->Sync(user).ok());
  }

  const uint64_t passes0 = drive->metrics().CounterValue("cleaner.passes");
  std::mutex mu;
  std::vector<SimDuration> sojourns;
  sojourns.reserve(kBurst);
  IdleSlicePoint p;
  {
    DriveExecutor::Options eopts;
    eopts.workers = 1;
    DriveExecutor exec(server->clock.get(), {drive}, eopts);
    if (idle_slice) {
      exec.AttachMaintenance(0, [drive] {
        auto r = drive->RunCleanerPass(1, /*force_compaction=*/true);
        return r.ok() && drive->CleanerNeeded();
      });
    }
    SimClock* clock = server->clock.get();
    const SimTime t0 = clock->Now();
    for (uint32_t i = 0; i < kBurst; ++i) {
      if (i % kMaintEvery == 0) {
        if (idle_slice) {
          exec.SubmitMaintenance(0);
        } else {
          exec.Submit(0, 0, DriveExecutor::Mode::kExclusive, [drive] {
            S4_CHECK(drive->RunCleanerPass(1, /*force_compaction=*/true).ok());
          });
        }
      }
      const ObjectId id = ids[i % ids.size()];
      exec.Submit(0, id, DriveExecutor::Mode::kExclusive,
                  [drive, clock, id, t0, &block, &user, &mu, &sojourns] {
                    S4_CHECK(drive->Write(user, id, 0, block).ok());
                    std::lock_guard<std::mutex> lock(mu);
                    sojourns.push_back(clock->Now() - t0);
                  });
    }
    exec.Drain();
  }
  S4_CHECK(sojourns.size() == kBurst);
  std::sort(sojourns.begin(), sojourns.end());
  p.fg_p99_us = static_cast<double>(sojourns[(kBurst * 99) / 100 - 1]);
  p.fg_makespan_s = ToSeconds(sojourns.back());
  p.cleaner_passes = drive->metrics().CounterValue("cleaner.passes") - passes0;
  return p;
}

void RunIdleSliceComparison(BenchReport& report) {
  const IdleSlicePoint idle = RunIdleSlicePoint(/*idle_slice=*/true, report.quick());
  const IdleSlicePoint inl = RunIdleSlicePoint(/*idle_slice=*/false, report.quick());
  std::printf("\n=== Idle-slice cleaning vs inline: foreground tail ===\n");
  std::printf("%12s %14s %16s %14s\n", "mode", "fg p99 (us)", "fg makespan (s)",
              "cleaner passes");
  std::printf("%12s %14.0f %16.3f %14llu\n", "idle-slice", idle.fg_p99_us,
              idle.fg_makespan_s, static_cast<unsigned long long>(idle.cleaner_passes));
  std::printf("%12s %14.0f %16.3f %14llu\n", "inline", inl.fg_p99_us,
              inl.fg_makespan_s, static_cast<unsigned long long>(inl.cleaner_passes));
  report.Metric("idle_slice.fg_p99_us", idle.fg_p99_us, "us", Better::kLower);
  report.Metric("idle_slice.inline_fg_p99_us", inl.fg_p99_us, "us", Better::kLower);
  report.Metric("idle_slice.fg_makespan_s", idle.fg_makespan_s, "s", Better::kLower);
  report.Metric("idle_slice.inline_fg_makespan_s", inl.fg_makespan_s, "s", Better::kLower);
  report.Metric("idle_slice.cleaner_passes", idle.cleaner_passes, "count", Better::kHigher);
  report.Metric("idle_slice.inline_cleaner_passes", inl.cleaner_passes, "count",
                Better::kHigher);
  // Moving cleaning to idle slices must not regress the foreground p99.
  report.Metric("idle_slice.fg_p99_over_inline_us", idle.fg_p99_us - inl.fg_p99_us, "us",
                Better::kLower);
  report.Gate("idle_slice.fg_p99_over_inline_us", "<=", 0);
}

void RunSteadyStateSweep(BenchReport& report) {
  const SteadyState st = RunSteadyState(report);
  std::printf("\n=== Steady-state cleaning: log-order sweep ===\n");
  std::printf("%8s %16s %16s %17s %16s %15s %14s\n", "passes", "segments swept",
              "sectors scanned", "sectors appended", "jsectors decoded", "expiry sim ms",
              "freed sectors");
  std::printf("%8llu %16llu %16llu %17llu %16llu %15.1f %14llu\n",
              static_cast<unsigned long long>(st.passes),
              static_cast<unsigned long long>(st.segments_swept),
              static_cast<unsigned long long>(st.sectors_scanned),
              static_cast<unsigned long long>(st.sectors_appended),
              static_cast<unsigned long long>(st.journal_sectors_decoded), st.expiry_sim_ms,
              static_cast<unsigned long long>(st.freed_sectors));
  report.Metric("steady.passes", st.passes, "count", Better::kHigher);
  report.Metric("steady.segments_swept", st.segments_swept, "count", Better::kLower);
  report.Metric("steady.sectors_scanned", st.sectors_scanned, "count", Better::kLower);
  report.Metric("steady.sectors_appended", st.sectors_appended, "count", Better::kLower);
  report.Metric("steady.journal_sectors_decoded", st.journal_sectors_decoded, "count",
                Better::kLower);
  report.Metric("steady.expiry_sim_ms", st.expiry_sim_ms, "ms", Better::kLower);
  report.Metric("steady.freed_sectors", st.freed_sectors, "count", Better::kHigher);
  // No log sector is read twice: the passes scan at most what was appended
  // since the warm-up pass plus one segment.
  report.Metric("steady.scan_excess_sectors",
                static_cast<double>(st.sectors_scanned) -
                    static_cast<double>(st.sectors_appended + st.segment_sectors),
                "count", Better::kLower);
  report.Gate("steady.scan_excess_sectors", "<=", 0);
}

void PrintFigure5(BenchReport& report) {
  std::printf("\n=== Figure 5: foreground cleaning overhead vs. utilisation ===\n");
  std::printf("(PostMark, %u transactions, %lluMB disk)\n\n", kTransactions,
              static_cast<unsigned long long>(kDiskBytes >> 20));
  std::printf("%12s %18s %18s %12s\n", "utilisation", "no-clean (tx/s)", "cleaning (tx/s)",
              "overhead");
  auto tps = [](const Point& p) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f", p.tx_per_sec);
    return p.disk_full ? std::string("disk full") : std::string(buf);
  };
  const auto& off = g_series[false];
  const auto& on = g_series[true];
  for (size_t i = 0; i < off.size() && i < on.size(); ++i) {
    std::printf("%11.0f%% %18s %18s", off[i].utilization * 100, tps(off[i]).c_str(),
                tps(on[i]).c_str());
    if (!off[i].disk_full && !on[i].disk_full) {
      double overhead = off[i].tx_per_sec > 0
                            ? 100.0 * (1.0 - on[i].tx_per_sec / off[i].tx_per_sec)
                            : 0.0;
      std::printf(" %11.1f%%", overhead);
    }
    std::printf("\n");
  }
  for (bool cleaning : {false, true}) {
    for (const Point& p : g_series[cleaning]) {
      JsonFields row = {{"target_util_pct", p.target_percent},
                        {"util", p.utilization},
                        {"cleaning", cleaning},
                        {"disk_full", p.disk_full}};
      if (!p.disk_full) {
        row.emplace_back("tx_per_s", p.tx_per_sec);
        report.Metric("figure5.util" + std::to_string(p.target_percent) +
                          (cleaning ? ".clean_on" : ".clean_off") + ".tx_per_s",
                      p.tx_per_sec, "1/s", Better::kHigher);
      }
      report.Row("figure5", row);
    }
  }
  std::printf("\nExpected shape (paper): throughput falls with utilisation; continuous\n"
              "foreground cleaning costs up to ~50%% at high utilisation, and the extra\n"
              "utilisation contributed by the history pool adds ~10%% more cleaning\n"
              "overhead (the section 5.1.5 example).\n");
}

}  // namespace
}  // namespace bench
}  // namespace s4

int main(int argc, char** argv) {
  s4::bench::BenchReport report("cleaner", &argc, argv);
  for (bool cleaning : {false, true}) {
    for (uint32_t util : s4::bench::UtilizationTargets(report.quick())) {
      std::string name = "Cleaner/util:" + std::to_string(util) + "/clean:" +
                         (cleaning ? "on" : "off");
      ::benchmark::RegisterBenchmark(name.c_str(),
                                     [util, cleaning](::benchmark::State& state) {
                                       s4::bench::RunPoint(state, util, cleaning);
                                     })
          ->UseManualTime()
          ->Iterations(1)
          ->Unit(::benchmark::kSecond);
    }
  }
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  s4::bench::PrintFigure5(report);
  s4::bench::RunIdleSliceComparison(report);
  s4::bench::RunSteadyStateSweep(report);
  return report.Finish();
}
