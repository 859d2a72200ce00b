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
// Usage: bench_cleaner [--quick] [--check]
//   --check  exit non-zero when a gate fails (steady-state sweep reads a log
//            sector twice; idle-slice cleaning regresses foreground p99)
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
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
// Average PostMark file is ~4.9KB of data, but a create also appends a
// directory record (a fresh 4KB directory-block version whose predecessor
// joins the history pool) plus journal sectors: ~15KB of log per create.
constexpr uint64_t kBytesPerFile = 15 * 1024;

bool g_quick = false;
bool g_check = false;
bool g_gate_failed = false;

struct Point {
  double utilization = 0;
  double tx_per_sec = 0;
};
std::map<bool, std::vector<Point>> g_series;  // cleaning? -> points

std::vector<uint32_t> UtilizationTargets() {
  if (g_quick) {
    return {2, 30, 65};
  }
  return {2, 10, 30, 50, 65, 80};
}

void RunPoint(::benchmark::State& state, uint32_t util_percent, bool cleaning) {
  for (auto _ : state) {
    ServerOptions options;
    options.disk_bytes = kDiskBytes;
    // Short enough that versions age out during the run, so the cleaner has
    // real reclamation work whose per-freed-byte cost grows with utilisation
    // (the classic LFS cleaning economics the paper measures).
    options.detection_window = kMinute;
    auto server = MakeServer(ServerKind::kS4Nfs, options);

    // Fill the disk to the target utilisation. A 15KB file lands on disk
    // with journal framing, directory metadata, and per-op audit-chronicle
    // records — measured at ~1.53x the payload — so derate the fill by that
    // factor; otherwise the high-utilisation points overshoot into a full
    // disk before the transaction phase. The figure plots *measured*
    // utilisation (the `util` counter), not the nominal target.
    constexpr uint64_t kOnDiskBytesPerFile = kBytesPerFile * 155 / 100;
    uint32_t files = static_cast<uint32_t>(kDiskBytes * util_percent / 100 /
                                           kOnDiskBytesPerFile);
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
    S4_CHECK(report.ok());
    double tps = report->TransactionsPerSecond(config.transactions);
    state.SetIterationTime(ToSeconds(report->transaction_phase));
    state.counters["util"] = utilization;
    state.counters["tx_per_s"] = tps;
    g_series[cleaning].push_back(Point{utilization, tps});
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
std::unique_ptr<Server> g_steady_server;  // for the JSON

SteadyState RunSteadyState() {
  const uint32_t kObjects = g_quick ? 4 : 6;
  const SimDuration kWindow = g_quick ? 10 * kMinute : 20 * kMinute;
  const SimDuration kSpacing = 10 * kSecond;
  const SimDuration kBuildSpan = kWindow + kWindow / 2;
  const int kPasses = g_quick ? 4 : 8;
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
  g_steady_server = std::move(server);
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
IdleSlicePoint g_idle_slice[2];  // [idle?]

IdleSlicePoint RunIdleSlicePoint(bool idle_slice) {
  const uint32_t kObjects = 8;
  const uint32_t kBurst = g_quick ? 256 : 1024;
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

void RunIdleSliceComparison() {
  g_idle_slice[1] = RunIdleSlicePoint(/*idle_slice=*/true);
  g_idle_slice[0] = RunIdleSlicePoint(/*idle_slice=*/false);
  const IdleSlicePoint& idle = g_idle_slice[1];
  const IdleSlicePoint& inl = g_idle_slice[0];
  std::printf("\n=== Idle-slice cleaning vs inline: foreground tail ===\n");
  std::printf("%12s %14s %16s %14s\n", "mode", "fg p99 (us)", "fg makespan (s)",
              "cleaner passes");
  std::printf("%12s %14.0f %16.3f %14llu\n", "idle-slice", idle.fg_p99_us,
              idle.fg_makespan_s, static_cast<unsigned long long>(idle.cleaner_passes));
  std::printf("%12s %14.0f %16.3f %14llu\n", "inline", inl.fg_p99_us,
              inl.fg_makespan_s, static_cast<unsigned long long>(inl.cleaner_passes));
  if (idle.fg_p99_us > inl.fg_p99_us) {
    std::printf("\n!! GATE: idle-slice foreground p99 %.0fus regressed past inline "
                "cleaning %.0fus\n", idle.fg_p99_us, inl.fg_p99_us);
    g_gate_failed = true;
  }
}

void RunSteadyStateSweep() {
  const SteadyState st = RunSteadyState();
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
  if (st.sectors_scanned > st.sectors_appended + st.segment_sectors) {
    std::printf("\n!! GATE: steady-state passes scanned %llu log sectors, more than the "
                "%llu appended since the warm-up pass plus one %llu-sector segment\n",
                static_cast<unsigned long long>(st.sectors_scanned),
                static_cast<unsigned long long>(st.sectors_appended),
                static_cast<unsigned long long>(st.segment_sectors));
    g_gate_failed = true;
  }
  if (g_steady_server != nullptr) {
    char extra[1024];
    std::string figure5;
    for (bool cleaning : {false, true}) {
      for (const Point& p : g_series[cleaning]) {
        char buf[160];
        std::snprintf(buf, sizeof(buf), "%s{\"util\": %.3f, \"tx_per_s\": %.1f, \"cleaning\": %s}",
                      figure5.empty() ? "" : ", ", p.utilization, p.tx_per_sec,
                      cleaning ? "true" : "false");
        figure5 += buf;
      }
    }
    std::snprintf(extra, sizeof(extra),
                  "\"cleaner\": {\"steady_state\": {\"passes\": %llu, "
                  "\"segments_swept\": %llu, \"sectors_scanned\": %llu, "
                  "\"sectors_appended\": %llu, \"journal_sectors_decoded\": %llu, "
                  "\"expiry_sim_ms\": %.1f, \"freed_sectors\": %llu}, "
                  "\"idle_slice\": {\"fg_p99_us\": %.0f, \"fg_p99_us_inline\": %.0f, "
                  "\"fg_makespan_s\": %.3f, \"inline_makespan_s\": %.3f, "
                  "\"passes\": %llu}, \"figure5\": [%s]}",
                  static_cast<unsigned long long>(st.passes),
                  static_cast<unsigned long long>(st.segments_swept),
                  static_cast<unsigned long long>(st.sectors_scanned),
                  static_cast<unsigned long long>(st.sectors_appended),
                  static_cast<unsigned long long>(st.journal_sectors_decoded), st.expiry_sim_ms,
                  static_cast<unsigned long long>(st.freed_sectors),
                  g_idle_slice[1].fg_p99_us, g_idle_slice[0].fg_p99_us,
                  g_idle_slice[1].fg_makespan_s, g_idle_slice[0].fg_makespan_s,
                  static_cast<unsigned long long>(g_idle_slice[1].cleaner_passes),
                  figure5.c_str());
    WriteBenchJson(*g_steady_server, "cleaner", extra);
    g_steady_server.reset();
  }
}

void PrintFigure5() {
  std::printf("\n=== Figure 5: foreground cleaning overhead vs. utilisation ===\n");
  std::printf("(PostMark, %u transactions, %lluMB disk)\n\n", kTransactions,
              static_cast<unsigned long long>(kDiskBytes >> 20));
  std::printf("%12s %18s %18s %12s\n", "utilisation", "no-clean (tx/s)", "cleaning (tx/s)",
              "overhead");
  const auto& off = g_series[false];
  const auto& on = g_series[true];
  for (size_t i = 0; i < off.size() && i < on.size(); ++i) {
    double overhead = off[i].tx_per_sec > 0
                          ? 100.0 * (1.0 - on[i].tx_per_sec / off[i].tx_per_sec)
                          : 0.0;
    std::printf("%11.0f%% %18.1f %18.1f %11.1f%%\n", off[i].utilization * 100,
                off[i].tx_per_sec, on[i].tx_per_sec, overhead);
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
  // Strip our own flags before handing argv to google-benchmark.
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      s4::bench::g_quick = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      s4::bench::g_check = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  for (bool cleaning : {false, true}) {
    for (uint32_t util : s4::bench::UtilizationTargets()) {
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
  s4::bench::PrintFigure5();
  s4::bench::RunIdleSliceComparison();
  s4::bench::RunSteadyStateSweep();
  return s4::bench::g_check && s4::bench::g_gate_failed ? 1 : 0;
}
