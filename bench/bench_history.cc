// Back-in-time access cost vs. version depth: journal sectors read to
// reconstruct an old version, with and without the waypoint index.
//
// Backward undo reconstruction reads every journal sector newer than the
// target, so its cost grows linearly with how far back the target lies. The
// waypoint index bounds time-limited walks and lets deep targets be rebuilt
// by forward replay from the create end, making the cost O(log n + K) in
// chain depth. This bench sweeps the depth (versions between the target and
// the present) and reports the walk-sectors-read metric for both
// configurations, plus the read's simulated time. The deepest depth that ran
// is the headline number and the gate: the waypoint index must read >= 10x
// fewer sectors there (depth 10k at full size, 1k with --quick).
//
// Deliberately no remount between build and measure: a cold mount would
// rebuild the object's in-memory state by replaying the whole chain, dwarfing
// and masking the reconstruction walk this bench isolates.
//
// Usage: bench_history [--quick] [--check] [google-benchmark flags]
//   --check  exit non-zero when the deepest point misses the 10x gate
// Writes BENCH_history.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"

namespace s4 {
namespace bench {
namespace {

std::vector<uint64_t> DepthTargets(bool quick) {
  if (quick) {
    return {10, 100, 1000};
  }
  return {10, 100, 1000, 10000};
}

struct Point {
  uint64_t depth = 0;
  uint64_t sectors_waypoints = 0;   // walk sectors read, waypoint index on
  uint64_t sectors_baseline = 0;    // same read, index disabled
  double read_sim_ms_waypoints = 0;
  double read_sim_ms_baseline = 0;
};
std::vector<Point> g_points;

// One configuration: builds a fresh drive, lays down `depth + 8` synced
// versions of one object, then reads back the version at `depth` writes
// before the present. Returns the walk sectors read and the read's simulated
// millis (its CPU charge while the walk hits the journal-sector cache). With
// a `report`, the server's stats land in it too.
struct Measured {
  uint64_t sectors = 0;
  double read_sim_ms = 0;
};
Measured MeasureDepth(uint64_t depth, uint32_t waypoint_interval, BenchReport* report) {
  ServerOptions options;
  options.disk_bytes = 2ull << 30;
  options.cleaner_enabled = false;  // nothing may expire mid-measurement
  options.tweak_drive_options = [waypoint_interval](S4DriveOptions& o) {
    o.waypoint_interval_sectors = waypoint_interval;
  };
  auto server = MakeServer(ServerKind::kS4Nas, options);
  S4Drive* drive = server->drive.get();
  Credentials user;
  user.user = 100;
  user.client = 1;

  auto id = drive->Create(user, {});
  S4_CHECK(id.ok());
  // Each loop iteration is one durable version: a one-block overwrite plus a
  // Sync that flushes the journal. The target version sits `depth` versions
  // before the newest.
  Bytes block(kBlockSize, 0x00);
  SimTime target_time = 0;
  uint64_t total = depth + 8;  // a small pre-target prefix, then the depth
  for (uint64_t v = 0; v < total; ++v) {
    server->clock->Advance(kSecond);
    block[0] = static_cast<uint8_t>(v);
    S4_CHECK(drive->Write(user, *id, 0, block).ok());
    S4_CHECK(drive->Sync(user).ok());
    if (v == total - depth - 1) {
      target_time = server->clock->Now();
    }
  }

  const MetricRegistry& reg = drive->metrics();
  uint64_t sectors_before = reg.CounterValue("history.walk_sectors_read");
  SimTime sim_before = server->clock->Now();
  Credentials admin;
  admin.admin_key = drive->options().admin_key;
  auto got = drive->Read(admin, *id, 0, kBlockSize, target_time);
  S4_CHECK(got.ok());
  S4_CHECK((*got)[0] == static_cast<uint8_t>(total - depth - 1));

  Measured m;
  m.sectors = reg.CounterValue("history.walk_sectors_read") - sectors_before;
  m.read_sim_ms = ToMillis(server->clock->Now() - sim_before);
  if (report != nullptr) {
    report->Server("waypoints", *server);
  }
  return m;
}

// The deepest point's waypoint run is the server the report dumps.
void RunPoint(::benchmark::State& state, uint64_t depth, BenchReport* deepest_report) {
  for (auto _ : state) {
    Point p;
    p.depth = depth;
    Measured with = MeasureDepth(depth, /*waypoint_interval=*/8, deepest_report);
    Measured without = MeasureDepth(depth, /*waypoint_interval=*/0, nullptr);
    p.sectors_waypoints = with.sectors;
    p.sectors_baseline = without.sectors;
    p.read_sim_ms_waypoints = with.read_sim_ms;
    p.read_sim_ms_baseline = without.read_sim_ms;
    g_points.push_back(p);
    state.SetIterationTime(std::max(with.read_sim_ms, 0.001) / 1e3);
    state.counters["sectors_wp"] = static_cast<double>(with.sectors);
    state.counters["sectors_base"] = static_cast<double>(without.sectors);
  }
}

void Report(BenchReport& report) {
  std::printf("\n=== Back-in-time access cost vs. version depth ===\n");
  std::printf("%8s %16s %16s %10s %18s %18s\n", "depth", "sectors (wp)",
              "sectors (base)", "ratio", "read sim ms (wp)", "read sim ms (base)");
  for (const Point& p : g_points) {
    double ratio = p.sectors_waypoints > 0
                       ? static_cast<double>(p.sectors_baseline) / p.sectors_waypoints
                       : 0.0;
    std::printf("%8llu %16llu %16llu %9.1fx %18.3f %18.3f\n",
                static_cast<unsigned long long>(p.depth),
                static_cast<unsigned long long>(p.sectors_waypoints),
                static_cast<unsigned long long>(p.sectors_baseline), ratio,
                p.read_sim_ms_waypoints, p.read_sim_ms_baseline);
    report.Row("depths", {{"depth", p.depth},
                          {"walk_sectors_waypoints", p.sectors_waypoints},
                          {"walk_sectors_baseline", p.sectors_baseline},
                          {"ratio", ratio},
                          {"read_sim_ms_waypoints", p.read_sim_ms_waypoints},
                          {"read_sim_ms_baseline", p.read_sim_ms_baseline}});
    const std::string d = "depth" + std::to_string(p.depth) + ".";
    report.Metric(d + "walk_sectors_waypoints", p.sectors_waypoints, "count", Better::kLower);
    report.Metric(d + "walk_sectors_baseline", p.sectors_baseline, "count", Better::kLower);
    report.Metric(d + "ratio", ratio, "x", Better::kHigher);
    report.Metric(d + "read_sim_ms_waypoints", p.read_sim_ms_waypoints, "ms", Better::kLower);
  }
  std::printf("\nExpected shape: baseline sectors grow linearly with depth; the waypoint\n"
              "configuration stays near-flat (seek overshoot bounded by the interval), so\n"
              "the ratio at the deepest point should be well past the 10x gate.\n");
  // The gate: at the deepest depth that ran, the baseline reads at least 10x
  // the sectors the waypoint index does.
  if (!g_points.empty()) {
    const Point& deepest = g_points.back();
    report.Metric("deepest.sectors_beyond_10x",
                  static_cast<double>(deepest.sectors_baseline) -
                      10.0 * static_cast<double>(deepest.sectors_waypoints),
                  "count", Better::kHigher);
  }
  report.Gate("deepest.sectors_beyond_10x", ">=", 0);
}

}  // namespace
}  // namespace bench
}  // namespace s4

int main(int argc, char** argv) {
  s4::bench::BenchReport report("history", &argc, argv);
  const std::vector<uint64_t> depths = s4::bench::DepthTargets(report.quick());
  for (uint64_t depth : depths) {
    std::string name = "History/depth:" + std::to_string(depth);
    ::benchmark::RegisterBenchmark(name.c_str(),
                                   [depth, deepest = depth == depths.back() ? &report : nullptr](
                                       ::benchmark::State& state) {
                                     s4::bench::RunPoint(state, depth, deepest);
                                   })
        ->UseManualTime()
        ->Iterations(1)
        ->Unit(::benchmark::kMillisecond);
  }
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  s4::bench::Report(report);
  return report.Finish();
}
