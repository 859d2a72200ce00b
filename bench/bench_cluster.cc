// ShardRouter array benchmarks: aggregate throughput scaling (N=1/2/4),
// degraded-read penalty after a device loss, and rebuild interference on
// foreground traffic.
//
// The router overlaps the requests it fans out to several shards (a batch's
// per-shard envelopes, a Sync, a degraded read's fetches) on clock lanes, so
// measured elapsed time already includes that overlap. But one closed-loop
// client still waits for every call's slowest shard before it issues the
// next, which an array serving many clients would not. The gated number is
// therefore the parallel makespan bound
//
//     makespan = outside + max(busy)
//
// where busy is each shard's lane time (the router's attributed_busy) and
// outside is the clock advance the loop spends outside router calls
// (client-side time, serial on any array; this loop makes only router
// calls, so it is zero). Measured elapsed throughput is reported alongside.
//
// N=1 runs with parity disabled (a one-drive array has nothing to pair a
// parity object with); N=2/4 pay full parity maintenance, so the scaling
// numbers include the redundancy tax.
//
// Usage: bench_cluster [--quick] [--check]
//   --quick  smaller PostMark configuration (CI)
//   --check  exit non-zero unless N=4 aggregate throughput >= 2.5x N=1, the
//            rebuild completed within its per-tick byte budget, and degraded
//            reads cost more than healthy ones
// Writes BENCH_cluster.json.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/cluster/shard_router.h"
#include "src/rpc/transport.h"
#include "src/sim/block_device.h"
#include "src/sim/sim_clock.h"
#include "src/util/check.h"
#include "src/workload/postmark.h"

namespace s4 {
namespace bench {
namespace {

Bytes Payload(size_t n, char fill) { return Bytes(n, static_cast<uint8_t>(fill)); }

// One N-drive array: drives, RPC plumbing, router. Mirrors the single-drive
// bench harness but with per-shard endpoints so the network model, like the
// drives, is per-device (and therefore parallel under the makespan model).
struct Cluster {
  std::unique_ptr<SimClock> clock;
  // Small caches so the working set actually hits the platters: the point of
  // the scaling runs is device-time overlap, which a cache that swallows the
  // whole object set would hide.
  S4DriveOptions opts = [] {
    S4DriveOptions o;
    o.segment_sectors = 512;  // 256KB
    o.block_cache_bytes = 1 << 20;
    o.object_cache_bytes = 64 << 10;
    o.checkpoint_interval_bytes = 4 << 20;
    return o;
  }();
  std::vector<std::unique_ptr<BlockDevice>> devices;
  std::vector<std::unique_ptr<S4Drive>> drives;
  std::vector<std::unique_ptr<S4RpcServer>> servers;
  std::vector<std::unique_ptr<LoopbackTransport>> transports;
  std::unique_ptr<ShardRouter> router;

  size_t AddDrive() {
    size_t i = devices.size();
    devices.push_back(
        std::make_unique<BlockDevice>((512ull << 20) / kSectorSize, clock.get()));
    auto drive = S4Drive::Format(devices.back().get(), clock.get(), opts);
    S4_CHECK(drive.ok());
    drives.push_back(std::move(*drive));
    servers.push_back(
        std::make_unique<S4RpcServer>(drives.back().get(), static_cast<int32_t>(i)));
    transports.push_back(std::make_unique<LoopbackTransport>(
        servers.back().get(), clock.get(), NetModel(), "shard" + std::to_string(i)));
    return i;
  }

  ShardEndpoint Endpoint(size_t i) {
    ShardEndpoint ep;
    ep.drive = drives[i].get();
    ep.transport = transports[i].get();
    return ep;
  }
};

std::unique_ptr<Cluster> MakeCluster(size_t n, bool parity) {
  auto c = std::make_unique<Cluster>();
  c->clock = std::make_unique<SimClock>(SimTime{0});
  for (size_t i = 0; i < n; ++i) {
    c->AddDrive();
  }
  std::vector<ShardEndpoint> eps;
  for (size_t i = 0; i < n; ++i) {
    eps.push_back(c->Endpoint(i));
  }
  Credentials user;
  user.user = 100;
  user.client = 1;
  ShardRouter::Options ropts;
  ropts.admin_key = c->opts.admin_key;
  ropts.parity_enabled = parity;
  auto router = ShardRouter::Format(std::move(eps), c->clock.get(), user, ropts);
  S4_CHECK(router.ok());
  c->router = std::move(*router);
  return c;
}

// Busy-time snapshot for makespan reconstruction over a phase.
struct BusySnapshot {
  std::vector<SimDuration> busy;
  SimTime start = 0;
};

BusySnapshot Snap(const Cluster& c) {
  return BusySnapshot{c.router->attributed_busy(), c.clock->Now()};
}

struct Makespan {
  double elapsed_s = 0;   // measured simulated time
  double makespan_s = 0;  // parallel bound: outside + max(busy)
  double max_busy_s = 0;  // busiest shard (the scaling bound)
};

// `in_router` is the clock advance spent inside router calls since `s0`;
// the rest of the elapsed time is client-side and stays serial.
Makespan MeasureSince(const Cluster& c, const BusySnapshot& s0, SimDuration in_router) {
  SimDuration elapsed = c.clock->Now() - s0.start;
  const std::vector<SimDuration>& busy = c.router->attributed_busy();
  SimDuration mx = 0;
  for (size_t i = 0; i < busy.size(); ++i) {
    mx = std::max(mx, busy[i] - (i < s0.busy.size() ? s0.busy[i] : 0));
  }
  Makespan m;
  m.elapsed_s = ToSeconds(elapsed);
  m.makespan_s = ToSeconds(elapsed - in_router + mx);
  m.max_busy_s = ToSeconds(mx);
  return m;
}

int64_t PercentileUs(std::vector<SimDuration> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  return v[idx];
}

// --- Phase 1: PostMark-style scaling ----------------------------------------

struct ScalePoint {
  size_t n = 0;
  bool parity = false;
  uint32_t transactions = 0;
  Makespan txn;
  double tx_per_s = 0;          // over the makespan (gated)
  double elapsed_tx_per_s = 0;  // over measured elapsed time (report only)
  uint64_t parity_deltas = 0;
};

// PostMark transaction mix issued directly against the object API: each
// transaction reads one object and appends to (or rewrites a block of)
// another, the same read/append pairing PostMark's transaction phase uses.
// Running the raw object plane keeps every shard's work attributable to the
// router, which is what the makespan model needs.
struct ObjectSet {
  std::vector<ObjectId> ids;
  std::vector<uint64_t> sizes;
};

ObjectSet Populate(Cluster& c, uint32_t count, uint32_t object_bytes) {
  ObjectSet set;
  for (uint32_t i = 0; i < count; ++i) {
    auto id = c.router->Create({});
    S4_CHECK(id.ok());
    S4_CHECK(c.router->Write(*id, 0, Payload(object_bytes, 'a' + (i % 23))).ok());
    set.ids.push_back(*id);
    set.sizes.push_back(object_bytes);
  }
  S4_CHECK(c.router->Sync().ok());
  return set;
}

ScalePoint RunScale(size_t n, bool quick) {
  const uint32_t kObjects = quick ? 400 : 1200;
  const uint32_t kTransactions = quick ? 4000 : 20000;
  const uint32_t kObjectBytes = 4096;
  const uint32_t kAppendBytes = 1024;

  auto c = MakeCluster(n, /*parity=*/n > 1);
  ObjectSet set = Populate(*c, kObjects, kObjectBytes);

  uint64_t rng = 0x5eedul * (n + 1);
  auto next = [&rng] {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return rng >> 33;
  };

  BusySnapshot snap = Snap(*c);
  SimDuration in_router = 0;
  auto routed = [&](auto call) {
    SimTime t0 = c->clock->Now();
    auto result = call();
    in_router += c->clock->Now() - t0;
    return result;
  };
  for (uint32_t t = 0; t < kTransactions; ++t) {
    size_t r = next() % set.ids.size();
    size_t w = next() % set.ids.size();
    // PostMark pairs a read with an append per transaction (no overwrites in
    // the transaction phase); appends are also the parity-friendly case — the
    // XOR delta needs no old-data read.
    auto data = routed([&] { return c->router->Read(set.ids[r], 0, kObjectBytes); });
    S4_CHECK(data.ok());
    auto sz = routed([&] { return c->router->Append(set.ids[w], Payload(kAppendBytes, 'x')); });
    S4_CHECK(sz.ok());
    set.sizes[w] = *sz;
    if (t % 64 == 0) {
      S4_CHECK(routed([&] { return c->router->MaintainShards(); }).ok());
    }
  }
  S4_CHECK(routed([&] { return c->router->Sync(); }).ok());

  ScalePoint point;
  point.n = n;
  point.parity = n > 1;
  point.transactions = kTransactions;
  point.txn = MeasureSince(*c, snap, in_router);
  point.tx_per_s =
      point.txn.makespan_s > 0 ? kTransactions / point.txn.makespan_s : 0;
  point.elapsed_tx_per_s =
      point.txn.elapsed_s > 0 ? kTransactions / point.txn.elapsed_s : 0;
  point.parity_deltas = c->router->rstats().parity_deltas;
  return point;
}

// --- Phase 2: degraded-read penalty -----------------------------------------

struct DegradedResult {
  double healthy_read_us = 0;
  double degraded_read_us = 0;
  double penalty_x = 0;
};

// --- Phase 3: rebuild interference ------------------------------------------

struct RebuildResult {
  uint64_t budget_bytes = 0;
  uint64_t ticks = 0;
  uint64_t bytes_reconstructed = 0;
  uint64_t entries = 0;
  double avg_tick_bytes = 0;
  int64_t baseline_p99_us = 0;    // foreground op p99, shard down but no rebuild
  int64_t foreground_p99_us = 0;  // foreground op p99 while rebuilding
  double interference_x = 0;
  bool completed = false;
  // Average tick bytes beyond the budget; a tick may overshoot by the final
  // entry it starts (one object plus its lane record), never by more.
  double over_budget_bytes = 0;
};

// Phases 2+3 share one 4-shard array: measure reads healthy, kill a shard,
// measure the same reads degraded, then attach a spare and rebuild under
// foreground traffic.
void RunDegradedAndRebuild(bool quick, DegradedResult* degraded, RebuildResult* rebuild) {
  const size_t kShards = 4;
  const uint32_t kObjects = quick ? 64 : 160;
  const uint32_t kObjectBytes = 4096;
  const size_t kFailed = 1;

  auto c = MakeCluster(kShards, /*parity=*/true);
  ObjectSet set = Populate(*c, kObjects, kObjectBytes);

  // Objects homed on the shard we are about to lose (their reads go
  // degraded) and on survivors (safe foreground targets during rebuild).
  std::vector<ObjectId> on_failed;
  std::vector<ObjectId> on_survivors;
  for (ObjectId id : set.ids) {
    const ShardMap::GidInfo* info = c->router->map().Find(id);
    S4_CHECK(info != nullptr);
    (info->shard == kFailed ? on_failed : on_survivors).push_back(id);
  }
  S4_CHECK(!on_failed.empty());
  S4_CHECK(!on_survivors.empty());

  auto timed_read = [&](ObjectId id) {
    SimTime t0 = c->clock->Now();
    auto data = c->router->Read(id, 0, kObjectBytes);
    S4_CHECK(data.ok());
    S4_CHECK(data->size() == kObjectBytes);
    return c->clock->Now() - t0;
  };

  // Foreground mix used for the interference baseline and during rebuild:
  // read one survivor object, append to another. No creates — a create whose
  // gid routes to the rebuilding shard is refused (kUnavailable) by design.
  uint64_t rng = 0xfeedul;
  auto next = [&rng] {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return rng >> 33;
  };
  auto foreground_op = [&](std::vector<SimDuration>* lat) {
    SimTime t0 = c->clock->Now();
    auto data = c->router->Read(on_survivors[next() % on_survivors.size()], 0, 512);
    S4_CHECK(data.ok());
    auto sz =
        c->router->Append(on_survivors[next() % on_survivors.size()], Payload(512, 'f'));
    S4_CHECK(sz.ok());
    // Durable op, like the paper's synchronous NFS-backed workloads: the
    // flush cost lands inside every sample instead of spiking the unlucky op
    // that happens to fill the in-memory segment.
    S4_CHECK(c->router->Sync().ok());
    lat->push_back(c->clock->Now() - t0);
  };

  // Healthy read latency (mean over the soon-to-be-degraded set).
  SimDuration healthy_total = 0;
  for (ObjectId id : on_failed) {
    healthy_total += timed_read(id);
  }

  c->router->FailShard(kFailed);

  SimDuration degraded_total = 0;
  for (ObjectId id : on_failed) {
    degraded_total += timed_read(id);
  }

  // Interference baseline: the foreground mix in the same degraded state the
  // rebuild will run in (parity subs to the dead shard are skipped either
  // way), but with no rebuild I/O competing. A short warmup first so both
  // measured loops run against warmed caches.
  std::vector<SimDuration> warmup_lat;
  for (int i = 0; i < 32; ++i) {
    foreground_op(&warmup_lat);
  }
  std::vector<SimDuration> baseline_lat;
  const int kBaselineOps = quick ? 64 : 200;
  for (int i = 0; i < kBaselineOps; ++i) {
    foreground_op(&baseline_lat);
  }
  degraded->healthy_read_us =
      static_cast<double>(healthy_total) / static_cast<double>(on_failed.size());
  degraded->degraded_read_us =
      static_cast<double>(degraded_total) / static_cast<double>(on_failed.size());
  degraded->penalty_x = degraded->healthy_read_us > 0
                            ? degraded->degraded_read_us / degraded->healthy_read_us
                            : 0;

  // Attach a freshly formatted spare and rebuild under budget, pumping the
  // foreground mix between ticks.
  size_t spare = c->AddDrive();
  S4_CHECK(c->router->AttachSpare(kFailed, c->Endpoint(spare)).ok());
  rebuild->budget_bytes = quick ? 8ull << 10 : 16ull << 10;

  std::vector<SimDuration> rebuild_lat;
  bool done = false;
  while (!done) {
    auto tick = c->router->RebuildTick(rebuild->budget_bytes);
    S4_CHECK(tick.ok());
    done = *tick;
    foreground_op(&rebuild_lat);
    foreground_op(&rebuild_lat);
    S4_CHECK(c->router->rebuild_progress().ticks < 100000 || done);
  }
  const RebuildProgress& prog = c->router->rebuild_progress();
  rebuild->ticks = prog.ticks;
  rebuild->bytes_reconstructed = prog.bytes_reconstructed;
  rebuild->entries = prog.entries_done;
  rebuild->avg_tick_bytes =
      prog.ticks > 0 ? static_cast<double>(prog.bytes_reconstructed) / prog.ticks : 0;
  rebuild->baseline_p99_us = PercentileUs(baseline_lat, 0.99);
  rebuild->foreground_p99_us = PercentileUs(rebuild_lat, 0.99);
  rebuild->interference_x =
      rebuild->baseline_p99_us > 0
          ? static_cast<double>(rebuild->foreground_p99_us) / rebuild->baseline_p99_us
          : 0;
  rebuild->completed = done;
  rebuild->over_budget_bytes =
      rebuild->avg_tick_bytes -
      static_cast<double>(rebuild->budget_bytes + kObjectBytes + kParityDataOffset);

  // The rebuilt shard must serve every lost object's content directly again.
  for (ObjectId id : on_failed) {
    auto data = c->router->Read(id, 0, kObjectBytes);
    S4_CHECK(data.ok());
    S4_CHECK(data->size() == kObjectBytes);
  }
  S4_CHECK(c->router->rstats().degraded_reads > 0);
}

// --- Reporting ---------------------------------------------------------------

void Run(BenchReport& report) {
  const bool quick = report.quick();
  std::vector<ScalePoint> scaling;
  for (size_t n : {size_t{1}, size_t{2}, size_t{4}}) {
    std::printf("bench_cluster: scaling run N=%zu%s...\n", n,
                n > 1 ? " (parity on)" : " (parity off)");
    scaling.push_back(RunScale(n, quick));
  }

  DegradedResult degraded;
  RebuildResult rebuild;
  std::printf("bench_cluster: degraded + rebuild phases (N=4)...\n");
  RunDegradedAndRebuild(quick, &degraded, &rebuild);

  double speedup = scaling.front().tx_per_s > 0
                       ? scaling.back().tx_per_s / scaling.front().tx_per_s
                       : 0;
  double elapsed_speedup =
      scaling.front().elapsed_tx_per_s > 0
          ? scaling.back().elapsed_tx_per_s / scaling.front().elapsed_tx_per_s
          : 0;

  std::printf("\n=== ShardRouter scaling (transaction mix, parallel makespan) ===\n");
  std::printf("%4s %8s %8s %12s %12s %10s %10s %14s %10s\n", "N", "parity", "txns",
              "elapsed(s)", "makespan(s)", "tx/sec", "speedup", "elapsed tx/s",
              "speedup");
  for (const ScalePoint& p : scaling) {
    const ScalePoint& one = scaling.front();
    std::printf("%4zu %8s %8u %12.2f %12.2f %10.1f %9.2fx %14.1f %9.2fx\n", p.n,
                p.parity ? "yes" : "no", p.transactions, p.txn.elapsed_s,
                p.txn.makespan_s, p.tx_per_s,
                one.tx_per_s > 0 ? p.tx_per_s / one.tx_per_s : 0, p.elapsed_tx_per_s,
                one.elapsed_tx_per_s > 0 ? p.elapsed_tx_per_s / one.elapsed_tx_per_s : 0);
    report.Row("scaling", {{"n", p.n},
                           {"parity", p.parity},
                           {"transactions", p.transactions},
                           {"elapsed_s", p.txn.elapsed_s},
                           {"makespan_s", p.txn.makespan_s},
                           {"max_busy_s", p.txn.max_busy_s},
                           {"tx_per_s", p.tx_per_s},
                           {"elapsed_tx_per_s", p.elapsed_tx_per_s},
                           {"parity_deltas", p.parity_deltas}});
    const std::string n = "n" + std::to_string(p.n) + ".";
    report.Metric(n + "tx_per_s", p.tx_per_s, "1/s", Better::kHigher);
    report.Metric(n + "elapsed_tx_per_s", p.elapsed_tx_per_s, "1/s", Better::kHigher);
  }
  std::printf("\n=== Degraded reads (one shard lost, XOR reconstruction) ===\n");
  std::printf("healthy %.0fus -> degraded %.0fus  (penalty %.2fx)\n",
              degraded.healthy_read_us, degraded.degraded_read_us, degraded.penalty_x);
  std::printf("\n=== Online rebuild (budget %llu KB/tick) ===\n",
              static_cast<unsigned long long>(rebuild.budget_bytes >> 10));
  std::printf("%llu entries in %llu ticks, %.1f KB/tick avg (%s), foreground p99 "
              "%lldus vs %lldus degraded-idle (%.2fx)\n",
              static_cast<unsigned long long>(rebuild.entries),
              static_cast<unsigned long long>(rebuild.ticks),
              rebuild.avg_tick_bytes / 1024.0,
              rebuild.over_budget_bytes <= 0 ? "under budget" : "OVER BUDGET",
              static_cast<long long>(rebuild.foreground_p99_us),
              static_cast<long long>(rebuild.baseline_p99_us), rebuild.interference_x);

  report.Metric("speedup_4x", speedup, "x", Better::kHigher);
  report.Metric("elapsed_speedup_4x", elapsed_speedup, "x", Better::kHigher);
  report.Metric("degraded.healthy_read_us", degraded.healthy_read_us, "us", Better::kLower);
  report.Metric("degraded.degraded_read_us", degraded.degraded_read_us, "us", Better::kLower);
  report.Metric("degraded.penalty_x", degraded.penalty_x, "x", Better::kLower);
  report.Metric("rebuild.budget_bytes", rebuild.budget_bytes, "bytes", Better::kLower);
  report.Metric("rebuild.ticks", rebuild.ticks, "count", Better::kLower);
  report.Metric("rebuild.bytes_reconstructed", rebuild.bytes_reconstructed, "bytes",
                Better::kLower);
  report.Metric("rebuild.entries", rebuild.entries, "count", Better::kLower);
  report.Metric("rebuild.avg_tick_bytes", rebuild.avg_tick_bytes, "bytes", Better::kLower);
  report.Metric("rebuild.baseline_p99_us", rebuild.baseline_p99_us, "us", Better::kLower);
  report.Metric("rebuild.foreground_p99_us", rebuild.foreground_p99_us, "us", Better::kLower);
  report.Metric("rebuild.interference_x", rebuild.interference_x, "x", Better::kLower);
  report.Metric("rebuild.completed", rebuild.completed, "bool", Better::kHigher);
  report.Metric("rebuild.over_budget_bytes", rebuild.over_budget_bytes, "bytes",
                Better::kLower);
  report.Gate("speedup_4x", ">=", 2.5);
  report.Gate("rebuild.completed", ">=", 1);
  report.Gate("rebuild.over_budget_bytes", "<=", 0);
  // Reconstruction is not free: a penalty of 1x or less means the bench
  // measured nothing.
  report.Gate("degraded.penalty_x", ">", 1.0);
}

}  // namespace
}  // namespace bench
}  // namespace s4

// A deterministic phase sweep, not a google-benchmark registration: other
// flags (e.g. google-benchmark ones CI passes to sibling benches) are ignored.
int main(int argc, char** argv) {
  s4::bench::BenchReport report("cluster", &argc, argv);
  s4::bench::Run(report);
  return report.Finish();
}
