// DriveExecutor concurrency benchmarks: aggregate throughput scaling of an
// eight-drive array as the worker pool grows (W=1/2/4), and pure read
// scaling over the same eight drives.
//
// Unlike bench_cluster (which reconstructs a parallel makespan from serial,
// attributed busy time), this bench runs REAL worker threads: drive d is
// bound to worker d % W, each worker runs its drives' tasks in submission
// order on its own SimClock lane, and after Drain() the global clock sits at
// the true overlapped makespan. The scaling numbers therefore measure the
// concurrency substrate itself — per-worker FIFO, cross-drive overlap,
// idle-slice maintenance — not a post-hoc model. Only maintenance placement
// depends on host timing; every elapsed time and speedup is identical from
// run to run.
//
// Phase 1 (scaling): identical per-drive PostMark-style transaction streams
// (read one object + append to another, periodic Sync barriers, periodic
// cleaner maintenance requests) are pushed through DriveExecutor::SubmitFrame
// at W=1, 2, 4. Each worker serves 8/W drives one task at a time, and
// workers overlap, so aggregate throughput should comfortably exceed 2x at
// W=4.
//
// Phase 2 (read scaling): a pure read stream over eight drives, no
// mutations. Reads take the drive's ordinary read path (cache insertion and
// audit included), so W=4 isolates how reads scale across drives.
//
// Usage: bench_concurrency [--quick] [--check]
//   --quick  smaller transaction counts (CI)
//   --check  exit non-zero unless W=4 aggregate throughput >= 2x W=1
//            (phase 1) and W=4 read throughput >= 1.5x W=1 (phase 2)
// Other flags are ignored. Writes BENCH_concurrency.json.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/drive/s4_drive.h"
#include "src/exec/drive_executor.h"
#include "src/rpc/messages.h"
#include "src/rpc/transport.h"
#include "src/sim/block_device.h"
#include "src/sim/sim_clock.h"
#include "src/util/check.h"

namespace s4 {
namespace bench {
namespace {

constexpr size_t kDrives = 8;

Credentials UserCreds() {
  Credentials c;
  c.user = 100;
  c.client = 1;
  return c;
}

Bytes ReadFrame(ObjectId id, uint64_t offset, uint64_t len) {
  RpcRequest req;
  req.op = RpcOp::kRead;
  req.creds = UserCreds();
  req.object = id;
  req.offset = offset;
  req.length = len;
  return req.Encode();
}

Bytes AppendFrame(ObjectId id, uint64_t len, uint8_t fill) {
  RpcRequest req;
  req.op = RpcOp::kAppend;
  req.creds = UserCreds();
  req.object = id;
  req.data.assign(len, fill);
  return req.Encode();
}

Bytes SyncFrame() {
  RpcRequest req;
  req.op = RpcOp::kSync;
  req.creds = UserCreds();
  return req.Encode();
}

// A multi-drive rig on one shared clock: the unit the executor schedules.
struct Rig {
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
  std::vector<std::vector<ObjectId>> objects;  // per drive

  std::vector<S4Drive*> drive_ptrs() const {
    std::vector<S4Drive*> out;
    for (const auto& d : drives) {
      out.push_back(d.get());
    }
    return out;
  }
};

std::unique_ptr<Rig> MakeRig(size_t n_drives, uint32_t objects_per_drive,
                             uint32_t object_bytes) {
  auto rig = std::make_unique<Rig>();
  rig->clock = std::make_unique<SimClock>(SimTime{0});
  for (size_t i = 0; i < n_drives; ++i) {
    rig->devices.push_back(
        std::make_unique<BlockDevice>((256ull << 20) / kSectorSize, rig->clock.get()));
    auto drive = S4Drive::Format(rig->devices.back().get(), rig->clock.get(), rig->opts);
    S4_CHECK(drive.ok());
    rig->drives.push_back(std::move(*drive));
    rig->servers.push_back(
        std::make_unique<S4RpcServer>(rig->drives.back().get(), static_cast<int32_t>(i)));
  }
  // Populate serially (no executor yet): the measured phase starts from a
  // synced, cache-cold-ish state identical for every worker count.
  rig->objects.resize(n_drives);
  for (size_t d = 0; d < n_drives; ++d) {
    for (uint32_t i = 0; i < objects_per_drive; ++i) {
      auto id = rig->drives[d]->Create(UserCreds(), {});
      S4_CHECK(id.ok());
      Bytes payload(object_bytes, static_cast<uint8_t>('a' + (i % 23)));
      S4_CHECK(rig->drives[d]->Write(UserCreds(), *id, 0, payload).ok());
      rig->objects[d].push_back(*id);
    }
    S4_CHECK(rig->drives[d]->Sync(UserCreds()).ok());
  }
  return rig;
}

struct ScalePoint {
  int workers = 0;
  uint64_t ops = 0;          // foreground frames completed
  uint64_t maint_slices = 0;
  double elapsed_s = 0;      // simulated makespan (clock delta over the phase)
  double ops_per_s = 0;
  double busy_sum_s = 0;     // total device busy time across drives
  double busy_max_s = 0;     // busiest device (the scaling bound)
};

// --- Phase 1: multi-drive transaction scaling --------------------------------

ScalePoint RunScale(int workers, bool quick) {
  const uint32_t kObjects = quick ? 128 : 384;       // per drive
  const uint32_t kObjectBytes = 4096;
  const uint32_t kAppendBytes = 1024;
  const uint32_t kTransactions = quick ? 300 : 1200;  // per drive

  auto rig = MakeRig(kDrives, kObjects, kObjectBytes);

  DriveExecutor::Options eopts;
  eopts.workers = workers;
  DriveExecutor exec(rig->clock.get(), rig->drive_ptrs(), eopts);
  for (size_t d = 0; d < kDrives; ++d) {
    S4Drive* drive = rig->drives[d].get();
    exec.AttachMaintenance(static_cast<int>(d), [drive] {
      auto r = drive->RunCleanerPass(1);
      return r.ok() && drive->CleanerNeeded();
    });
  }

  // Identical deterministic streams for every worker count; only the overlap
  // differs. Submission happens outside any lane, so it costs no sim time.
  std::vector<uint64_t> rng(kDrives);
  for (size_t d = 0; d < kDrives; ++d) {
    rng[d] = 0x5eedull * (d + 1);
  }
  auto next = [&rng](size_t d) {
    rng[d] = rng[d] * 6364136223846793005ull + 1442695040888963407ull;
    return rng[d] >> 33;
  };

  const SimTime start = rig->clock->Now();
  std::vector<DiskStats> disk0;
  for (const auto& dev : rig->devices) {
    disk0.push_back(dev->stats());
  }
  uint64_t submitted = 0;
  for (uint32_t t = 0; t < kTransactions; ++t) {
    for (size_t d = 0; d < kDrives; ++d) {
      const std::vector<ObjectId>& objs = rig->objects[d];
      ObjectId r = objs[next(d) % objs.size()];
      ObjectId w = objs[next(d) % objs.size()];
      int di = static_cast<int>(d);
      exec.SubmitFrame(di, rig->servers[d].get(), ReadFrame(r, 0, kObjectBytes));
      exec.SubmitFrame(di, rig->servers[d].get(), AppendFrame(w, kAppendBytes, 'x'));
      submitted += 2;
      if (t % 64 == 0) {
        exec.SubmitMaintenance(di);
      }
      if (t % 128 == 127) {
        exec.SubmitFrame(di, rig->servers[d].get(), SyncFrame());
        ++submitted;
      }
    }
  }
  for (size_t d = 0; d < kDrives; ++d) {
    exec.SubmitFrame(static_cast<int>(d), rig->servers[d].get(), SyncFrame());
    ++submitted;
  }
  exec.Drain();

  ScalePoint p;
  p.workers = workers;
  for (size_t d = 0; d < kDrives; ++d) {
    p.ops += exec.completed(static_cast<int>(d));
    p.maint_slices += exec.maintenance_slices(static_cast<int>(d));
  }
  S4_CHECK(p.ops == submitted);
  p.elapsed_s = ToSeconds(rig->clock->Now() - start);
  p.ops_per_s = p.elapsed_s > 0 ? static_cast<double>(p.ops) / p.elapsed_s : 0;
  for (size_t d = 0; d < kDrives; ++d) {
    double b = ToSeconds((rig->devices[d]->stats() - disk0[d]).busy_time);
    p.busy_sum_s += b;
    p.busy_max_s = std::max(p.busy_max_s, b);
    std::printf("  drive %zu: busy %.3fs\n", d, b);
  }
  return p;
}

// --- Phase 2: read scaling (reads only) ---------------------------------------

// Pure reads over eight drives, no mutations: isolates the read path. Each
// drive serves its reads one at a time, so W=4 overlaps reads across the
// array. (A SINGLE drive would always measure ~1x.) Reads are spread evenly
// over the drives, and at W=4 each worker serves two of them, so the
// workers carry equal shares.
ScalePoint RunReadOverlap(int workers, bool quick) {
  const uint32_t kObjects = quick ? 300 : 600;  // x4KB: ~1.2-2.4MB > 1MB cache
  const uint32_t kObjectBytes = 4096;
  const uint32_t kReads = quick ? 1200 : 4800;  // total, spread across drives

  auto rig = MakeRig(kDrives, kObjects, kObjectBytes);
  DriveExecutor::Options eopts;
  eopts.workers = workers;
  DriveExecutor exec(rig->clock.get(), rig->drive_ptrs(), eopts);

  uint64_t rng = 0xfeedull;
  auto next = [&rng] {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return rng >> 33;
  };

  const SimTime start = rig->clock->Now();
  std::vector<DiskStats> disk0;
  for (const auto& dev : rig->devices) {
    disk0.push_back(dev->stats());
  }
  for (uint32_t i = 0; i < kReads; ++i) {
    const size_t d = i % kDrives;
    const std::vector<ObjectId>& objs = rig->objects[d];
    exec.SubmitFrame(static_cast<int>(d), rig->servers[d].get(),
                     ReadFrame(objs[next() % objs.size()], 0, kObjectBytes));
  }
  exec.Drain();

  ScalePoint p;
  p.workers = workers;
  for (size_t d = 0; d < kDrives; ++d) {
    p.ops += exec.completed(static_cast<int>(d));
  }
  S4_CHECK(p.ops == kReads);
  p.elapsed_s = ToSeconds(rig->clock->Now() - start);
  p.ops_per_s = p.elapsed_s > 0 ? static_cast<double>(p.ops) / p.elapsed_s : 0;
  for (size_t d = 0; d < kDrives; ++d) {
    double b = ToSeconds((rig->devices[d]->stats() - disk0[d]).busy_time);
    p.busy_sum_s += b;
    p.busy_max_s = std::max(p.busy_max_s, b);
    std::printf("  read drive %zu: busy %.3fs\n", d, b);
  }
  return p;
}

// --- Reporting ---------------------------------------------------------------

void Run(BenchReport& report) {
  const bool quick = report.quick();
  std::vector<ScalePoint> scaling;
  for (int w : {1, 2, 4}) {
    std::printf("bench_concurrency: scaling run W=%d (8 drives)...\n", w);
    scaling.push_back(RunScale(w, quick));
  }
  std::printf("bench_concurrency: read scaling (8 drives, W=1 vs W=4)...\n");
  ScalePoint read1 = RunReadOverlap(1, quick);
  ScalePoint read4 = RunReadOverlap(4, quick);

  double speedup = scaling.front().ops_per_s > 0
                       ? scaling.back().ops_per_s / scaling.front().ops_per_s
                       : 0;
  double read_speedup = read4.ops_per_s > 0 && read1.ops_per_s > 0
                            ? read4.ops_per_s / read1.ops_per_s
                            : 0;

  std::printf("\n=== Executor scaling (8 drives, lane-overlapped makespan) ===\n");
  std::printf("%4s %8s %12s %10s %8s %11s %11s %10s\n", "W", "ops", "elapsed(s)",
              "ops/sec", "maint", "busy_sum(s)", "busy_max(s)", "speedup");
  for (const ScalePoint& p : scaling) {
    std::printf("%4d %8llu %12.3f %10.1f %8llu %11.3f %11.3f %9.2fx\n", p.workers,
                static_cast<unsigned long long>(p.ops), p.elapsed_s, p.ops_per_s,
                static_cast<unsigned long long>(p.maint_slices), p.busy_sum_s,
                p.busy_max_s,
                scaling.front().ops_per_s > 0 ? p.ops_per_s / scaling.front().ops_per_s
                                              : 0);
    // maint_slices stays out of the metrics: idle-slice placement depends on
    // host timing, and the metrics must be identical from run to run.
    report.Row("scaling", {{"workers", p.workers},
                           {"drives", kDrives},
                           {"ops", p.ops},
                           {"elapsed_s", p.elapsed_s},
                           {"ops_per_s", p.ops_per_s},
                           {"maint_slices", p.maint_slices},
                           {"busy_sum_s", p.busy_sum_s},
                           {"busy_max_s", p.busy_max_s}});
    const std::string w = "w" + std::to_string(p.workers) + ".";
    report.Metric(w + "ops", p.ops, "count", Better::kHigher);
    report.Metric(w + "elapsed_s", p.elapsed_s, "s", Better::kLower);
    report.Metric(w + "ops_per_s", p.ops_per_s, "1/s", Better::kHigher);
  }
  std::printf("\n=== Read scaling (8 drives, reads only) ===\n");
  std::printf("W=1 %.3fs vs W=4 %.3fs over %llu reads (%.2fx)\n", read1.elapsed_s,
              read4.elapsed_s, static_cast<unsigned long long>(read1.ops), read_speedup);

  report.Metric("speedup_4x", speedup, "x", Better::kHigher);
  report.Metric("read.reads", read1.ops, "count", Better::kHigher);
  report.Metric("read.w1_elapsed_s", read1.elapsed_s, "s", Better::kLower);
  report.Metric("read.w4_elapsed_s", read4.elapsed_s, "s", Better::kLower);
  report.Metric("read.speedup", read_speedup, "x", Better::kHigher);
  report.Gate("speedup_4x", ">=", 2.0);
  // Phase 2's gate is a serialization tripwire, not a throughput target: if
  // reads on different drives ever took ordering edges against each other
  // this ratio collapses to ~1.0x. The ratio is deterministic and bounded
  // by the busiest worker's share of the read time, so it can sit below
  // 4x without any serialization; 1.5x is far from both.
  report.Gate("read.speedup", ">=", 1.5);
}

}  // namespace
}  // namespace bench
}  // namespace s4

int main(int argc, char** argv) {
  s4::bench::BenchReport report("concurrency", &argc, argv);
  s4::bench::Run(report);
  return report.Finish();
}
