// executor_mix: bench_concurrency's phase 1 at full length, the only workload
// that exercises src/exec.
//
// Eight drives (384 objects of 4 KB each, small caches so the platters work)
// behind a DriveExecutor with four workers. Per drive, 1,200 transactions of
// read-one-object + append-to-another, a Sync every 128 transactions,
// maintenance (cleaner) requests every 64, and a final Sync: 19,280 frames.
// Frames are queued with Classify + Submit, exactly as SubmitFrame does, so
// that each frame's simulated latency can be taken as its service time on its
// worker's clock lane. Simulated results depend on how worker threads interleave, so they
// are reported as medians over repetitions, not gated for determinism.
#include <algorithm>
#include <string>

#include "perfbench/report.h"
#include "perfbench/stack.h"
#include "perfbench/workload.h"
#include "src/exec/drive_executor.h"
#include "src/rpc/messages.h"

namespace perfbench {
namespace {

constexpr size_t kDrives = 8;
constexpr uint32_t kObjects = 384;  // per drive
constexpr uint32_t kObjectBytes = 4096;
constexpr uint32_t kAppendBytes = 1024;
constexpr uint32_t kTransactions = 1200;  // per drive
constexpr int kWorkers = 4;

struct Rig {
  std::unique_ptr<s4::SimClock> clock;
  std::unique_ptr<SpanLog> log;  // null unless traced
  std::vector<std::unique_ptr<s4::BlockDevice>> devices;
  std::vector<std::unique_ptr<s4::S4Drive>> drives;
  std::vector<std::unique_ptr<s4::S4RpcServer>> servers;
  std::vector<std::vector<s4::ObjectId>> objects;  // per drive

  Subjects subjects() const {
    Subjects s;
    for (const auto& d : drives) s.drives.push_back(d.get());
    for (const auto& d : devices) s.devices.push_back(d.get());
    return s;
  }
};

s4::Bytes Frame(s4::RpcOp op, s4::ObjectId id, uint64_t length) {
  s4::RpcRequest req;
  req.op = op;
  req.creds = UserCreds();
  req.object = id;
  if (op == s4::RpcOp::kRead) req.length = length;
  if (op == s4::RpcOp::kAppend) req.data.assign(length, 'x');
  return req.Encode();
}

// One frame of the stream and what its response must look like.
struct Pending {
  int drive = 0;
  s4::Bytes frame;
  uint64_t read_bytes = 0;  // expected payload of a read, 0 otherwise
  bool then_maintenance = false;  // request a cleaner slice after submitting
};

}  // namespace

RepResult RunExecutorMix(const RepOptions& opts) {
  RepResult rep;
  rep.deterministic = false;
  HostTimer setup_timer;
  setup_timer.Start();
  Rig rig;
  rig.clock = std::make_unique<s4::SimClock>(s4::SimTime{0});
  if (opts.traced) rig.log = std::make_unique<SpanLog>(rig.clock.get());
  s4::S4DriveOptions drive_opts;
  drive_opts.segment_sectors = 512;  // 256 KB
  drive_opts.block_cache_bytes = 1 << 20;
  drive_opts.object_cache_bytes = 64 << 10;
  drive_opts.checkpoint_interval_bytes = 4 << 20;
  rig.objects.resize(kDrives);
  for (size_t d = 0; d < kDrives; ++d) {
    rig.devices.push_back(
        std::make_unique<s4::BlockDevice>((256ull << 20) / s4::kSectorSize, rig.clock.get()));
    auto drive = s4::S4Drive::Format(rig.devices.back().get(), rig.clock.get(), drive_opts);
    S4_CHECK(drive.ok());
    rig.drives.push_back(std::move(*drive));
    rig.servers.push_back(
        std::make_unique<s4::S4RpcServer>(rig.drives.back().get(), static_cast<int32_t>(d)));
    for (uint32_t i = 0; i < kObjects; ++i) {
      auto id = rig.drives[d]->Create(UserCreds(), {});
      S4_CHECK(id.ok());
      s4::Bytes payload(kObjectBytes, static_cast<uint8_t>('a' + (i % 23)));
      S4_CHECK(rig.drives[d]->Write(UserCreds(), *id, 0, payload).ok());
      rig.objects[d].push_back(*id);
    }
    S4_CHECK(rig.drives[d]->Sync(UserCreds()).ok());
  }
  // The stream is generated up front from the seed, so only the overlap (not
  // the work) can differ between repetitions.
  std::vector<Pending> stream;
  std::vector<uint64_t> rng(kDrives);
  for (size_t d = 0; d < kDrives; ++d) rng[d] = (opts.seed + 0x5eedull) * (d + 1);
  auto next = [&rng](size_t d) {
    rng[d] = rng[d] * 6364136223846793005ull + 1442695040888963407ull;
    return rng[d] >> 33;
  };
  for (uint32_t t = 0; t < kTransactions; ++t) {
    for (size_t d = 0; d < kDrives; ++d) {
      const std::vector<s4::ObjectId>& objs = rig.objects[d];
      const int di = static_cast<int>(d);
      const s4::ObjectId r = objs[next(d) % objs.size()];
      const s4::ObjectId w = objs[next(d) % objs.size()];
      stream.push_back({di, Frame(s4::RpcOp::kRead, r, kObjectBytes), kObjectBytes});
      stream.push_back({di, Frame(s4::RpcOp::kAppend, w, kAppendBytes), 0, t % 64 == 0});
      if (t % 128 == 127) stream.push_back({di, Frame(s4::RpcOp::kSync, 0, 0), 0});
    }
  }
  for (size_t d = 0; d < kDrives; ++d) {
    stream.push_back({static_cast<int>(d), Frame(s4::RpcOp::kSync, 0, 0), 0});
  }
  rep.setup_cpu_s = setup_timer.Lap();
  if (opts.setup_only) return rep;

  SpanLog* log = rig.log.get();
  const Subjects subjects = rig.subjects();
  const Counters before = ReadCounters(subjects);
  const s4::SimTime start = rig.clock->Now();
  std::vector<SimDuration> latency(stream.size());
  std::vector<uint8_t> ok(stream.size());
  uint64_t completed = 0;
  uint64_t maint_slices = 0;
  SetActive(log, true);
  CpuMarks cpu;
  cpu.Start();
  {
    s4::DriveExecutor::Options eopts;
    eopts.workers = kWorkers;
    s4::DriveExecutor exec(rig.clock.get(), subjects.drives, eopts);
    for (size_t d = 0; d < kDrives; ++d) {
      s4::S4Drive* drive = rig.drives[d].get();
      exec.AttachMaintenance(static_cast<int>(d), [drive] {
        auto r = drive->RunCleanerPass(1);
        return r.ok() && drive->CleanerNeeded();
      });
    }
    for (size_t i = 0; i < stream.size(); ++i) {
      Pending& p = stream[i];
      uint64_t stripe = 0;
      s4::DriveExecutor::Mode mode = s4::DriveExecutor::Mode::kBarrier;
      s4::DriveExecutor::Classify(s4::PeekRequestFrame(p.frame), &stripe, &mode);
      s4::S4RpcServer* server = rig.servers[static_cast<size_t>(p.drive)].get();
      s4::SimClock* clock = rig.clock.get();
      SimDuration* lat = &latency[i];
      uint8_t* good = &ok[i];
      const uint64_t read_bytes = p.read_bytes;
      {
        Timed span(log, "exec.Submit");
        exec.Submit(p.drive, stripe, mode,
                    [server, clock, lat, good, read_bytes, frame = std::move(p.frame)] {
                      const s4::SimTime t0 = clock->Now();
                      s4::Bytes response = server->Handle(frame);
                      *lat = clock->Now() - t0;
                      auto resp = s4::RpcResponse::Decode(response);
                      *good = resp.ok() && resp->ok() &&
                              (read_bytes == 0 || resp->data.size() == read_bytes);
                    });
      }
      if (p.then_maintenance) {
        Timed span(log, "exec.Maintenance");
        exec.SubmitMaintenance(p.drive);
      }
    }
    {
      Timed span(log, "exec.Drain");
      exec.Drain();
    }
    for (size_t d = 0; d < kDrives; ++d) {
      completed += exec.completed(static_cast<int>(d));
      maint_slices += exec.maintenance_slices(static_cast<int>(d));
    }
  }
  cpu.Mark();
  rep.cpu_marks = cpu.marks();
  rep.raw_cpu_s = cpu.raw_total();
  SetActive(log, false);
  rep.sim_elapsed = rig.clock->Now() - start;
  const Counters after = ReadCounters(subjects);
  rep.ops = completed;
  rep.op_lat = std::move(latency);
  rep.attempted = stream.size();
  rep.failed = static_cast<uint64_t>(std::count(ok.begin(), ok.end(), 0));
  rep.space_amp = SpaceAmplification(subjects);
  if (completed != stream.size()) {
    rep.gate_failures.push_back("executor completed " + std::to_string(completed) + " of " +
                                std::to_string(stream.size()) + " frames");
  }
  if (opts.traced) {
    LayerInputs in;
    in.delta = after - before;
    in.log = log;
    in.ops = rep.ops;
    in.sim_elapsed = rep.sim_elapsed;
    in.user_bytes_written = uint64_t{kDrives} * kTransactions * kAppendBytes;
    rep.layers = LayerMetrics(in);
    const double elapsed = static_cast<double>(rep.sim_elapsed);
    const SimDuration busiest =
        *std::max_element(in.delta.device_busy.begin(), in.delta.device_busy.end());
    rep.layers["exec.frames"] = Metric{static_cast<double>(completed), "count"};
    rep.layers["exec.maint_slices"] = Metric{static_cast<double>(maint_slices), "count"};
    rep.layers["exec.device_busy_share"] =
        Metric{static_cast<double>(in.delta.DiskBusy()) / (elapsed * kDrives), "ratio"};
    rep.layers["exec.busiest_device_share"] =
        Metric{static_cast<double>(busiest) / elapsed, "ratio"};
    rep.layers["exec.submit_blocked_host_ms"] =
        Metric{static_cast<double>(log->Sum("exec.Submit").host_ns) / 1e6, "ms"};
    rep.layers["exec.drain_host_ms"] =
        Metric{static_cast<double>(log->Sum("exec.Drain").host_ns) / 1e6, "ms"};
    FinishTrace(*log, opts, &rep);
  }
  for (size_t d = 0; d < kDrives; ++d) {
    s4::LoopbackTransport admin_link(rig.servers[d].get(), rig.clock.get());
    CheckAudit(rig.drives[d].get(), &admin_link, "drive " + std::to_string(d),
               &rep.gate_failures);
  }
  return rep;
}

}  // namespace perfbench
