// array_postmark: PostMark on S4FileSystem in group-commit mode
// (group_commit_ops=32, batch_rpcs) over a four-drive ShardRouter with parity.
//
// PostMark runs at half paper size (2,500 files, 10,000 transactions): every
// version is kept for the 7-day window, so at paper size the four simulated
// disks hold over 1 GB of log; half size keeps the process under 0.9 GB and
// leaves room for two repetitions per run. Set-up is format + PostMark's create phase. The
// measured phase is the transaction phase (ShardRouter::MaintainShards every
// 50 transactions), a commit, a healthy scan that reads every file
// (ReadDir, GetAttr, ReadFile), then FailShard(1) and the same scan again,
// degraded. The degraded scan must return bytes identical to the healthy one.
#include <algorithm>
#include <map>
#include <string>

#include "perfbench/report.h"
#include "perfbench/stack.h"
#include "perfbench/workload.h"
#include "src/cluster/shard_router.h"
#include "src/fs/s4_fs.h"
#include "src/workload/postmark.h"

namespace perfbench {
namespace {

constexpr size_t kShards = 4;
constexpr uint32_t kFailedShard = 1;

struct Array {
  std::unique_ptr<s4::SimClock> clock;
  std::unique_ptr<SpanLog> log;  // null unless traced
  std::vector<std::unique_ptr<s4::BlockDevice>> devices;
  std::vector<std::unique_ptr<s4::S4Drive>> drives;
  std::vector<std::unique_ptr<s4::S4RpcServer>> servers;
  std::vector<std::unique_ptr<s4::LoopbackTransport>> transports;
  std::vector<std::unique_ptr<TransportProbe>> transport_probes;
  std::unique_ptr<s4::ShardRouter> router;
  std::unique_ptr<ClientProbe> router_probe;
  std::unique_ptr<s4::S4FileSystem> fs;

  Subjects subjects() const {
    Subjects s;
    for (const auto& d : drives) s.drives.push_back(d.get());
    for (const auto& d : devices) s.devices.push_back(d.get());
    s.fs = fs.get();
    s.router = router.get();
    return s;
  }
  uint64_t frames() const {
    uint64_t n = 0;
    for (const auto& p : transport_probes) n += p->calls();
    return n;
  }
};

std::unique_ptr<Array> MakeArray(bool traced) {
  auto a = std::make_unique<Array>();
  a->clock = std::make_unique<s4::SimClock>(s4::SimTime{0});
  if (traced) a->log = std::make_unique<SpanLog>(a->clock.get());
  // Each shard is configured like postmark_nas's drive.
  s4::S4DriveOptions drive_opts;
  drive_opts.block_cache_bytes = 64ull << 20;
  drive_opts.object_cache_bytes = 32ull << 20;
  std::vector<s4::ShardEndpoint> eps;
  for (size_t i = 0; i < kShards; ++i) {
    a->devices.push_back(
        std::make_unique<s4::BlockDevice>((512ull << 20) / s4::kSectorSize, a->clock.get()));
    auto drive = s4::S4Drive::Format(a->devices.back().get(), a->clock.get(), drive_opts);
    S4_CHECK(drive.ok());
    a->drives.push_back(std::move(*drive));
    a->servers.push_back(
        std::make_unique<s4::S4RpcServer>(a->drives.back().get(), static_cast<int32_t>(i)));
    a->transports.push_back(std::make_unique<s4::LoopbackTransport>(
        a->servers.back().get(), a->clock.get(), s4::NetModel(), "shard" + std::to_string(i)));
    s4::ShardEndpoint ep;
    ep.drive = a->drives.back().get();
    ep.transport = a->transports.back().get();
    if (traced) {
      a->transport_probes.push_back(std::make_unique<TransportProbe>(
          ep.transport, a->log.get(), static_cast<int32_t>(i)));
      ep.transport = a->transport_probes.back().get();
    }
    eps.push_back(ep);
  }
  s4::ShardRouter::Options ropts;
  ropts.admin_key = drive_opts.admin_key;
  ropts.parity_enabled = true;
  auto router = s4::ShardRouter::Format(std::move(eps), a->clock.get(), UserCreds(), ropts);
  S4_CHECK(router.ok());
  a->router = std::move(*router);
  s4::S4ClientApi* api = a->router.get();
  if (traced) {
    a->router_probe = std::make_unique<ClientProbe>(api, a->log.get(), /*cluster=*/true);
    api = a->router_probe.get();
  }
  s4::S4FileSystemOptions fs_opts;
  fs_opts.group_commit_ops = 32;
  fs_opts.batch_rpcs = true;
  auto fs = s4::S4FileSystem::Format(api, "root", fs_opts);
  S4_CHECK(fs.ok());
  a->fs = std::move(*fs);
  return a;
}

struct Scan {
  std::map<std::string, s4::Bytes> files;  // "dir/name" -> content
  uint64_t degraded_frames = 0;            // shard frames spent on degraded reads
};

// Reads every file under every directory of the root. Reads of files homed on
// `failed_shard` (when set) are timed into `degraded_lat`.
s4::Status ScanAll(FsProbe* fs, const Array& a, int failed_shard,
                   std::vector<SimDuration>* degraded_lat, Scan* out) {
  S4_ASSIGN_OR_RETURN(s4::FileHandle root, fs->Root());
  S4_ASSIGN_OR_RETURN(std::vector<s4::DirEntry> dirs, fs->ReadDir(root));
  for (const s4::DirEntry& dir : dirs) {
    if (dir.type != s4::FileType::kDirectory) continue;
    S4_ASSIGN_OR_RETURN(std::vector<s4::DirEntry> entries, fs->ReadDir(dir.handle));
    for (const s4::DirEntry& e : entries) {
      if (e.type != s4::FileType::kFile) continue;
      S4_ASSIGN_OR_RETURN(s4::FileAttr attr, fs->GetAttr(e.handle));
      const s4::ShardMap::GidInfo* info = a.router->map().Find(e.handle);
      const bool degraded = info != nullptr && static_cast<int>(info->shard) == failed_shard;
      const s4::SimTime t0 = a.clock->Now();
      const uint64_t frames0 = a.frames();
      S4_ASSIGN_OR_RETURN(s4::Bytes data, fs->ReadFile(e.handle, 0, attr.size));
      if (degraded) {
        degraded_lat->push_back(a.clock->Now() - t0);
        out->degraded_frames += a.frames() - frames0;
      }
      out->files[dir.name + "/" + e.name] = std::move(data);
    }
  }
  return s4::Status::Ok();
}

}  // namespace

RepResult RunArrayPostmark(const RepOptions& opts) {
  RepResult rep;
  HostTimer setup_timer;
  setup_timer.Start();
  auto a = MakeArray(opts.traced);
  SpanLog* log = a->log.get();
  FsProbe probe(a->fs.get(), a->clock.get(), log);
  s4::PostMarkConfig config;
  config.file_count = 2500;
  config.transactions = 10000;
  config.seed = opts.seed;
  config.cleaner_hook = [router = a->router.get(), log] {
    Timed span(log, "cluster.MaintainShards");
    S4_CHECK(router->MaintainShards().ok());
  };
  s4::PostMark postmark(&probe, a->clock.get(), config);
  auto created = postmark.RunCreateOnly();
  S4_CHECK(created.ok());
  S4_CHECK(a->fs->Commit().ok());
  rep.setup_cpu_s = setup_timer.Lap();
  if (opts.setup_only) return rep;

  const Subjects subjects = a->subjects();
  const Counters before = ReadCounters(subjects);
  const s4::SimTime start = a->clock->Now();
  Scan healthy;
  Scan degraded;
  SetActive(log, true);
  probe.set_sampling(true);
  auto txn = postmark.RunTransactionsOnly();
  s4::Status status = txn.status();
  if (status.ok()) {
    Timed span(log, "fs.Commit");
    status = a->fs->Commit();
  }
  if (status.ok()) status = ScanAll(&probe, *a, -1, &rep.degraded_lat, &healthy);
  a->router->FailShard(kFailedShard);
  if (status.ok()) status = ScanAll(&probe, *a, kFailedShard, &rep.degraded_lat, &degraded);
  probe.cpu_marks().Mark();
  probe.set_sampling(false);
  SetActive(log, false);
  rep.sim_elapsed = a->clock->Now() - start;
  const Counters after = ReadCounters(subjects);
  rep.ops = config.transactions + healthy.files.size() + degraded.files.size();
  rep.cpu_marks = probe.cpu_marks().marks();
  rep.raw_cpu_s = probe.cpu_marks().raw_total();
  rep.op_lat = probe.samples();
  rep.attempted = rep.op_lat.size();
  rep.failed = probe.failed();
  rep.space_amp = SpaceAmplification(subjects);

  if (!status.ok()) {
    rep.gate_failures.push_back("measured phase failed: " + status.ToString());
  } else {
    const uint64_t expected = created->files_created + txn->files_created - txn->files_deleted;
    if (healthy.files.size() != expected) {
      rep.gate_failures.push_back("healthy scan found " + std::to_string(healthy.files.size()) +
                                  " files, expected created - deleted = " +
                                  std::to_string(expected));
    }
    if (degraded.files != healthy.files) {
      rep.gate_failures.push_back("degraded scan differs from the healthy scan");
    }
    if (rep.degraded_lat.empty()) {
      rep.gate_failures.push_back("no file was homed on the failed shard");
    }
  }
  if (opts.traced) {
    LayerInputs in;
    in.delta = after - before;
    in.log = log;
    in.ops = rep.ops;
    in.sim_elapsed = rep.sim_elapsed;
    in.user_bytes_written = probe.bytes_written();
    in.client = a->router_probe.get();
    for (const auto& p : a->transport_probes) in.transports.push_back(p.get());
    rep.layers = LayerMetrics(in);
    rep.layers["cluster.degraded_fetches_per_read"] =
        Metric{static_cast<double>(degraded.degraded_frames) /
                   static_cast<double>(std::max<size_t>(rep.degraded_lat.size(), 1)),
               "ratio"};
    FinishTrace(*log, opts, &rep);
  }
  for (size_t i = 0; i < kShards; ++i) {
    CheckAudit(a->drives[i].get(), a->transports[i].get(), "shard " + std::to_string(i),
               &rep.gate_failures);
  }
  return rep;
}

}  // namespace perfbench
