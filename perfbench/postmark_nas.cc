// postmark_nas: Figure 3's PostMark on S4-NAS at paper size.
//
// 5,000 files of 512 B-9 KB and 20,000 transactions through S4FileSystem with
// strict NFSv2 stable storage (a Sync RPC after every mutating op), over the
// 100 Mb network model, on a drive with a 64 MB block cache that holds the
// whole ~25 MB working set. The cleaner hook runs every 50 transactions, as
// in bench_postmark. Set-up is format + PostMark's create phase; the measured
// phase is the transaction phase (338.51 simulated seconds with seed 42).
#include <string>

#include "perfbench/report.h"
#include "perfbench/stack.h"
#include "perfbench/workload.h"
#include "src/fs/s4_fs.h"
#include "src/workload/postmark.h"

namespace perfbench {
namespace {

// The harness's idle-time maintenance: clean when the drive asks for it.
void CleanerTick(s4::S4Drive* drive, SpanLog* log) {
  bool needed = false;
  {
    Timed span(log, "drive.CleanerNeeded");
    needed = drive->CleanerNeeded();
  }
  if (needed) {
    Timed span(log, "drive.RunCleanerPass");
    S4_CHECK(drive->RunCleanerPass(2).ok());
  }
}

// Files found by walking every directory under the root.
s4::Result<uint64_t> CountLiveFiles(s4::FileSystemApi* fs) {
  S4_ASSIGN_OR_RETURN(s4::FileHandle root, fs->Root());
  S4_ASSIGN_OR_RETURN(std::vector<s4::DirEntry> dirs, fs->ReadDir(root));
  uint64_t files = 0;
  for (const s4::DirEntry& dir : dirs) {
    if (dir.type != s4::FileType::kDirectory) continue;
    S4_ASSIGN_OR_RETURN(std::vector<s4::DirEntry> entries, fs->ReadDir(dir.handle));
    for (const s4::DirEntry& e : entries) files += e.type == s4::FileType::kFile ? 1 : 0;
  }
  return files;
}

}  // namespace

RepResult RunPostmarkNas(const RepOptions& opts) {
  RepResult rep;
  HostTimer setup_timer;
  setup_timer.Start();
  s4::S4DriveOptions drive_opts;
  drive_opts.block_cache_bytes = 64ull << 20;
  drive_opts.object_cache_bytes = 32ull << 20;
  auto stack = MakeNasStack(2ull << 30, drive_opts, opts.traced);
  SpanLog* log = stack->log.get();
  auto fs = s4::S4FileSystem::Format(stack->api, "root");
  S4_CHECK(fs.ok());
  FsProbe probe(fs->get(), stack->clock.get(), log);

  s4::PostMarkConfig config;  // paper defaults: 5,000 files, 20,000 transactions
  config.seed = opts.seed;
  config.cleaner_hook = [drive = stack->drive.get(), log] { CleanerTick(drive, log); };
  s4::PostMark postmark(&probe, stack->clock.get(), config);
  auto created = postmark.RunCreateOnly();
  S4_CHECK(created.ok());
  rep.setup_cpu_s = setup_timer.Lap();
  if (opts.setup_only) return rep;

  Subjects subjects = stack->subjects();
  subjects.fs = fs->get();
  const Counters before = ReadCounters(subjects);
  const s4::SimTime start = stack->clock->Now();
  SetActive(log, true);
  probe.set_sampling(true);
  auto txn = postmark.RunTransactionsOnly();
  probe.cpu_marks().Mark();
  probe.set_sampling(false);
  SetActive(log, false);
  rep.sim_elapsed = stack->clock->Now() - start;
  const Counters after = ReadCounters(subjects);
  rep.ops = config.transactions;
  rep.cpu_marks = probe.cpu_marks().marks();
  rep.raw_cpu_s = probe.cpu_marks().raw_total();
  rep.op_lat = probe.samples();
  rep.attempted = rep.op_lat.size();
  rep.failed = probe.failed();
  rep.space_amp = SpaceAmplification(subjects);

  if (!txn.ok()) {
    rep.gate_failures.push_back("transaction phase failed: " + txn.status().ToString());
  } else {
    const uint64_t expected = created->files_created + txn->files_created - txn->files_deleted;
    auto live = CountLiveFiles(fs->get());
    if (!live.ok() || *live != expected) {
      rep.gate_failures.push_back(
          "live-file walk found " + (live.ok() ? std::to_string(*live) : live.status().ToString()) +
          " files, expected created - deleted = " + std::to_string(expected));
    }
  }
  if (opts.traced) {
    LayerInputs in;
    in.delta = after - before;
    in.log = log;
    in.ops = rep.ops;
    in.sim_elapsed = rep.sim_elapsed;
    in.user_bytes_written = probe.bytes_written();
    in.client = stack->client_probe.get();
    in.transports = {stack->transport_probe.get()};
    rep.layers = LayerMetrics(in);
    FinishTrace(*log, opts, &rep);
  }
  CheckAudit(stack->drive.get(), stack->transport.get(), "drive", &rep.gate_failures);
  return rep;
}

}  // namespace perfbench
