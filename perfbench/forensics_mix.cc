// forensics_mix: one S4-NAS drive driven through S4Client, the object API the
// paper's recovery tools use (section 3.6).
//
// 1,024 objects of 32 KB (32 MB) over an 8 MB block cache, so the working set
// is larger than the cache; detection window 60 s. Each op is either a
// one-block overwrite followed by Sync (3/4) or a time-based Read(at) of a
// random block at a recorded op-completion instant inside the last half
// window (1/4). RunCleanerPass(2) runs every 50 ops, so over ~20 windows the
// cleaner runs many expiry cycles. Every history read is checked against the
// benchmark's own version oracle.
#include <algorithm>
#include <string>

#include "perfbench/report.h"
#include "perfbench/stack.h"
#include "perfbench/workload.h"
#include "src/lfs/format.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

constexpr uint32_t kObjects = 1024;
constexpr uint32_t kObjectBytes = 32 << 10;
constexpr uint32_t kBlocksPerObject = kObjectBytes / s4::kBlockSize;
constexpr uint64_t kOps = 60000;
constexpr uint64_t kCleanerEvery = 50;
constexpr uint64_t kOpsPerCpuMark = 2000;
constexpr s4::SimDuration kWindow = 60 * s4::kSecond;

// Deterministic block content for a version key (splitmix64 stream).
s4::Bytes BlockContent(uint64_t key) {
  s4::Bytes out(s4::kBlockSize);
  uint64_t x = key;
  for (size_t i = 0; i < out.size(); i += 8) {
    x += 0x9E3779B97F4A7C15ull;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    for (size_t b = 0; b < 8; ++b) out[i + b] = static_cast<uint8_t>(z >> (8 * b));
  }
  return out;
}

// A block version: the key its content was generated from and the instant
// the op that wrote it completed (after its Sync).
struct Version {
  s4::SimTime done = 0;
  uint64_t key = 0;
};

}  // namespace

RepResult RunForensicsMix(const RepOptions& opts) {
  RepResult rep;
  HostTimer setup_timer;
  setup_timer.Start();
  s4::S4DriveOptions drive_opts;
  drive_opts.block_cache_bytes = 8ull << 20;
  drive_opts.detection_window = kWindow;
  auto stack = MakeNasStack(512ull << 20, drive_opts, opts.traced);
  SpanLog* log = stack->log.get();
  s4::S4ClientApi* api = stack->api;
  s4::SimClock* clock = stack->clock.get();
  s4::Rng rng(opts.seed);
  uint64_t next_key = opts.seed << 32;

  std::vector<s4::ObjectId> ids;
  std::vector<std::vector<Version>> oracle(kObjects * kBlocksPerObject);
  for (uint32_t i = 0; i < kObjects; ++i) {
    auto id = api->Create({});
    S4_CHECK(id.ok());
    s4::Bytes content;
    for (uint32_t b = 0; b < kBlocksPerObject; ++b) {
      const uint64_t key = ++next_key;
      s4::Bytes block = BlockContent(key);
      content.insert(content.end(), block.begin(), block.end());
      oracle[i * kBlocksPerObject + b].push_back(Version{0, key});
    }
    S4_CHECK(api->Write(*id, 0, content).ok());
    ids.push_back(*id);
  }
  S4_CHECK(api->Sync().ok());
  rep.setup_cpu_s = setup_timer.Lap();
  if (opts.setup_only) return rep;

  const Subjects subjects = stack->subjects();
  const Counters before = ReadCounters(subjects);
  const s4::SimTime start = clock->Now();
  std::vector<s4::SimTime> completions;  // every op's completion instant, ascending
  completions.reserve(kOps);
  uint64_t mismatches = 0;
  uint64_t writes = 0;
  SetActive(log, true);
  CpuMarks cpu;
  cpu.Start();
  for (uint64_t op = 0; op < kOps; ++op) {
    const uint32_t obj = static_cast<uint32_t>(rng.Below(kObjects));
    const uint32_t blk = static_cast<uint32_t>(rng.Below(kBlocksPerObject));
    std::vector<Version>& versions = oracle[obj * kBlocksPerObject + blk];
    const uint64_t offset = uint64_t{blk} * s4::kBlockSize;
    const bool history_read = rng.Below(4) == 0 && !completions.empty();
    const s4::SimTime t0 = clock->Now();
    bool ok = true;
    if (history_read) {
      auto first = std::lower_bound(completions.begin(), completions.end(),
                                    t0 - kWindow / 2);
      const s4::SimTime at = first[static_cast<ptrdiff_t>(
          rng.Below(static_cast<uint64_t>(completions.end() - first)))];
      Timed span(log, "op.history_read");
      auto data = api->Read(ids[obj], offset, s4::kBlockSize, at);
      ok = data.ok();
      rep.history_lat.push_back(clock->Now() - t0);
      // The version current at `at`: the last write that completed by then.
      auto v = std::upper_bound(versions.begin(), versions.end(), at,
                                [](s4::SimTime t, const Version& x) { return t < x.done; });
      if (ok && (v == versions.begin() || *data != BlockContent(std::prev(v)->key))) {
        ++mismatches;
      }
    } else {
      const uint64_t key = ++next_key;
      Timed span(log, "op.overwrite");
      s4::Status s = api->Write(ids[obj], offset, BlockContent(key));
      if (s.ok()) s = api->Sync();
      ok = s.ok();
      if (ok) versions.push_back(Version{clock->Now(), key});
      ++writes;
    }
    rep.op_lat.push_back(clock->Now() - t0);
    rep.failed += ok ? 0 : 1;
    completions.push_back(clock->Now());
    if ((op + 1) % kCleanerEvery == 0) {
      Timed span(log, "drive.RunCleanerPass");
      S4_CHECK(stack->drive->RunCleanerPass(2).ok());
    }
    if ((op + 1) % kOpsPerCpuMark == 0) cpu.Mark();
  }
  cpu.Mark();
  rep.cpu_marks = cpu.marks();
  rep.raw_cpu_s = cpu.raw_total();
  SetActive(log, false);
  rep.sim_elapsed = clock->Now() - start;
  const Counters after = ReadCounters(subjects);
  rep.ops = kOps;
  rep.attempted = kOps;
  rep.space_amp = SpaceAmplification(subjects);

  if (mismatches > 0) {
    rep.gate_failures.push_back(std::to_string(mismatches) +
                                " history reads disagree with the version oracle");
  }
  if (opts.traced) {
    LayerInputs in;
    in.delta = after - before;
    in.log = log;
    in.ops = rep.ops;
    in.sim_elapsed = rep.sim_elapsed;
    in.user_bytes_written = writes * s4::kBlockSize;
    in.client = stack->client_probe.get();
    in.transports = {stack->transport_probe.get()};
    rep.layers = LayerMetrics(in);
    FinishTrace(*log, opts, &rep);
  }
  CheckAudit(stack->drive.get(), stack->transport.get(), "drive", &rep.gate_failures);
  return rep;
}

}  // namespace perfbench
