// Crash-consistency harness: replays a scripted workload against a fresh
// drive through the full RPC stack, cuts power at a chosen disk-write
// boundary via FaultInjector, remounts, and checks the recovery invariants:
//
//   1. Every Sync-acknowledged state is readable after remount: for each
//      snapshot taken at an acknowledged Sync, a time-based admin read at the
//      snapshot time reproduces exactly the modelled contents.
//   2. GetVersionList history is monotone (version times non-decreasing).
//   3. The audit log decodes as a valid prefix (QueryAudit succeeds).
//   4. No S4_CHECK fires anywhere in mount or verification (the process
//      survives; checked implicitly).
//   5. The cleaner picks up where the crash left it: a pass over the
//      recovered state runs, the usage table's free count matches a recount,
//      waypoints stay intact, and once the window passes with no new writes
//      the history pool drains to zero (no frees lost, none repeated).
//
// Scripts may advance the clock and run cleaner passes, so snapshots can age
// out of the detection window: a snapshot inside the window must read back
// exactly, an older one exactly or not at all (aged out or gone).
//
// Used by fault_injection_test.cc to sweep power cuts across *every* write
// boundary of a workload, in both clean-cut and torn-tail shapes.
#ifndef S4_TESTS_CRASH_HARNESS_H_
#define S4_TESTS_CRASH_HARNESS_H_

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/drive/s4_drive.h"
#include "src/exec/drive_executor.h"
#include "src/rpc/client.h"
#include "src/rpc/transport.h"
#include "src/sim/block_device.h"
#include "src/sim/sim_clock.h"
#include "tests/test_util.h"

namespace s4 {

// One scripted client operation. `slot` names an object by script-local
// index; the harness maps slots to ObjectIds as Creates succeed.
struct ScriptOp {
  // kAdvance moves the clock on by `advance`; kClean runs one cleaner pass
  // (the drive's own maintenance, not a client RPC).
  enum Kind { kCreate, kWrite, kAppend, kTruncate, kSetAcl, kSync, kDelete, kAdvance, kClean };
  Kind kind;
  size_t slot = 0;
  uint64_t offset = 0;   // kWrite
  uint64_t length = 0;   // kWrite/kAppend payload size; kTruncate new size
  uint8_t fill = 0;      // payload byte pattern
  AclEntry acl;          // kSetAcl
  SimDuration advance = 0;  // kAdvance
};

class CrashHarness {
 public:
  // With `batched`, mutating ops between Syncs are buffered client-side and
  // sent as one kBatch frame whose last sub-op is the Sync (the group-commit
  // write path). Snapshots are taken only when the Sync sub-op is
  // acknowledged, so the invariant checked is: a sync point is durable as a
  // whole, or the journal ends at the previous intact chunk.
  explicit CrashHarness(std::vector<ScriptOp> script,
                        S4DriveOptions options = DriveTest::SmallOptions(),
                        uint64_t disk_bytes = 64ull << 20, bool batched = false)
      : script_(std::move(script)),
        options_(options),
        disk_bytes_(disk_bytes),
        batched_(batched) {}

  // Runs the script fault-free and hands the drive and the ObjectId of every
  // script slot to `inspect` (for tests that pin what a script exercises).
  void RunFaultFree(const std::function<void(S4Drive&, const std::vector<ObjectId>&)>& inspect) {
    Run run = StartRun();
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
    ReplayScript(&run);
    EXPECT_TRUE(run.failed_at == kNoFailure)
        << "fault-free run failed at op " << run.failed_at;
    std::vector<ObjectId> ids;
    for (const ModelObject& m : run.model) {
      ids.push_back(m.id);
    }
    inspect(*run.drive, ids);
  }

  // Runs the script fault-free and returns the number of disk write commands
  // issued after format — the space of crash points to sweep.
  uint64_t CountWritePoints() {
    Run run = StartRun();
    if (::testing::Test::HasFatalFailure()) {
      return 0;
    }
    uint64_t base = run.device->stats().writes;
    ReplayScript(&run);
    EXPECT_TRUE(run.failed_at == kNoFailure)
        << "fault-free run failed at op " << run.failed_at;
    return run.device->stats().writes - base;
  }

  // Cuts power during the kth post-format write command (1-based). With
  // `torn_tail`, half of that write's sectors persist and the next sector is
  // corrupted; otherwise nothing of it reaches the media. Then remounts and
  // verifies all invariants. Reports failures through gtest expectations.
  void RunCrashPoint(uint64_t k, bool torn_tail) {
    SCOPED_TRACE("crash point k=" + std::to_string(k) +
                 (torn_tail ? " (torn tail)" : " (clean cut)"));
    Run run = StartRun();
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
    if (torn_tail) {
      // persist_sectors is clamped to the faulted write's size, so "half of
      // a large chunk" and "none of a 1-sector journal append" both come out
      // of the same schedule: persist many, corrupt one.
      run.injector.SchedulePowerCut(k, /*persist_sectors=*/options_.segment_sectors / 2,
                                    /*corrupt_sectors=*/1);
    } else {
      run.injector.SchedulePowerCut(k);
    }
    ReplayScript(&run);
    EXPECT_TRUE(run.injector.power_cut_fired()) << "crash point beyond workload";

    // Power restored; the drive object that experienced the cut is dropped
    // cold (its caches die with it), and recovery mounts from the media.
    run.injector.PowerOn();
    run.drive.reset();
    auto mounted = S4Drive::Mount(run.device.get(), run.clock.get(), options_);
    ASSERT_TRUE(mounted.ok()) << "remount failed: " << mounted.status().ToString();
    run.drive = std::move(*mounted);

    // Invariant 5 first: recovering the same media twice is idempotent —
    // same audit chain state, same clean-tail-vs-tamper classification. Must
    // run before the other verifications, whose audited admin ops (version
    // lists, time-based reads) would themselves extend the chain and make
    // the two mounts' states incomparable.
    // Invariant 4 rides along inside VerifyAfterRecovery: every version
    // waypoint rebuilt by recovery points at a reachable, intact journal
    // sector whose newest entry matches the waypoint time. A power cut
    // mid-checkpoint or mid-chunk must never leave a waypoint referencing
    // torn or unreachable territory.
    VerifyAfterRecovery(run);
  }

  // Runs the script fault-free, then counts the disk write commands a clean
  // Unmount issues — the checkpoint plus the three superblock replica
  // rewrites. The space of unmount crash points to sweep.
  uint64_t CountUnmountWrites() {
    Run run = StartRun();
    if (::testing::Test::HasFatalFailure()) {
      return 0;
    }
    ReplayScript(&run);
    EXPECT_TRUE(run.failed_at == kNoFailure)
        << "fault-free run failed at op " << run.failed_at;
    uint64_t base = run.device->stats().writes;
    EXPECT_OK(run.drive->Unmount());
    return run.device->stats().writes - base;
  }

  // Cuts power during the kth write of a clean Unmount (1-based, counted
  // from the unmount's first write), remounts, and verifies every invariant.
  // Sweeping k across CountUnmountWrites() tears the superblock replica
  // rewrites at every boundary: any prefix of the clean-mark must leave a
  // mountable volume no worse than a plain dirty crash at the last Sync.
  void RunUnmountCrashPoint(uint64_t k, bool torn_tail) {
    SCOPED_TRACE("unmount crash point k=" + std::to_string(k) +
                 (torn_tail ? " (torn tail)" : " (clean cut)"));
    Run run = UnmountCrashedRun(k, torn_tail);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
    auto mounted = S4Drive::Mount(run.device.get(), run.clock.get(), options_);
    ASSERT_TRUE(mounted.ok()) << "remount failed: " << mounted.status().ToString();
    run.drive = std::move(*mounted);
    VerifyAfterRecovery(run);
  }

  // Counts the disk writes recovery itself performs after a crash at write
  // `k` of the chosen phase (superblock healing, the dirty re-mark, a
  // torn-audit-tail trim) — the space of recovery crash points to sweep.
  // With `during_unmount`, the first crash interrupts a clean Unmount after
  // a fault-free script instead of interrupting the script.
  uint64_t CountRecoveryWrites(uint64_t k, bool torn_tail, bool during_unmount = false) {
    Run run = during_unmount ? UnmountCrashedRun(k, torn_tail)
                             : CrashedRun(k, torn_tail);
    if (::testing::Test::HasFatalFailure()) {
      return 0;
    }
    uint64_t base = run.device->stats().writes;
    auto mounted = S4Drive::Mount(run.device.get(), run.clock.get(), options_);
    EXPECT_TRUE(mounted.ok()) << mounted.status().ToString();
    return run.device->stats().writes - base;
  }

  // Power-cut *during recovery*: crash at write `k_first` (of the workload,
  // or of a clean Unmount with `during_unmount` — the case where recovery
  // itself rewrites superblock replicas), then cut power again during the
  // k_recovery'th write the recovering mount issues. Whatever state that
  // second crash leaves, the next mount must succeed and satisfy every
  // invariant — recovery is restartable from any prefix of its own writes.
  void RunRecoveryCrashPoint(uint64_t k_first, uint64_t k_recovery, bool torn_tail,
                             bool during_unmount = false) {
    SCOPED_TRACE("recovery crash point k=" + std::to_string(k_recovery) + " after " +
                 (during_unmount ? "unmount" : "workload") + " crash at " +
                 std::to_string(k_first) +
                 (torn_tail ? " (torn tail)" : " (clean cut)"));
    Run run = during_unmount ? UnmountCrashedRun(k_first, torn_tail)
                             : CrashedRun(k_first, torn_tail);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
    if (torn_tail) {
      run.injector.SchedulePowerCut(k_recovery, /*persist_sectors=*/0,
                                    /*corrupt_sectors=*/1);
    } else {
      run.injector.SchedulePowerCut(k_recovery);
    }
    {
      auto interrupted = S4Drive::Mount(run.device.get(), run.clock.get(), options_);
      EXPECT_TRUE(run.injector.powered_off())
          << "recovery crash point beyond recovery's writes";
      EXPECT_FALSE(interrupted.ok()) << "mount succeeded through a power cut";
    }
    run.injector.PowerOn();
    auto mounted = S4Drive::Mount(run.device.get(), run.clock.get(), options_);
    ASSERT_TRUE(mounted.ok()) << "mount after interrupted recovery failed: "
                              << mounted.status().ToString();
    run.drive = std::move(*mounted);
    VerifyAfterRecovery(run);
  }

 private:
  static constexpr size_t kNoFailure = ~size_t{0};

  // In-memory model of one scripted object.
  struct ModelObject {
    bool created = false;
    bool deleted = false;
    ObjectId id = 0;
    Bytes content;
  };
  // Model state captured at an acknowledged Sync.
  struct Snapshot {
    SimTime time = 0;
    std::vector<ModelObject> objects;
  };

  struct Run;

  // A buffered sub-op awaiting its group-commit batch (batched mode).
  struct PendingSub {
    RpcRequest req;
    size_t script_index = 0;
    std::function<void(Run*)> apply;  // model mutation, run when acked
  };

  struct Run {
    std::unique_ptr<SimClock> clock;
    std::unique_ptr<BlockDevice> device;
    FaultInjector injector;
    std::unique_ptr<S4Drive> drive;
    std::unique_ptr<S4RpcServer> server;
    std::unique_ptr<LoopbackTransport> transport;
    std::unique_ptr<S4Client> client;
    std::vector<ModelObject> model;
    std::vector<Snapshot> snapshots;
    std::vector<PendingSub> pending;  // batched mode: unsent sub-ops
    size_t failed_at = kNoFailure;  // first script op that did not return OK
    // Audit accounting: ops acknowledged in total, and as of the last
    // acknowledged Sync. The Sync body forces the buffered audit tail
    // durable before the ack, so after a crash the recovered log must hold
    // at least one record per op acked before that Sync — a power cut loses
    // at most the post-last-sync tail.
    uint64_t acked_ops = 0;
    uint64_t acked_ops_at_last_sync = 0;
  };

  // Every post-recovery invariant: idempotence first (the other checks'
  // audited admin ops would extend the chain), then snapshot contents,
  // version monotonicity, audit-log survival, waypoint integrity, and last
  // the cleaner (it ages every snapshot out).
  void VerifyAfterRecovery(Run& run) {
    VerifyRecoveryIdempotent(run);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
    VerifySnapshots(run);
    VerifyVersionMonotonicity(run);
    VerifyAuditLog(run);
    EXPECT_OK(run.drive->VerifyAllWaypoints());
    VerifyCleanerAfterRecovery(run);
  }

  // Runs the script fault-free, then cuts power at write `k` of the clean
  // Unmount. Returns the run with power restored and the drive dropped cold.
  Run UnmountCrashedRun(uint64_t k, bool torn_tail) {
    Run run = StartRun();
    if (::testing::Test::HasFatalFailure() || run.drive == nullptr) {
      return run;
    }
    ReplayScript(&run);
    EXPECT_TRUE(run.failed_at == kNoFailure)
        << "fault-free run failed at op " << run.failed_at;
    if (torn_tail) {
      run.injector.SchedulePowerCut(k, /*persist_sectors=*/0, /*corrupt_sectors=*/1);
    } else {
      run.injector.SchedulePowerCut(k);
    }
    // The unmount dies at the cut; the drive object is dropped cold.
    Status cut = run.drive->Unmount();
    EXPECT_FALSE(cut.ok()) << "unmount succeeded through a power cut";
    EXPECT_TRUE(run.injector.power_cut_fired()) << "crash point beyond the unmount";
    run.injector.PowerOn();
    run.drive.reset();
    return run;
  }

  // Runs the script into a power cut at workload write `k_workload` and
  // returns the run with power restored and the crashed drive dropped cold,
  // ready for a (possibly also-faulted) mount.
  Run CrashedRun(uint64_t k_workload, bool torn_tail) {
    Run run = StartRun();
    if (::testing::Test::HasFatalFailure() || run.drive == nullptr) {
      return run;
    }
    if (torn_tail) {
      run.injector.SchedulePowerCut(k_workload,
                                    /*persist_sectors=*/options_.segment_sectors / 2,
                                    /*corrupt_sectors=*/1);
    } else {
      run.injector.SchedulePowerCut(k_workload);
    }
    ReplayScript(&run);
    EXPECT_TRUE(run.injector.power_cut_fired()) << "crash point beyond workload";
    run.injector.PowerOn();
    run.drive.reset();
    return run;
  }

  Run StartRun() {
    Run run;
    run.clock = std::make_unique<SimClock>(SimTime{1000000});
    run.device = std::make_unique<BlockDevice>(disk_bytes_ / kSectorSize, run.clock.get());
    auto drive = S4Drive::Format(run.device.get(), run.clock.get(), options_);
    EXPECT_TRUE(drive.ok()) << drive.status().ToString();
    if (!drive.ok()) {
      return run;
    }
    run.drive = std::move(*drive);
    // Faults are armed only after format: crash points count the workload's
    // own writes.
    run.device->set_fault_injector(&run.injector);
    run.server = std::make_unique<S4RpcServer>(run.drive.get());
    run.transport = std::make_unique<LoopbackTransport>(run.server.get(), run.clock.get());
    Credentials user;
    user.user = 1;
    user.client = 1;
    run.client = std::make_unique<S4Client>(run.transport.get(), user);
    run.model.resize(SlotCount());
    return run;
  }

  size_t SlotCount() const {
    size_t n = 0;
    for (const auto& op : script_) {
      n = std::max(n, op.slot + 1);
    }
    return n;
  }

  // Applies the script until an op fails (power is gone, or a fault surfaced
  // through the RPC status). Stopping at the first failure mirrors a real
  // client: once the drive reports errors, no further state is trusted.
  void ReplayScript(Run* run) {
    for (size_t i = 0; i < script_.size(); ++i) {
      const ScriptOp& op = script_[i];
      // Space ops out so distinct versions get distinct timestamps.
      run->clock->Advance(10 * kMillisecond);
      if (batched_) {
        if (!BatchedStep(run, i)) {
          return;
        }
        continue;
      }
      ModelObject& m = run->model[op.slot];
      bool ok = false;
      switch (op.kind) {
        case ScriptOp::kCreate: {
          auto r = run->client->Create({});
          ok = r.ok();
          if (ok) {
            m.created = true;
            m.deleted = false;
            m.id = *r;
            m.content.clear();
          }
          break;
        }
        case ScriptOp::kWrite: {
          Bytes data(op.length, op.fill);
          ok = run->client->Write(m.id, op.offset, data).ok();
          if (ok) {
            if (m.content.size() < op.offset + op.length) {
              m.content.resize(op.offset + op.length, 0);
            }
            std::copy(data.begin(), data.end(), m.content.begin() + op.offset);
          }
          break;
        }
        case ScriptOp::kAppend: {
          Bytes data(op.length, op.fill);
          ok = run->client->Append(m.id, data).ok();
          if (ok) {
            m.content.insert(m.content.end(), data.begin(), data.end());
          }
          break;
        }
        case ScriptOp::kTruncate: {
          ok = run->client->Truncate(m.id, op.length).ok();
          if (ok) {
            m.content.resize(op.length, 0);
          }
          break;
        }
        case ScriptOp::kSetAcl:
          ok = run->client->SetAcl(m.id, op.acl).ok();
          break;
        case ScriptOp::kDelete: {
          ok = run->client->Delete(m.id).ok();
          if (ok) {
            m.deleted = true;
            m.content.clear();
          }
          break;
        }
        case ScriptOp::kSync: {
          ok = run->client->Sync().ok();
          if (ok) {
            // The Sync body flushed every record buffered before it; the
            // Sync's own record may still ride the next flush.
            run->acked_ops_at_last_sync = run->acked_ops;
            // Everything acknowledged so far is now durable: snapshot it.
            Snapshot snap;
            snap.time = run->clock->Now();
            snap.objects = run->model;
            run->snapshots.push_back(std::move(snap));
          }
          break;
        }
        case ScriptOp::kAdvance:
        case ScriptOp::kClean:
          if (!MaintenanceStep(run, op)) {
            run->failed_at = i;
            return;
          }
          continue;  // not an RPC: no audit record to account
      }
      if (!ok) {
        run->failed_at = i;
        return;
      }
      ++run->acked_ops;
    }
  }

  // kAdvance and kClean: clock and cleaner steps outside the RPC stream.
  static bool MaintenanceStep(Run* run, const ScriptOp& op) {
    if (op.kind == ScriptOp::kAdvance) {
      run->clock->Advance(op.advance);
      return true;
    }
    return run->drive->RunCleanerPass(2, /*force_compaction=*/true).ok();
  }

  // Batched mode: one script op. Mutations are buffered as kBatch sub-ops;
  // the batch is sent when the script reaches a Sync (which rides as the
  // batch's final sub-op) or when an op needs a fresh ObjectId.
  bool BatchedStep(Run* run, size_t i) {
    const ScriptOp& op = script_[i];
    const size_t slot = op.slot;
    switch (op.kind) {
      case ScriptOp::kCreate: {
        // Later buffered sub-ops would need the new id before it exists:
        // drain the open batch (no sync — no snapshot), then create now.
        if (!FlushBatch(run)) {
          return false;
        }
        auto r = run->client->Create({});
        if (!r.ok()) {
          run->failed_at = i;
          return false;
        }
        ModelObject& m = run->model[slot];
        m.created = true;
        m.deleted = false;
        m.id = *r;
        m.content.clear();
        ++run->acked_ops;
        return true;
      }
      case ScriptOp::kWrite: {
        PendingSub sub;
        sub.req.op = RpcOp::kWrite;
        sub.req.object = run->model[slot].id;
        sub.req.offset = op.offset;
        sub.req.data = Bytes(op.length, op.fill);
        sub.script_index = i;
        sub.apply = [slot, op](Run* r) {
          ModelObject& m = r->model[slot];
          Bytes data(op.length, op.fill);
          if (m.content.size() < op.offset + op.length) {
            m.content.resize(op.offset + op.length, 0);
          }
          std::copy(data.begin(), data.end(), m.content.begin() + op.offset);
        };
        run->pending.push_back(std::move(sub));
        return true;
      }
      case ScriptOp::kAppend: {
        PendingSub sub;
        sub.req.op = RpcOp::kAppend;
        sub.req.object = run->model[slot].id;
        sub.req.data = Bytes(op.length, op.fill);
        sub.script_index = i;
        sub.apply = [slot, op](Run* r) {
          Bytes data(op.length, op.fill);
          Bytes& c = r->model[slot].content;
          c.insert(c.end(), data.begin(), data.end());
        };
        run->pending.push_back(std::move(sub));
        return true;
      }
      case ScriptOp::kTruncate: {
        PendingSub sub;
        sub.req.op = RpcOp::kTruncate;
        sub.req.object = run->model[slot].id;
        sub.req.length = op.length;
        sub.script_index = i;
        sub.apply = [slot, op](Run* r) { r->model[slot].content.resize(op.length, 0); };
        run->pending.push_back(std::move(sub));
        return true;
      }
      case ScriptOp::kSetAcl: {
        PendingSub sub;
        sub.req.op = RpcOp::kSetAcl;
        sub.req.object = run->model[slot].id;
        sub.req.acl_entry = op.acl;
        sub.script_index = i;
        run->pending.push_back(std::move(sub));
        return true;
      }
      case ScriptOp::kDelete: {
        PendingSub sub;
        sub.req.op = RpcOp::kDelete;
        sub.req.object = run->model[slot].id;
        sub.script_index = i;
        sub.apply = [slot](Run* r) {
          r->model[slot].deleted = true;
          r->model[slot].content.clear();
        };
        run->pending.push_back(std::move(sub));
        return true;
      }
      case ScriptOp::kSync: {
        PendingSub sub;
        sub.req.op = RpcOp::kSync;
        sub.script_index = i;
        run->pending.push_back(std::move(sub));
        return FlushBatch(run);
      }
      case ScriptOp::kAdvance:
      case ScriptOp::kClean:
        // The open batch goes first: the step applies to what precedes it.
        if (!FlushBatch(run)) {
          return false;
        }
        if (!MaintenanceStep(run, op)) {
          run->failed_at = i;
          return false;
        }
        return true;
    }
    return false;
  }

  // Sends the open batch as one kBatch frame and applies model mutations for
  // acknowledged sub-ops. If the batch ended in an acknowledged Sync, the
  // modelled state becomes a snapshot (the group-commit durability point).
  bool FlushBatch(Run* run) {
    if (run->pending.empty()) {
      return true;
    }
    std::vector<RpcRequest> subs;
    subs.reserve(run->pending.size());
    for (const PendingSub& p : run->pending) {
      subs.push_back(p.req);
    }
    auto resps = run->client->CallBatch(std::move(subs));
    if (!resps.ok()) {
      run->failed_at = run->pending.front().script_index;
      run->pending.clear();
      return false;
    }
    bool synced = false;
    for (size_t j = 0; j < run->pending.size(); ++j) {
      PendingSub& p = run->pending[j];
      if (!(*resps)[j].ok()) {
        run->failed_at = p.script_index;
        run->pending.clear();
        return false;
      }
      if (p.apply) {
        p.apply(run);
      }
      if (p.req.op == RpcOp::kSync) {
        // Sub-ops before the Sync in this batch had their records flushed
        // by the Sync sub-op's body.
        run->acked_ops_at_last_sync = run->acked_ops;
        synced = true;
      } else {
        ++run->acked_ops;
      }
    }
    run->pending.clear();
    if (synced) {
      // Nudge past the batch's execution instant so time-based reads at the
      // snapshot time see every sub-op, deletions included.
      run->clock->Advance(kMillisecond);
      Snapshot snap;
      snap.time = run->clock->Now();
      snap.objects = run->model;
      run->snapshots.push_back(std::move(snap));
    }
    return true;
  }

  Credentials Admin() const {
    Credentials c;
    c.user = 0;
    c.client = 0;
    c.admin_key = options_.admin_key;
    return c;
  }

  // Invariant 1: each snapshot's contents are reproduced by time-based
  // admin reads at the snapshot time. A snapshot older than the detection
  // window may have been expired by a cleaner pass: then it reads back
  // exactly or fails as aged out (kFailedPrecondition) or gone (kNotFound).
  void VerifySnapshots(Run& run) {
    const SimTime kept_after = run.clock->Now() - options_.detection_window;
    auto aged_out = [](const Status& s) {
      return s.code() == ErrorCode::kFailedPrecondition || s.code() == ErrorCode::kNotFound;
    };
    for (size_t si = 0; si < run.snapshots.size(); ++si) {
      const Snapshot& snap = run.snapshots[si];
      const bool kept = snap.time > kept_after;
      SCOPED_TRACE("snapshot " + std::to_string(si) + " at t=" + std::to_string(snap.time) +
                   (kept ? "" : " (aged past the window)"));
      for (size_t slot = 0; slot < snap.objects.size(); ++slot) {
        const ModelObject& m = snap.objects[slot];
        if (!m.created) {
          continue;
        }
        SCOPED_TRACE("slot " + std::to_string(slot) + " object " + std::to_string(m.id));
        auto attr = run.drive->GetAttr(Admin(), m.id, snap.time);
        if (m.deleted) {
          EXPECT_FALSE(attr.ok()) << "deleted object readable at snapshot time";
          continue;
        }
        if (!kept && !attr.ok()) {
          EXPECT_TRUE(aged_out(attr.status())) << attr.status().ToString();
          continue;
        }
        ASSERT_TRUE(attr.ok()) << attr.status().ToString();
        EXPECT_EQ(attr->size, m.content.size());
        if (m.content.empty()) {
          continue;
        }
        auto data = run.drive->Read(Admin(), m.id, 0, m.content.size(), snap.time);
        if (!kept && !data.ok()) {
          EXPECT_TRUE(aged_out(data.status())) << data.status().ToString();
          continue;
        }
        ASSERT_TRUE(data.ok()) << data.status().ToString();
        EXPECT_EQ(*data, m.content) << "content mismatch after recovery";
      }
    }
  }

  // Invariant 2: version history of every surviving object is monotone.
  void VerifyVersionMonotonicity(Run& run) {
    for (const ModelObject& m : run.model) {
      if (!m.created) {
        continue;
      }
      auto versions = run.drive->GetVersionList(Admin(), m.id);
      if (!versions.ok()) {
        continue;  // object never made it to disk, or was deleted: fine
      }
      SimTime prev = 0;
      for (const VersionInfo& v : *versions) {
        EXPECT_GE(v.time, prev) << "version list not monotone for object " << m.id;
        prev = v.time;
      }
    }
  }

  // Invariant 3: the audit log decodes as a valid prefix, the power cut is
  // classified as a torn flush (never tampering), and at most the
  // post-last-sync tail of records is missing.
  void VerifyAuditLog(Run& run) {
    auto records = run.drive->QueryAudit(Admin(), AuditQuery{});
    EXPECT_TRUE(records.ok()) << "audit log unreadable after recovery: "
                              << records.status().ToString();
    const MetricRegistry& reg = run.drive->metrics();
    EXPECT_EQ(reg.CounterValue("audit.chain_breaks"), 0u)
        << "power cut misclassified as tampering (chain break)";
    if (records.ok()) {
      // One record per acknowledged RPC, and the Sync body forces the
      // buffered tail durable before acking — so everything acked before
      // the last acknowledged Sync must have survived.
      EXPECT_GE(records->size(), run.acked_ops_at_last_sync)
          << "audit records acked before the last Sync were lost";
    }
  }

  // Invariant 5: the cleaner resumes from the recovered cursor. A pass runs
  // (no S4_CHECK on a double free), the running free-segment count matches a
  // recount, waypoints survive it, and once the window passes with no new
  // writes a second pass drains the history pool: no free was lost.
  void VerifyCleanerAfterRecovery(Run& run) {
    EXPECT_OK(run.drive->RunCleanerPass(2, /*force_compaction=*/true).status());
    const SegmentUsageTable& sut = run.drive->usage_table();
    EXPECT_EQ(sut.FreeOrReclaimableSegments(), RecountFreeOrReclaimable(sut));
    EXPECT_OK(run.drive->VerifyAllWaypoints());
    run.clock->Advance(options_.detection_window + kSecond);
    EXPECT_OK(run.drive->RunCleanerPass(2, /*force_compaction=*/true).status());
    EXPECT_EQ(run.drive->HistoryPoolBytes(), 0u) << "history outlived the window";
    EXPECT_EQ(sut.FreeOrReclaimableSegments(), RecountFreeOrReclaimable(sut));
  }

  // Recovery idempotence: mounting the same post-crash media again must land
  // on the identical audit-chain state and still report no tampering (the
  // first mount's clean-tail trim, if any, must be repeatable).
  void VerifyRecoveryIdempotent(Run& run) {
    AuditChainState first = run.drive->DebugAuditChainState();
    uint64_t clean_tails = run.drive->metrics().CounterValue("audit.clean_tail_truncations");
    run.drive.reset();
    auto again = S4Drive::Mount(run.device.get(), run.clock.get(), options_);
    ASSERT_TRUE(again.ok()) << "second remount failed: " << again.status().ToString();
    run.drive = std::move(*again);
    EXPECT_TRUE(run.drive->DebugAuditChainState() == first)
        << "audit chain state differs between two recoveries of the same media";
    EXPECT_EQ(run.drive->metrics().CounterValue("audit.chain_breaks"), 0u)
        << "second recovery flagged tampering that the first did not";
    // The first mount's trim only becomes durable at its next checkpoint;
    // dropping it cold leaves the same media, so the second mount repeats
    // the same classification.
    EXPECT_EQ(run.drive->metrics().CounterValue("audit.clean_tail_truncations"), clean_tails)
        << "clean-tail classification not idempotent";
  }

  std::vector<ScriptOp> script_;
  S4DriveOptions options_;
  uint64_t disk_bytes_;
  bool batched_;
};

// Concurrent crash mode: N client threads push append streams (with periodic
// Syncs) through a multi-worker DriveExecutor at one drive, power is cut at
// the kth post-format disk write, and recovery is verified. The serial
// harness's content-snapshot checks do not transfer (which ops were
// acknowledged before the cut is scheduling-dependent), so the invariants
// here are the ones concurrency must not weaken:
//
//   1. Remount succeeds, twice, with identical audit-chain state
//      (recovery idempotence) and zero chain breaks — a power cut under
//      concurrent load is still classified as a torn flush, never tampering.
//   2. Per-object ordering: each thread appends a distinct per-step fill
//      byte to its own object, so the recovered content must be an exact
//      prefix of that thread's submission sequence. Any executor reordering
//      of same-stripe ops would surface as a non-prefix.
//   3. Version history of every surviving object is monotone.
//   4. Every recovered waypoint is intact.
class ConcurrentCrashHarness {
 public:
  ConcurrentCrashHarness(int threads, int appends_per_thread,
                         S4DriveOptions options = DriveTest::SmallOptions(),
                         uint64_t disk_bytes = 64ull << 20)
      : threads_(threads),
        appends_per_thread_(appends_per_thread),
        options_(options),
        disk_bytes_(disk_bytes) {}

  // Fault-free concurrent run; returns the number of post-setup disk write
  // commands. Interleaving is scheduling-dependent, so treat the count as a
  // scale estimate, not an exact sweep bound: pick crash points well inside.
  uint64_t CountWritePoints() {
    Run run = StartRun();
    if (::testing::Test::HasFatalFailure()) {
      return 0;
    }
    uint64_t base = run.device->stats().writes;
    RunWorkload(&run);
    return run.device->stats().writes - base;
  }

  // Cuts power during the kth post-setup write command (1-based). Returns
  // false (without failing) when the nondeterministic interleave finished in
  // fewer than k writes — callers sweep points inside CountWritePoints().
  bool RunConcurrentCrashPoint(uint64_t k, bool torn_tail) {
    SCOPED_TRACE("concurrent crash point k=" + std::to_string(k) +
                 (torn_tail ? " (torn tail)" : " (clean cut)"));
    Run run = StartRun();
    if (::testing::Test::HasFatalFailure()) {
      return false;
    }
    if (torn_tail) {
      run.injector.SchedulePowerCut(k, /*persist_sectors=*/options_.segment_sectors / 2,
                                    /*corrupt_sectors=*/1);
    } else {
      run.injector.SchedulePowerCut(k);
    }
    RunWorkload(&run);
    if (!run.injector.power_cut_fired()) {
      return false;
    }

    run.injector.PowerOn();
    run.drive.reset();
    auto mounted = S4Drive::Mount(run.device.get(), run.clock.get(), options_);
    EXPECT_TRUE(mounted.ok()) << "remount failed: " << mounted.status().ToString();
    if (!mounted.ok()) {
      return true;
    }
    run.drive = std::move(*mounted);

    VerifyRecoveryIdempotent(&run);
    if (::testing::Test::HasFatalFailure()) {
      return true;
    }
    VerifyPerObjectPrefix(run);
    VerifyVersionMonotonicity(run);
    VerifyAuditChain(run);
    EXPECT_OK(run.drive->VerifyAllWaypoints());
    return true;
  }

 private:
  struct Run {
    std::unique_ptr<SimClock> clock;
    std::unique_ptr<BlockDevice> device;
    FaultInjector injector;
    std::unique_ptr<S4Drive> drive;
    std::unique_ptr<S4RpcServer> server;
    std::vector<ObjectId> objects;  // one per client thread
  };

  static constexpr uint64_t kAppendBytes = 512;
  static constexpr int kSyncEvery = 8;  // appends between Sync barriers

  // Distinct fill byte for thread t's mth append (nonzero so recovered
  // content can never be confused with zero-fill).
  static uint8_t FillByte(int t, int m) {
    return static_cast<uint8_t>(1 + (static_cast<unsigned>(t) * 37 + static_cast<unsigned>(m)) % 251);
  }

  Credentials User() const {
    Credentials c;
    c.user = 1;
    c.client = 1;
    return c;
  }

  Credentials Admin() const {
    Credentials c;
    c.user = 0;
    c.client = 0;
    c.admin_key = options_.admin_key;
    return c;
  }

  Run StartRun() {
    Run run;
    run.clock = std::make_unique<SimClock>(SimTime{1000000});
    run.device = std::make_unique<BlockDevice>(disk_bytes_ / kSectorSize, run.clock.get());
    auto drive = S4Drive::Format(run.device.get(), run.clock.get(), options_);
    EXPECT_TRUE(drive.ok()) << drive.status().ToString();
    if (!drive.ok()) {
      return run;
    }
    run.drive = std::move(*drive);
    run.server = std::make_unique<S4RpcServer>(run.drive.get());
    // Objects are created serially before the clock starts racing: the
    // concurrent phase then has a stable object->thread mapping.
    for (int t = 0; t < threads_; ++t) {
      auto created = run.drive->Create(User(), {});
      EXPECT_TRUE(created.ok()) << created.status().ToString();
      if (!created.ok()) {
        return run;
      }
      run.objects.push_back(*created);
    }
    // Faults armed only after setup: crash points count workload writes.
    run.device->set_fault_injector(&run.injector);
    return run;
  }

  Bytes AppendFrame(ObjectId id, uint8_t fill) const {
    RpcRequest req;
    req.op = RpcOp::kAppend;
    req.creds = User();
    req.object = id;
    req.data.assign(kAppendBytes, fill);
    return req.Encode();
  }

  Bytes SyncFrame() const {
    RpcRequest req;
    req.op = RpcOp::kSync;
    req.creds = User();
    return req.Encode();
  }

  // N client threads submit concurrently; executor workers execute
  // concurrently. Responses are deliberately discarded — after the power cut
  // every remaining op fails, and the verifications below only rely on what
  // reached the media.
  void RunWorkload(Run* run) {
    DriveExecutor::Options eopts;
    eopts.workers = threads_;
    DriveExecutor exec(run->clock.get(), {run->drive.get()}, eopts);
    std::vector<std::thread> clients;
    clients.reserve(static_cast<size_t>(threads_));
    for (int t = 0; t < threads_; ++t) {
      clients.emplace_back([this, run, &exec, t] {
        for (int m = 0; m < appends_per_thread_; ++m) {
          exec.SubmitFrame(0, run->server.get(),
                           AppendFrame(run->objects[static_cast<size_t>(t)], FillByte(t, m)));
          if ((m + 1) % kSyncEvery == 0) {
            exec.SubmitFrame(0, run->server.get(), SyncFrame());
          }
        }
      });
    }
    for (std::thread& c : clients) {
      c.join();
    }
    exec.Drain();
  }

  // Invariant 2: recovered content of thread t's object is an exact prefix
  // of its submitted append sequence.
  void VerifyPerObjectPrefix(Run& run) {
    for (int t = 0; t < threads_; ++t) {
      ObjectId id = run.objects[static_cast<size_t>(t)];
      SCOPED_TRACE("thread " + std::to_string(t) + " object " + std::to_string(id));
      auto attr = run.drive->GetAttr(Admin(), id);
      if (!attr.ok()) {
        continue;  // nothing of this object reached the media: fine
      }
      EXPECT_EQ(attr->size % kAppendBytes, 0u)
          << "recovered size is not a whole number of appends";
      uint64_t recovered = attr->size / kAppendBytes;
      EXPECT_LE(recovered, static_cast<uint64_t>(appends_per_thread_));
      if (attr->size == 0) {
        continue;
      }
      auto data = run.drive->Read(Admin(), id, 0, attr->size);
      ASSERT_TRUE(data.ok()) << data.status().ToString();
      for (uint64_t m = 0; m < recovered; ++m) {
        uint8_t want = FillByte(t, static_cast<int>(m));
        for (uint64_t b = 0; b < kAppendBytes; ++b) {
          if ((*data)[m * kAppendBytes + b] != want) {
            FAIL() << "append " << m << " byte " << b << " is "
                   << int((*data)[m * kAppendBytes + b]) << ", want " << int(want)
                   << ": same-object ordering violated or torn append applied";
          }
        }
      }
    }
  }

  // Invariant 3: version history of every surviving object is monotone.
  void VerifyVersionMonotonicity(Run& run) {
    for (ObjectId id : run.objects) {
      auto versions = run.drive->GetVersionList(Admin(), id);
      if (!versions.ok()) {
        continue;
      }
      SimTime prev = 0;
      for (const VersionInfo& v : *versions) {
        EXPECT_GE(v.time, prev) << "version list not monotone for object " << id;
        prev = v.time;
      }
    }
  }

  // Invariant 1b: the chronicle decodes and the cut never reads as tampering.
  void VerifyAuditChain(Run& run) {
    auto records = run.drive->QueryAudit(Admin(), AuditQuery{});
    EXPECT_TRUE(records.ok()) << "audit log unreadable after recovery: "
                              << records.status().ToString();
    EXPECT_EQ(run.drive->metrics().CounterValue("audit.chain_breaks"), 0u)
        << "power cut under concurrent load misclassified as tampering";
  }

  // Invariant 1a: recovery idempotence, same criteria as the serial harness.
  void VerifyRecoveryIdempotent(Run* run) {
    AuditChainState first = run->drive->DebugAuditChainState();
    uint64_t clean_tails = run->drive->metrics().CounterValue("audit.clean_tail_truncations");
    run->drive.reset();
    auto again = S4Drive::Mount(run->device.get(), run->clock.get(), options_);
    ASSERT_TRUE(again.ok()) << "second remount failed: " << again.status().ToString();
    run->drive = std::move(*again);
    EXPECT_TRUE(run->drive->DebugAuditChainState() == first)
        << "audit chain state differs between two recoveries of the same media";
    EXPECT_EQ(run->drive->metrics().CounterValue("audit.chain_breaks"), 0u)
        << "second recovery flagged tampering that the first did not";
    EXPECT_EQ(run->drive->metrics().CounterValue("audit.clean_tail_truncations"), clean_tails)
        << "clean-tail classification not idempotent";
  }

  int threads_;
  int appends_per_thread_;
  S4DriveOptions options_;
  uint64_t disk_bytes_;
};

}  // namespace s4

#endif  // S4_TESTS_CRASH_HARNESS_H_
