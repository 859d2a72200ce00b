// Fault-injection tests: FaultInjector unit behavior, CRC-checked degradation
// of the drive read path under media faults, and the systematic
// crash-consistency sweep (power cut at every disk-write boundary of a
// scripted workload, clean and torn variants, one script with a cleaner
// pass).
#include <gtest/gtest.h>

#include <algorithm>
#include <iostream>

#include "src/drive/s4_drive.h"
#include "src/rpc/client.h"
#include "src/rpc/transport.h"
#include "src/sim/block_device.h"
#include "src/sim/sim_clock.h"
#include "tests/crash_harness.h"
#include "tests/test_util.h"

namespace s4 {
namespace {

// ---------------------------------------------------------------------------
// FaultInjector unit tests (device level)
// ---------------------------------------------------------------------------

class FaultInjectorTest : public ::testing::Test {
 protected:
  FaultInjectorTest() : clock_(0), device_(1024, &clock_) {
    device_.set_fault_injector(&injector_);
  }

  Bytes Pattern(uint64_t sectors, uint8_t fill) { return Bytes(sectors * kSectorSize, fill); }

  SimClock clock_;
  BlockDevice device_;
  FaultInjector injector_;
};

TEST_F(FaultInjectorTest, PowerCutAfterNthWrite) {
  injector_.SchedulePowerCut(/*nth_write=*/3);
  EXPECT_OK(device_.Write(0, Pattern(1, 0xAA)));
  EXPECT_OK(device_.Write(8, Pattern(1, 0xBB)));
  EXPECT_EQ(injector_.writes_until_cut(), 1u);

  // The third write is the one that loses power: nothing of it persists.
  Status s = device_.Write(16, Pattern(1, 0xCC));
  EXPECT_EQ(s.code(), ErrorCode::kUnavailable);
  EXPECT_TRUE(injector_.power_cut_fired());
  EXPECT_TRUE(injector_.powered_off());

  // All commands fail until power returns.
  Bytes out;
  EXPECT_EQ(device_.Read(0, 1, &out).code(), ErrorCode::kUnavailable);
  EXPECT_EQ(device_.Write(24, Pattern(1, 0xDD)).code(), ErrorCode::kUnavailable);

  injector_.PowerOn();
  ASSERT_OK(device_.Read(0, 1, &out));
  EXPECT_EQ(out, Pattern(1, 0xAA));  // pre-cut write survived
  ASSERT_OK(device_.Read(16, 1, &out));
  EXPECT_EQ(out, Pattern(1, 0x00));  // cut write never reached the media
}

TEST_F(FaultInjectorTest, TornWritePersistsPrefixAndCorruptsRun) {
  injector_.SchedulePowerCut(/*nth_write=*/1, /*persist_sectors=*/2, /*corrupt_sectors=*/1);
  EXPECT_EQ(device_.Write(0, Pattern(8, 0x55)).code(), ErrorCode::kUnavailable);
  injector_.PowerOn();

  Bytes out;
  ASSERT_OK(device_.Read(0, 2, &out));
  EXPECT_EQ(out, Pattern(2, 0x55));  // prefix intact
  ASSERT_OK(device_.Read(2, 1, &out));
  EXPECT_EQ(out, Pattern(1, 0xDE));  // torn sector is garbage
  ASSERT_OK(device_.Read(3, 5, &out));
  EXPECT_EQ(out, Pattern(5, 0x00));  // tail never written
}

TEST_F(FaultInjectorTest, BitRotFlipsOneBitPersistently) {
  ASSERT_OK(device_.Write(5, Pattern(1, 0xFF)));
  injector_.ScheduleBitRot(/*lba=*/5, /*byte_offset=*/7, /*mask=*/0x10);

  Bytes out;
  ASSERT_OK(device_.Read(5, 1, &out));
  EXPECT_EQ(out[7], 0xEF);  // bit flipped
  EXPECT_EQ(out[6], 0xFF);

  // The damage is on the media: a second read sees the same corruption.
  ASSERT_OK(device_.Read(5, 1, &out));
  EXPECT_EQ(out[7], 0xEF);
}

TEST_F(FaultInjectorTest, TransientReadErrorRecoversOnRetry) {
  ASSERT_OK(device_.Write(9, Pattern(1, 0x42)));
  injector_.ScheduleReadError(/*lba=*/9, /*count=*/2);

  Bytes out;
  EXPECT_EQ(device_.Read(9, 1, &out).code(), ErrorCode::kUnavailable);
  EXPECT_EQ(device_.Read(9, 1, &out).code(), ErrorCode::kUnavailable);
  ASSERT_OK(device_.Read(9, 1, &out));
  EXPECT_EQ(out, Pattern(1, 0x42));
}

TEST_F(FaultInjectorTest, CorruptSectorsLeavesTheTornPattern) {
  ASSERT_OK(device_.Write(3, Pattern(1, 0x77)));
  device_.CorruptSectors(3, 1);
  Bytes out;
  ASSERT_OK(device_.Read(3, 1, &out));
  EXPECT_EQ(out, Pattern(1, 0xDE));
}

// ---------------------------------------------------------------------------
// Drive-level degradation under media faults
// ---------------------------------------------------------------------------

class DriveFaultTest : public DriveTest {
 protected:
  void SetUp() override {
    DriveTest::SetUp();
    device_->set_fault_injector(&injector_);
  }
  FaultInjector injector_;
};

TEST_F(DriveFaultTest, BitRotOnJournalIsDetectedNotFatal) {
  auto u = User(1);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(u, {}));
  Bytes data(kBlockSize, 0xAB);
  ASSERT_OK(drive_->Write(u, id, 0, data));
  ASSERT_OK(drive_->Sync(u));

  // Rot every sector the workload wrote. CRCs must catch whatever a
  // subsequent read touches; no read may crash the drive.
  for (uint64_t lba = 0; lba < device_->sector_count(); ++lba) {
    injector_.ScheduleBitRot(lba, /*byte_offset=*/100, /*mask=*/0x08);
  }
  // Drop caches so reads go to the (rotted) media.
  drive_.reset();
  auto remount = S4Drive::Mount(device_.get(), clock_.get(), opts_);
  // Mount either fails cleanly (corruption detected in metadata) or
  // succeeds; both are acceptable — what is not acceptable is a crash.
  if (remount.ok()) {
    drive_ = std::move(*remount);
    auto r = drive_->Read(Admin(), id, 0, kBlockSize);
    // Data blocks carry no per-block CRC; metadata does. Either way the
    // call must return, OK or not.
    (void)r;
  }
}

TEST_F(DriveFaultTest, TransientReadErrorSurfacesAsUnavailable) {
  auto u = User(1);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(u, {}));
  Bytes data(kBlockSize, 0xCD);
  ASSERT_OK(drive_->Write(u, id, 0, data));
  ASSERT_OK(drive_->Sync(u));
  CrashAndRemount();  // empty the block cache so the read hits the device
  device_->set_fault_injector(&injector_);

  for (uint64_t lba = 0; lba < device_->sector_count(); ++lba) {
    injector_.ScheduleReadError(lba, 1);
  }
  auto r = drive_->Read(User(1), id, 0, kBlockSize);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kUnavailable);

  // The faults are transient, but one drive-level read touches several LBAs
  // (inode, journal, data — and with chained audit enabled, audit blocks
  // interleave and shift the layout), each armed with its own single-shot
  // error — retry until the schedule drains.
  Bytes again;
  for (int attempt = 0; attempt < 30; ++attempt) {
    auto retry = drive_->Read(User(1), id, 0, kBlockSize);
    if (retry.ok()) {
      again = std::move(*retry);
      break;
    }
    EXPECT_EQ(retry.status().code(), ErrorCode::kUnavailable);
  }
  EXPECT_EQ(again, data);
}

// ---------------------------------------------------------------------------
// Payload CRC: a chunk whose payload is damaged is treated as torn by scan
// ---------------------------------------------------------------------------

TEST(ChunkPayloadCrcTest, TornPayloadStopsScanAtPriorChunk) {
  SimClock clock(0);
  BlockDevice device(4096, &clock);
  Superblock sb;
  sb.total_sectors = 4096;
  sb.segment_sectors = 128;
  sb.segment_count = 4;
  sb.first_segment = 16;
  SegmentUsageTable sut(sb.segment_count, sb.segment_sectors);
  SegmentWriter writer(&device, &sb, &sut, &clock, /*next_seq=*/1);

  // Chunk 1: one data block. Chunk 2: another.
  Bytes block_a(kBlockSize, 0x11);
  Bytes block_b(kBlockSize, 0x22);
  ASSERT_OK_AND_ASSIGN(DiskAddr addr_a, writer.Append(RecordKind::kData, 7, 0, block_a));
  ASSERT_OK(writer.Flush());
  ASSERT_OK_AND_ASSIGN(DiskAddr addr_b, writer.Append(RecordKind::kData, 7, 1, block_b));
  ASSERT_OK(writer.Flush());

  // Both chunks scan back intact.
  ASSERT_OK_AND_ASSIGN(std::vector<ScannedChunk> chunks,
                       ScanSegment(&device, sb, writer.active_segment()));
  ASSERT_EQ(chunks.size(), 2u);
  EXPECT_EQ(chunks[0].records[0].addr, addr_a);
  EXPECT_EQ(chunks[1].records[0].addr, addr_b);

  // Tear one payload sector of the SECOND chunk. Its summary is still valid,
  // but the payload CRC no longer matches: scan must stop after chunk 1
  // instead of yielding a chunk whose data is garbage.
  device.CorruptSectors(addr_b + 2, 1);
  ASSERT_OK_AND_ASSIGN(chunks, ScanSegment(&device, sb, writer.active_segment()));
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].seq, 1u);

  // Damage to the FIRST chunk's payload drops everything from that point on.
  device.CorruptSectors(addr_a, 1);
  ASSERT_OK_AND_ASSIGN(chunks, ScanSegment(&device, sb, writer.active_segment()));
  EXPECT_TRUE(chunks.empty());
}

// ---------------------------------------------------------------------------
// Systematic crash sweep: cut power at EVERY write boundary
// ---------------------------------------------------------------------------

ScriptOp Op(ScriptOp::Kind kind, size_t slot, uint64_t offset = 0, uint64_t length = 0,
            uint8_t fill = 0) {
  ScriptOp op;
  op.kind = kind;
  op.slot = slot;
  op.offset = offset;
  op.length = length;
  op.fill = fill;
  return op;
}

// A workload exercising every mutating RPC, with Syncs between phases so the
// sweep crosses data-chunk, journal, audit, and checkpoint write boundaries.
std::vector<ScriptOp> StandardScript() {
  std::vector<ScriptOp> script;
  script.push_back(Op(ScriptOp::kCreate, 0));
  script.push_back(Op(ScriptOp::kWrite, 0, 0, 2 * kBlockSize, 0xA1));
  script.push_back(Op(ScriptOp::kSync, 0));
  script.push_back(Op(ScriptOp::kCreate, 1));
  script.push_back(Op(ScriptOp::kAppend, 1, 0, kBlockSize + 100, 0xB2));
  script.push_back(Op(ScriptOp::kWrite, 0, kBlockSize, kBlockSize, 0xC3));
  script.push_back(Op(ScriptOp::kSync, 0));
  ScriptOp acl = Op(ScriptOp::kSetAcl, 1);
  acl.acl = AclEntry{2, kPermRead};
  script.push_back(acl);
  script.push_back(Op(ScriptOp::kTruncate, 0, 0, kBlockSize / 2));
  script.push_back(Op(ScriptOp::kSync, 0));
  script.push_back(Op(ScriptOp::kDelete, 1));
  script.push_back(Op(ScriptOp::kAppend, 0, 0, 3 * kBlockSize, 0xD4));
  script.push_back(Op(ScriptOp::kSync, 0));
  // Large phase: spills over a 256KB segment boundary so the sweep crosses
  // chunk-rollover and (with a small checkpoint interval) checkpoint writes.
  script.push_back(Op(ScriptOp::kCreate, 2));
  script.push_back(Op(ScriptOp::kAppend, 2, 0, 70 * kBlockSize, 0xE5));
  script.push_back(Op(ScriptOp::kSync, 2));
  script.push_back(Op(ScriptOp::kWrite, 2, 10 * kBlockSize, kBlockSize, 0xF6));
  script.push_back(Op(ScriptOp::kSync, 2));
  return script;
}

S4DriveOptions SweepOptions() {
  S4DriveOptions opts = DriveTest::SmallOptions();
  // Force auto-checkpoints during the workload so the sweep also cuts power
  // inside checkpoint-region writes.
  opts.checkpoint_interval_bytes = 128 << 10;
  return opts;
}

TEST(CrashSweepTest, CleanPowerCutAtEveryWriteBoundary) {
  CrashHarness harness(StandardScript(), SweepOptions());
  uint64_t n = harness.CountWritePoints();
  ASSERT_GE(n, 8u) << "workload too small to exercise multiple boundaries";
  std::cerr << "[ sweep    ] " << n << " write boundaries\n";
  for (uint64_t k = 1; k <= n; ++k) {
    harness.RunCrashPoint(k, /*torn_tail=*/false);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

TEST(CrashSweepTest, TornTailPowerCutAtEveryWriteBoundary) {
  CrashHarness harness(StandardScript(), SweepOptions());
  uint64_t n = harness.CountWritePoints();
  ASSERT_GE(n, 8u) << "workload too small to exercise multiple boundaries";
  for (uint64_t k = 1; k <= n; ++k) {
    harness.RunCrashPoint(k, /*torn_tail=*/true);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Batched (group-commit) variant: same script, mutations ride kBatch frames
// whose final sub-op is the Sync. Every write boundary is swept; snapshots
// exist only for acknowledged Syncs, so the check is the group-commit
// invariant — a sync point is durable as a whole, or the journal ends at the
// previous intact chunk.
// ---------------------------------------------------------------------------

TEST(CrashSweepTest, BatchedGroupCommitCleanCutAtEveryWriteBoundary) {
  CrashHarness harness(StandardScript(), SweepOptions(), 64ull << 20, /*batched=*/true);
  uint64_t n = harness.CountWritePoints();
  ASSERT_GE(n, 4u) << "batched workload produced too few write boundaries";
  std::cerr << "[ sweep    ] " << n << " write boundaries (batched)\n";

  // The script has the same sync points either way, so the batched replay
  // must not ADD disk-write boundaries: all sub-ops of a batch group-commit
  // into the chunks one synced replay would produce. (The disk-write
  // reduction comes from issuing fewer syncs, which bench_batch measures.)
  CrashHarness unbatched(StandardScript(), SweepOptions());
  EXPECT_LE(n, unbatched.CountWritePoints());

  for (uint64_t k = 1; k <= n; ++k) {
    harness.RunCrashPoint(k, /*torn_tail=*/false);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Audit-chain sweep: many tiny metadata ops with frequent Syncs, so most
// write boundaries are audit-block flushes (the commit marker itself only
// advances at checkpoints/unmount and so lags every cut point here). Every
// cut — clean or torn — must recover as a clean tail (never a chain break),
// idempotently, losing at most the post-last-sync records. The harness
// checks all of that in VerifyAuditLog/VerifyRecoveryIdempotent.
// ---------------------------------------------------------------------------

std::vector<ScriptOp> AuditHeavyScript() {
  std::vector<ScriptOp> script;
  script.push_back(Op(ScriptOp::kCreate, 0));
  for (int round = 0; round < 10; ++round) {
    script.push_back(Op(ScriptOp::kWrite, 0, 0, 64, static_cast<uint8_t>(0x10 + round)));
    ScriptOp acl = Op(ScriptOp::kSetAcl, 0);
    acl.acl = AclEntry{2, kPermRead};
    script.push_back(acl);
    script.push_back(Op(ScriptOp::kTruncate, 0, 0, 32));
    script.push_back(Op(ScriptOp::kSync, 0));
  }
  return script;
}

TEST(CrashSweepTest, AuditChainCleanCutAtEveryFlushBoundary) {
  CrashHarness harness(AuditHeavyScript(), SweepOptions());
  uint64_t n = harness.CountWritePoints();
  ASSERT_GE(n, 8u) << "audit workload produced too few write boundaries";
  std::cerr << "[ sweep    ] " << n << " write boundaries (audit-heavy)\n";
  for (uint64_t k = 1; k <= n; ++k) {
    harness.RunCrashPoint(k, /*torn_tail=*/false);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

TEST(CrashSweepTest, AuditChainTornTailAtEveryFlushBoundary) {
  CrashHarness harness(AuditHeavyScript(), SweepOptions());
  uint64_t n = harness.CountWritePoints();
  ASSERT_GE(n, 8u) << "audit workload produced too few write boundaries";
  for (uint64_t k = 1; k <= n; ++k) {
    harness.RunCrashPoint(k, /*torn_tail=*/true);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

TEST(CrashSweepTest, BatchedGroupCommitTornTailAtEveryWriteBoundary) {
  CrashHarness harness(StandardScript(), SweepOptions(), 64ull << 20, /*batched=*/true);
  uint64_t n = harness.CountWritePoints();
  ASSERT_GE(n, 4u) << "batched workload produced too few write boundaries";
  for (uint64_t k = 1; k <= n; ++k) {
    harness.RunCrashPoint(k, /*torn_tail=*/true);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Cleaner sweep: most of the script ages out of the detection window, then
// one cleaner pass runs and a last version follows it. The pass sweeps aged
// chunks (the active segment's too), checkpoints a live object whose
// entries it frees, fully expires a deleted object, compacts the sealed
// segment and writes the device checkpoint; power is cut at every write
// boundary of the script, the pass's included.
// ---------------------------------------------------------------------------

std::vector<ScriptOp> CleanerScript() {
  std::vector<ScriptOp> script;
  script.push_back(Op(ScriptOp::kCreate, 0));
  script.push_back(Op(ScriptOp::kWrite, 0, 0, 2 * kBlockSize, 0xA1));
  script.push_back(Op(ScriptOp::kSync, 0));
  script.push_back(Op(ScriptOp::kCreate, 1));
  script.push_back(Op(ScriptOp::kAppend, 1, 0, kBlockSize + 100, 0xB2));
  script.push_back(Op(ScriptOp::kSync, 1));
  // Slot 2 fills most of the first segment; overwriting it spills the log
  // into a second one, where the rest of the aged chunks land.
  script.push_back(Op(ScriptOp::kCreate, 2));
  script.push_back(Op(ScriptOp::kAppend, 2, 0, 40 * kBlockSize, 0xC3));
  script.push_back(Op(ScriptOp::kSync, 2));
  script.push_back(Op(ScriptOp::kWrite, 2, 0, 30 * kBlockSize, 0xD4));
  script.push_back(Op(ScriptOp::kSync, 2));
  // Slot 3 is metadata only: nothing but the pass checkpoints it.
  script.push_back(Op(ScriptOp::kCreate, 3));
  ScriptOp acl = Op(ScriptOp::kSetAcl, 3);
  acl.acl = AclEntry{2, kPermRead};
  script.push_back(acl);
  script.push_back(Op(ScriptOp::kSync, 3));
  script.push_back(Op(ScriptOp::kDelete, 1));
  script.push_back(Op(ScriptOp::kSync, 1));
  ScriptOp age = Op(ScriptOp::kAdvance, 0);
  age.advance = SweepOptions().detection_window + kMinute;
  script.push_back(age);
  script.push_back(Op(ScriptOp::kCreate, 4));
  script.push_back(Op(ScriptOp::kWrite, 4, 0, kBlockSize, 0xE5));
  script.push_back(Op(ScriptOp::kSync, 4));
  script.push_back(Op(ScriptOp::kClean, 0));
  script.push_back(Op(ScriptOp::kWrite, 4, 0, kBlockSize, 0xF6));
  script.push_back(Op(ScriptOp::kSync, 4));
  return script;
}

TEST(CrashSweepTest, CleanerScriptPassDoesEveryKindOfCleaning) {
  // Pins what the cleaner sweep below covers, by running the script up to
  // the pass and through it.
  std::vector<ScriptOp> script = CleanerScript();
  auto clean = std::find_if(script.begin(), script.end(),
                            [](const ScriptOp& op) { return op.kind == ScriptOp::kClean; });
  ASSERT_NE(clean, script.end());
  uint64_t checkpoints_before = 0;
  CrashHarness(std::vector<ScriptOp>(script.begin(), clean), SweepOptions())
      .RunFaultFree([&](S4Drive& drive, const std::vector<ObjectId>& ids) {
        ASSERT_TRUE(drive.DebugObjectEntry(ids[1]).has_value());
        ASSERT_TRUE(drive.DebugObjectEntry(ids[3]).has_value());
        EXPECT_EQ(drive.DebugObjectEntry(ids[3])->checkpoint_addr, kNullAddr);
        // The deleted object's kDelete sector, aged, sits in the active segment.
        const Superblock& sb = drive.superblock();
        SegmentId seg = sb.SegmentOf(drive.DebugObjectEntry(ids[1])->journal_head);
        EXPECT_EQ(drive.usage_table().Info(seg).state, SegmentState::kActive);
        EXPECT_GT(drive.HistoryPoolBytes(), 0u);
        checkpoints_before = drive.metrics().CounterValue("drive.device_checkpoints");
      });
  CrashHarness(std::vector<ScriptOp>(script.begin(), clean + 1), SweepOptions())
      .RunFaultFree([&](S4Drive& drive, const std::vector<ObjectId>& ids) {
        // Every aged chunk swept, the active segment's included.
        EXPECT_EQ(drive.HistoryPoolBytes(), 0u);
        // The guarded object was checkpointed before its sectors were freed.
        ASSERT_TRUE(drive.DebugObjectEntry(ids[3]).has_value());
        EXPECT_NE(drive.DebugObjectEntry(ids[3])->checkpoint_addr, kNullAddr);
        // The deleted object fully expired.
        EXPECT_FALSE(drive.DebugObjectEntry(ids[1]).has_value());
        EXPECT_GT(drive.metrics().CounterValue("cleaner.segments_compacted"), 0u);
        EXPECT_GT(drive.metrics().CounterValue("drive.device_checkpoints"), checkpoints_before);
      });
}

TEST(CrashSweepTest, CleanerPassPowerCutAtEveryWriteBoundary) {
  CrashHarness harness(CleanerScript(), SweepOptions());
  uint64_t n = harness.CountWritePoints();
  ASSERT_GE(n, 8u) << "cleaner workload too small to exercise multiple boundaries";
  std::cerr << "[ sweep    ] " << n << " write boundaries (cleaner pass)\n";
  for (bool torn_tail : {false, true}) {
    for (uint64_t k = 1; k <= n; ++k) {
      harness.RunCrashPoint(k, torn_tail);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Unmount sweep: cut power at every write of the clean-unmount sequence —
// the final checkpoint and each of the three superblock replica rewrites.
// Any prefix of the clean mark (including a torn replica sector) must leave
// a volume that mounts and preserves every synced state.
// ---------------------------------------------------------------------------

TEST(CrashSweepTest, UnmountCleanCutAtEveryWriteBoundary) {
  CrashHarness harness(StandardScript(), SweepOptions());
  uint64_t n = harness.CountUnmountWrites();
  ASSERT_GE(n, 4u) << "unmount issued too few writes to tear the clean mark";
  std::cerr << "[ sweep    ] " << n << " unmount write boundaries\n";
  for (uint64_t k = 1; k <= n; ++k) {
    harness.RunUnmountCrashPoint(k, /*torn_tail=*/false);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

TEST(CrashSweepTest, UnmountTornTailAtEveryWriteBoundary) {
  CrashHarness harness(StandardScript(), SweepOptions());
  uint64_t n = harness.CountUnmountWrites();
  ASSERT_GE(n, 4u) << "unmount issued too few writes to tear the clean mark";
  for (uint64_t k = 1; k <= n; ++k) {
    harness.RunUnmountCrashPoint(k, /*torn_tail=*/true);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Power cut during recovery itself: the first crash interrupts the workload
// (or the clean unmount), the second interrupts the recovering mount's own
// writes — superblock healing, the dirty re-mark, a torn-audit-tail trim.
// Recovery must be restartable from any prefix of its write sequence.
// ---------------------------------------------------------------------------

TEST(CrashSweepTest, PowerCutDuringRecoveryAfterWorkloadCrash) {
  CrashHarness harness(StandardScript(), SweepOptions());
  uint64_t n = harness.CountWritePoints();
  ASSERT_GE(n, 8u) << "workload too small to exercise multiple boundaries";
  // A full cross product squares the sweep; sample workload crash points
  // across the run. Torn tails maximise recovery's own writes (audit trim).
  for (uint64_t kw : {n / 4, n / 2, n - 1}) {
    if (kw == 0) {
      continue;
    }
    for (bool torn : {false, true}) {
      uint64_t r = harness.CountRecoveryWrites(kw, torn);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
      for (uint64_t kr = 1; kr <= r; ++kr) {
        harness.RunRecoveryCrashPoint(kw, kr, torn);
        if (::testing::Test::HasFatalFailure()) {
          return;
        }
      }
    }
  }
}

TEST(CrashSweepTest, PowerCutDuringRecoveryAfterUnmountCrash) {
  CrashHarness harness(StandardScript(), SweepOptions());
  uint64_t n = harness.CountUnmountWrites();
  ASSERT_GE(n, 4u) << "unmount issued too few writes to tear the clean mark";
  // Every unmount crash point, crossed with every write the recovering
  // mount then issues (this is where a clean-won vote is re-marked dirty
  // across all three replicas — each of those writes gets torn too).
  for (uint64_t ku = 1; ku <= n; ++ku) {
    for (bool torn : {false, true}) {
      uint64_t r = harness.CountRecoveryWrites(ku, torn, /*during_unmount=*/true);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
      for (uint64_t kr = 1; kr <= r; ++kr) {
        harness.RunRecoveryCrashPoint(ku, kr, torn, /*during_unmount=*/true);
        if (::testing::Test::HasFatalFailure()) {
          return;
        }
      }
    }
  }
}

}  // namespace
}  // namespace s4
