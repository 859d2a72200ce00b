// Quorum superblocks and the O(1) clean-mount path: replica voting, healing
// of torn/stale copies, epoch carry across reformats, checkpoint-bounded
// dirty scans, and identical state from re-mounting one crashed image.
#include <gtest/gtest.h>

#include "src/drive/s4_drive.h"
#include "src/sim/block_device.h"
#include "src/sim/sim_clock.h"
#include "tests/test_util.h"

namespace s4 {
namespace {

class SuperblockQuorumTest : public DriveTest {
 protected:
  ObjectId WriteWorkload(uint64_t blocks = 8, uint8_t fill = 0x5A) {
    auto u = User(1);
    auto created = drive_->Create(u, {});
    EXPECT_OK(created.status());
    ObjectId id = created.ok() ? *created : 0;
    Bytes data(kBlockSize * blocks, fill);
    EXPECT_OK(drive_->Write(u, id, 0, data));
    EXPECT_OK(drive_->Sync(u));
    return id;
  }

  void ExpectContent(ObjectId id, uint64_t blocks, uint8_t fill) {
    auto back = drive_->Read(Admin(), id, 0, kBlockSize * blocks);
    ASSERT_OK(back.status());
    EXPECT_EQ(*back, Bytes(kBlockSize * blocks, fill));
  }
};

TEST_F(SuperblockQuorumTest, CleanMountSkipsLogScan) {
  ObjectId id = WriteWorkload();
  ASSERT_OK(drive_->Unmount());
  drive_.reset();
  ASSERT_OK_AND_ASSIGN(drive_, S4Drive::Mount(device_.get(), clock_.get(), opts_));

  const MetricRegistry& reg = drive_->metrics();
  EXPECT_EQ(reg.CounterValue("recovery.clean_mounts"), 1u);
  EXPECT_EQ(reg.CounterValue("recovery.segments_scanned"), 0u);
  EXPECT_EQ(reg.CounterValue("recovery.segments_skipped"),
            drive_->superblock().segment_count);
  EXPECT_EQ(reg.CounterValue("recovery.chunks_replayed"), 0u);
  EXPECT_GE(reg.CounterValue("recovery.superblock_votes"), 3u);
  ExpectContent(id, 8, 0x5A);

  // The mount dirty-marked the volume before touching anything else: a crash
  // now must take the scanning path, and the post-mount writes must replay.
  ASSERT_OK(drive_->Write(User(1), id, 0, Bytes(kBlockSize, 0x77)));
  ASSERT_OK(drive_->Sync(User(1)));
  CrashAndRemount();
  EXPECT_EQ(drive_->metrics().CounterValue("recovery.clean_mounts"), 0u);
  EXPECT_GT(drive_->metrics().CounterValue("recovery.chunks_replayed"), 0u);
  auto back = drive_->Read(Admin(), id, 0, kBlockSize);
  ASSERT_OK(back.status());
  EXPECT_EQ(*back, Bytes(kBlockSize, 0x77));
}

TEST_F(SuperblockQuorumTest, AnySingleTornReplicaTolerated) {
  ObjectId id = WriteWorkload();
  ASSERT_OK(drive_->Unmount());
  Superblock sb = drive_->superblock();
  ASSERT_NE(sb.sb_mid, 0u);
  ASSERT_NE(sb.sb_tail, 0u);

  for (DiskAddr addr : {DiskAddr{0}, sb.sb_mid, sb.sb_tail}) {
    SCOPED_TRACE("torn replica at sector " + std::to_string(addr));
    drive_.reset();
    device_->CorruptSectors(addr, 1);
    auto mounted = S4Drive::Mount(device_.get(), clock_.get(), opts_);
    ASSERT_OK(mounted.status());
    drive_ = std::move(*mounted);
    EXPECT_EQ(drive_->metrics().CounterValue("recovery.stale_superblocks_healed"), 1u);
    ExpectContent(id, 8, 0x5A);
    // The dirty re-mark rewrote all replicas; leave the volume clean again
    // so the next iteration tears exactly one fresh copy.
    ASSERT_OK(drive_->Unmount());
  }
}

TEST_F(SuperblockQuorumTest, MidAndTailTornStillMountsFromSectorZero) {
  ObjectId id = WriteWorkload();
  ASSERT_OK(drive_->Unmount());
  Superblock sb = drive_->superblock();
  drive_.reset();
  device_->CorruptSectors(sb.sb_mid, 1);
  device_->CorruptSectors(sb.sb_tail, 1);
  ASSERT_OK_AND_ASSIGN(drive_, S4Drive::Mount(device_.get(), clock_.get(), opts_));
  EXPECT_EQ(drive_->metrics().CounterValue("recovery.superblock_votes"), 1u);
  EXPECT_EQ(drive_->metrics().CounterValue("recovery.stale_superblocks_healed"), 2u);
  ExpectContent(id, 8, 0x5A);
}

TEST_F(SuperblockQuorumTest, BothOuterReplicasTornFailsClosed) {
  WriteWorkload();
  ASSERT_OK(drive_->Unmount());
  Superblock sb = drive_->superblock();
  drive_.reset();
  // The mid replica's address can only be learned from a valid outer copy;
  // with both outer copies gone, the quorum is unreachable and the mount
  // must refuse rather than guess at geometry.
  device_->CorruptSectors(0, 1);
  device_->CorruptSectors(sb.sb_tail, 1);
  auto mounted = S4Drive::Mount(device_.get(), clock_.get(), opts_);
  ASSERT_FALSE(mounted.ok());
  EXPECT_EQ(mounted.status().code(), ErrorCode::kDataCorruption);
}

TEST_F(SuperblockQuorumTest, StaleReplicaIsOutvotedAndHealed) {
  ObjectId id = WriteWorkload();
  // Capture the dirty, older-epoch superblock, then roll sector 0 back to it
  // after the clean unmount — an offline rollback attack on one replica.
  Bytes stale;
  ASSERT_OK(device_->Read(0, 1, &stale));
  ASSERT_OK(drive_->Unmount());
  ASSERT_OK(device_->Write(0, stale));
  drive_.reset();
  ASSERT_OK_AND_ASSIGN(drive_, S4Drive::Mount(device_.get(), clock_.get(), opts_));
  // The newer clean copies outvote the rolled-back sector 0: still a clean
  // mount, and the stale copy is counted (and re-marked) as healed.
  EXPECT_EQ(drive_->metrics().CounterValue("recovery.clean_mounts"), 1u);
  EXPECT_EQ(drive_->metrics().CounterValue("recovery.stale_superblocks_healed"), 1u);
  ExpectContent(id, 8, 0x5A);
}

TEST_F(SuperblockQuorumTest, EpochSurvivesReformat) {
  WriteWorkload();
  ASSERT_OK(drive_->Unmount());
  uint64_t old_epoch = drive_->superblock().epoch;
  EXPECT_GT(old_epoch, 0u);
  drive_.reset();
  // A reformat must start above every epoch the old volume ever wrote, so a
  // surviving replica of the previous layout can never outvote the new one.
  ASSERT_OK_AND_ASSIGN(drive_, S4Drive::Format(device_.get(), clock_.get(), opts_));
  EXPECT_GT(drive_->superblock().epoch, old_epoch);
}

TEST_F(SuperblockQuorumTest, DirtyMountScansOnlyCandidateSegments) {
  auto u = User(1);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(u, {}));
  // ~1.5MB across several 256KB segments, all newer than the format-time
  // checkpoint — the only territory a bounded scan needs to visit.
  Bytes data(kBlockSize * 16, 0x3C);
  for (int i = 0; i < 6; ++i) {
    ASSERT_OK(drive_->Write(u, id, static_cast<uint64_t>(i) * data.size(), data));
  }
  ASSERT_OK(drive_->Sync(u));
  CrashAndRemount();

  const MetricRegistry& reg = drive_->metrics();
  uint64_t scanned = reg.CounterValue("recovery.segments_scanned");
  uint64_t skipped = reg.CounterValue("recovery.segments_skipped");
  EXPECT_GT(scanned, 0u);
  EXPECT_GT(skipped, scanned) << "bounded scan visited most of the disk";
  EXPECT_EQ(scanned + skipped, drive_->superblock().segment_count);
  EXPECT_GT(reg.CounterValue("recovery.chunks_replayed"), 0u);
  for (int i = 0; i < 6; ++i) {
    auto back = drive_->Read(Admin(), id, static_cast<uint64_t>(i) * data.size(),
                             data.size());
    ASSERT_OK(back.status());
    EXPECT_EQ(*back, data) << "region " << i;
  }
}

// Mounting one crashed image twice scans and replays the same counts and
// reads the same bytes. (The name dates from when the two mounts used
// different scan widths; the scan is now always serial.)
TEST_F(SuperblockQuorumTest, SerialAndParallelScanRecoverIdenticalState) {
  auto u = User(1);
  ASSERT_OK_AND_ASSIGN(ObjectId id, drive_->Create(u, {}));
  Bytes data(kBlockSize * 16, 0x6B);
  for (int i = 0; i < 4; ++i) {
    ASSERT_OK(drive_->Write(u, id, static_cast<uint64_t>(i) * data.size(), data));
  }
  ASSERT_OK(drive_->Sync(u));
  drive_.reset();

  ASSERT_OK_AND_ASSIGN(drive_, S4Drive::Mount(device_.get(), clock_.get(), opts_));
  uint64_t scanned = drive_->metrics().CounterValue("recovery.segments_scanned");
  uint64_t replayed = drive_->metrics().CounterValue("recovery.chunks_replayed");
  auto first = drive_->Read(Admin(), id, 0, 4 * data.size());
  ASSERT_OK(first.status());
  drive_.reset();

  ASSERT_OK_AND_ASSIGN(drive_, S4Drive::Mount(device_.get(), clock_.get(), opts_));
  EXPECT_EQ(drive_->metrics().CounterValue("recovery.segments_scanned"), scanned);
  EXPECT_EQ(drive_->metrics().CounterValue("recovery.chunks_replayed"), replayed);
  auto second = drive_->Read(Admin(), id, 0, 4 * data.size());
  ASSERT_OK(second.status());
  EXPECT_EQ(*first, *second);
}

}  // namespace
}  // namespace s4
