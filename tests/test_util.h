// Shared fixtures/helpers for the S4 test suite.
#ifndef S4_TESTS_TEST_UTIL_H_
#define S4_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <memory>

#include "src/drive/s4_drive.h"
#include "src/sim/block_device.h"
#include "src/sim/sim_clock.h"
#include "src/util/rng.h"

namespace s4 {

#define ASSERT_OK(expr) ASSERT_TRUE((expr).ok()) << (expr).ToString()
#define EXPECT_OK(expr) EXPECT_TRUE((expr).ok()) << (expr).ToString()
#define ASSERT_OK_AND_ASSIGN(lhs, rexpr)                      \
  ASSERT_OK_AND_ASSIGN_IMPL_(S4_CONCAT_(t_res_, __LINE__), lhs, rexpr)
#define ASSERT_OK_AND_ASSIGN_IMPL_(tmp, lhs, rexpr)           \
  auto tmp = (rexpr);                                         \
  ASSERT_TRUE(tmp.ok()) << tmp.status().ToString();           \
  lhs = std::move(tmp).value()

// Free or reclaimable segments found by scanning every segment, to check the
// usage table's running FreeOrReclaimableSegments() count.
inline uint32_t RecountFreeOrReclaimable(const SegmentUsageTable& table) {
  uint32_t n = 0;
  for (SegmentId seg = 0; seg < table.segment_count(); ++seg) {
    if (table.Info(seg).state == SegmentState::kFree || table.Reclaimable(seg)) {
      ++n;
    }
  }
  return n;
}

// A small formatted drive on a small simulated disk, suitable for unit
// tests: 64MB disk, 256KB segments, tiny caches so eviction paths are
// exercised, 1-hour detection window.
class DriveTest : public ::testing::Test {
 public:
  static S4DriveOptions SmallOptions() {
    S4DriveOptions opts;
    opts.segment_sectors = 512;  // 256KB
    opts.block_cache_bytes = 1 << 20;
    opts.object_cache_bytes = 64 << 10;
    opts.detection_window = kHour;
    opts.checkpoint_interval_bytes = 4 << 20;
    return opts;
  }

 protected:
  void SetUp() override { SetUpDrive(SmallOptions(), 64ull << 20); }

  void SetUpDrive(const S4DriveOptions& opts, uint64_t disk_bytes) {
    clock_ = std::make_unique<SimClock>(SimTime{1000000});
    device_ = std::make_unique<BlockDevice>(disk_bytes / kSectorSize, clock_.get());
    auto drive = S4Drive::Format(device_.get(), clock_.get(), opts);
    ASSERT_TRUE(drive.ok()) << drive.status().ToString();
    drive_ = std::move(*drive);
    opts_ = opts;
  }

  // Simulates a crash: drops the drive (in-memory caches and buffers die)
  // and re-mounts from the on-disk state.
  void CrashAndRemount() {
    drive_.reset();  // no Unmount: unsynced state is lost, like power loss
    auto drive = S4Drive::Mount(device_.get(), clock_.get(), opts_);
    ASSERT_TRUE(drive.ok()) << drive.status().ToString();
    drive_ = std::move(*drive);
  }

  Credentials User(UserId user, ClientId client = 1) const {
    Credentials c;
    c.user = user;
    c.client = client;
    return c;
  }

  Credentials Admin() const {
    Credentials c;
    c.user = 0;
    c.client = 0;
    c.admin_key = opts_.admin_key;
    return c;
  }

  std::unique_ptr<SimClock> clock_;
  std::unique_ptr<BlockDevice> device_;
  std::unique_ptr<S4Drive> drive_;
  S4DriveOptions opts_;
};

}  // namespace s4

#endif  // S4_TESTS_TEST_UTIL_H_
