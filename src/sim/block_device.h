// BlockDevice: a sector-addressable store with a disk-arm timing model.
//
// This is the substitute for the paper's 9GB 10,000RPM Seagate Cheetah drive
// (see DESIGN.md section 2). Sectors live in memory; every read/write charges
// simulated time to the shared SimClock according to DiskModel, so the
// relative cost of random vs. sequential I/O — which drives every figure in
// the evaluation — is faithfully reproduced.
#ifndef S4_SRC_SIM_BLOCK_DEVICE_H_
#define S4_SRC_SIM_BLOCK_DEVICE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/obs/op_context.h"
#include "src/sim/sim_clock.h"
#include "src/util/bytes.h"
#include "src/util/status.h"
#include "src/util/sync.h"
#include "src/util/time.h"

namespace s4 {

constexpr uint32_t kSectorSize = 512;

// Programmable media-fault schedule, attachable to a BlockDevice. Models the
// adversarial failure modes crash recovery must survive:
//
//   * power cut during the Nth write command (with an optional torn tail:
//     a prefix of the write's sectors persists, a further run is corrupted,
//     the remainder never reaches the platter),
//   * silent bit-rot on chosen LBAs (flips persist on the media and are only
//     observable through checksums),
//   * transient read errors (the command fails, a retry succeeds).
//
// The injector is passive state; the owning BlockDevice consults it on every
// command. One injector drives at most one device.
class FaultInjector {
 public:
  // Cuts power during the `nth` write command issued from now (1-based;
  // nth=1 is the very next write). Of that write, the first `persist_sectors`
  // land intact, the next `corrupt_sectors` are torn (filled with garbage),
  // and the rest never reaches the media. The cutting write and every
  // command after it fail with kUnavailable until PowerOn().
  void SchedulePowerCut(uint64_t nth_write, uint64_t persist_sectors = 0,
                        uint64_t corrupt_sectors = 0);

  // Silent bit-rot: XORs `mask` into byte `byte_offset` of sector `lba` the
  // next time that sector passes under the head. The damage is applied to
  // the media, so it persists across reads and power cycles.
  void ScheduleBitRot(uint64_t lba, uint32_t byte_offset = 0, uint8_t mask = 0x01);

  // The next `count` read commands touching `lba` fail with kUnavailable;
  // after that, reads succeed again (a transient/recovered medium error).
  void ScheduleReadError(uint64_t lba, uint32_t count = 1);

  // Restores power after a cut. Platter contents (including any torn write
  // damage) are untouched; only the ability to issue commands returns.
  void PowerOn() { powered_off_ = false; }
  bool powered_off() const { return powered_off_; }
  // True once a scheduled power cut has fired.
  bool power_cut_fired() const { return power_cut_fired_; }
  // Write commands remaining before a scheduled cut fires (0 = none armed).
  uint64_t writes_until_cut() const { return writes_until_cut_; }

  // Clears all scheduled faults and restores power.
  void Reset();

 private:
  friend class BlockDevice;

  struct WriteFault {
    bool power_cut = false;
    uint64_t persist_sectors = 0;
    uint64_t corrupt_sectors = 0;
  };
  struct RotMark {
    uint32_t byte_offset;
    uint8_t mask;
  };

  // Device-side hooks: called once per command, in command order.
  WriteFault OnWrite();
  bool OnRead(uint64_t lba, uint64_t count);  // true = fail this read
  // Takes the pending rot marks overlapping [lba, lba+count).
  std::vector<std::pair<uint64_t, RotMark>> TakeRot(uint64_t lba, uint64_t count);

  bool powered_off_ = false;
  bool power_cut_fired_ = false;
  uint64_t writes_until_cut_ = 0;  // 0 = no cut armed
  uint64_t cut_persist_sectors_ = 0;
  uint64_t cut_corrupt_sectors_ = 0;
  std::multimap<uint64_t, RotMark> rot_;          // lba -> pending rot
  std::map<uint64_t, uint32_t> read_errors_;      // lba -> remaining failures
};

// Timing parameters, defaulted to the Seagate Cheetah 10K (ST39102) class
// drive used in the paper's testbed.
struct DiskModel {
  SimDuration average_seek = 5200;       // 5.2 ms average seek
  SimDuration track_to_track_seek = 600; // short seeks
  SimDuration average_rotation = 3000;   // 10,000 RPM -> 3 ms half rotation
  double media_rate_mb_s = 25.0;         // sustained media transfer
  SimDuration command_overhead = 100;    // controller/firmware per command
  // A "sequential" access issued after the platter has spun past the head
  // still pays a rotational delay; gaps longer than this charge it.
  SimDuration sequential_idle_gap = 150;

  // Cost of transferring n sectors once the head is positioned.
  SimDuration TransferCost(uint64_t sectors) const {
    double bytes = static_cast<double>(sectors) * kSectorSize;
    double seconds = bytes / (media_rate_mb_s * 1e6);
    return static_cast<SimDuration>(seconds * kSecond);
  }
};

struct DiskStats {
  uint64_t reads = 0;            // read commands
  uint64_t writes = 0;           // write commands
  uint64_t sectors_read = 0;
  uint64_t sectors_written = 0;
  uint64_t seeks = 0;            // commands that required repositioning
  SimDuration busy_time = 0;     // total simulated time spent in the disk

  DiskStats operator-(const DiskStats& rhs) const {
    DiskStats d;
    d.reads = reads - rhs.reads;
    d.writes = writes - rhs.writes;
    d.sectors_read = sectors_read - rhs.sectors_read;
    d.sectors_written = sectors_written - rhs.sectors_written;
    d.seeks = seeks - rhs.seeks;
    d.busy_time = busy_time - rhs.busy_time;
    return d;
  }
};

class BlockDevice {
 public:
  // Creates a device with `sector_count` zeroed sectors. The clock is shared
  // with the rest of the simulation and must outlive the device.
  BlockDevice(uint64_t sector_count, SimClock* clock, DiskModel model = DiskModel());

  uint64_t sector_count() const { return sector_count_; }
  uint64_t capacity_bytes() const { return sector_count_ * kSectorSize; }

  // Reads `count` sectors starting at `lba` into out (resized to fit).
  // When `ctx` is non-null, the command's modelled time and sector counts are
  // attributed to that request and a "disk.read"/"disk.write" span recorded.
  //
  // Commands are internally serialised (there is one disk arm): concurrent
  // executor lanes queue on the device's busy timeline, so a command issued
  // while the arm is busy starts when the arm frees up, exactly as real
  // hardware would. On the serial path the timeline never runs ahead of the
  // clock and the timing is identical to the pre-concurrency model.
  Status Read(uint64_t lba, uint64_t count, Bytes* out, OpContext* ctx = nullptr)
      S4_EXCLUDES(mu_);
  // Writes data (must be a whole number of sectors) starting at `lba`.
  Status Write(uint64_t lba, ByteSpan data, OpContext* ctx = nullptr) S4_EXCLUDES(mu_);

  DiskStats stats() const S4_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return stats_;
  }
  void ResetStats() S4_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    stats_ = DiskStats();
  }

  // Attaches a fault schedule (nullptr detaches). The injector must outlive
  // the device or be detached first. Swapping injectors while commands are
  // in flight is a programming error; the lock still makes it a data-race-
  // free one.
  void set_fault_injector(FaultInjector* injector) S4_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    injector_ = injector;
  }
  FaultInjector* fault_injector() const S4_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return injector_;
  }

  // Directly overwrites `count` sectors starting at `lba` with a
  // recognisable garbage pattern — media damage with no timing cost, for
  // tests that corrupt state out-of-band.
  void CorruptSectors(uint64_t lba, uint64_t count = 1) S4_EXCLUDES(mu_);

 private:
  // Backing store is allocated lazily in 1MB chunks so multi-GB simulated
  // disks only commit memory for sectors actually written.
  static constexpr uint64_t kChunkBytes = 1 << 20;

  SimDuration PositioningCost(uint64_t lba, SimTime start) S4_REQUIRES(mu_);
  // Charges one command on the arm's timeline: positioning plus the transfer
  // of `sectors`, of which `counted` are recorded as read or written (a torn
  // write transfers sectors it does not store). Leaves the head after them.
  void Command(bool write, uint64_t lba, uint64_t sectors, uint64_t counted, OpContext* ctx)
      S4_REQUIRES(mu_);
  uint8_t* ChunkFor(uint64_t byte_offset, bool allocate) S4_REQUIRES(mu_);
  void CopyOut(uint64_t byte_offset, uint64_t len, uint8_t* dst) S4_REQUIRES(mu_);
  void CopyIn(uint64_t byte_offset, ByteSpan src) S4_REQUIRES(mu_);
  // CorruptSectors body; Write calls it with the command lock already held.
  void CorruptSectorsLocked(uint64_t lba, uint64_t count) S4_REQUIRES(mu_);

  uint64_t sector_count_;
  SimClock* clock_;
  DiskModel model_;
  // One command at a time: guards media contents, fault state, stats, and the
  // arm's busy timeline against concurrent callers. The executor binds each
  // drive (and so its device) to one worker, but the device stays safe to
  // call from any thread: stats and fault state may be read or set from
  // outside the worker that issues commands. Rank kDevice: a leaf, no other
  // lock is held when a command arrives.
  mutable Mutex mu_{LockRank::kDevice, "BlockDevice"};
  // The injector is passive state consulted and mutated under the command
  // lock; both the pointer and the pointee are covered by mu_.
  FaultInjector* injector_ S4_GUARDED_BY(mu_) S4_PT_GUARDED_BY(mu_) = nullptr;
  std::vector<std::unique_ptr<uint8_t[]>> chunks_ S4_GUARDED_BY(mu_);
  // LBA following the last transfer.
  uint64_t head_lba_ S4_GUARDED_BY(mu_) = 0;
  // The arm is busy until this instant: when the previous command completed.
  SimTime free_until_ S4_GUARDED_BY(mu_) = 0;
  DiskStats stats_ S4_GUARDED_BY(mu_);
};

}  // namespace s4

#endif  // S4_SRC_SIM_BLOCK_DEVICE_H_
