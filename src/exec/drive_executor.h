// DriveExecutor: the concurrency substrate between the RPC boundary and the
// drives. A pool of worker threads executes submitted requests against one or
// more S4Drives.
//
// One task per drive: each drive has a FIFO queue, and at most one of its
// tasks runs at a time, in submission order. Every request therefore takes
// the drive's one serial path — versioned, cached and audited exactly as on
// the caller's thread — and the drive interior needs no locks of its own.
// Parallelism comes from overlapping tasks of DIFFERENT drives.
//
// Submit() still takes a stripe (a hash of the target object) and a mode:
//
//   kExclusive — a single-object op; same-stripe tasks keep their order.
//   kBarrier   — a drive-global op (Sync, Flush, admin, batches, malformed
//                frames); nothing younger passes it, it passes nothing older.
//
// They state the ordering a caller requires. Per-drive FIFO already satisfies
// both, so dispatch does not consult them.
//
// Simulated time: each worker runs tasks inside a private SimClock lane, so
// tasks on different drives accumulate cost in parallel. Per drive the
// executor keeps a ready time, raised to each task's lane end; the next task
// on that drive starts no earlier. That keeps version timestamps strictly
// ascending per drive — the self-securing history's ordering invariant — no
// matter which worker runs the op, and it means a drive's device is never
// busy past its ready time. The global clock converges to the makespan (max
// over lanes), so a drained executor leaves the clock exactly where a
// perfectly-overlapped hardware array would.
//
// Maintenance (cleaner) slices ride in idle gaps: a registered step runs only
// when a drive has no queued foreground work, except that a starvation floor
// forces a slice through after kMaintenanceStarvationLimit consecutive
// foreground completions.
#ifndef S4_SRC_EXEC_DRIVE_EXECUTOR_H_
#define S4_SRC_EXEC_DRIVE_EXECUTOR_H_

#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "src/drive/s4_drive.h"
#include "src/rpc/messages.h"
#include "src/rpc/transport.h"
#include "src/sim/sim_clock.h"
#include "src/util/sync.h"

namespace s4 {

class DriveExecutor {
 public:
  enum class Mode { kExclusive, kBarrier };

  // Foreground completions after which a requested-but-starved maintenance
  // slice runs even though the drive is not idle.
  static constexpr uint64_t kMaintenanceStarvationLimit = 128;

  struct Options {
    // Worker threads; capped at SimClock::kMaxLanes - 1 so every worker owns
    // a clock lane.
    int workers = 1;
    // Submit() blocks while a drive already has this many queued tasks.
    size_t max_pending_per_drive = 512;
    // Workers start parked: Submit/SubmitFrame queue but nothing dispatches
    // until Start() (Drain() also un-parks). Lets a caller prime every
    // drive's queue first, so measured schedules reflect a saturated array
    // rather than the submission ramp. Priming more than
    // max_pending_per_drive tasks on one drive would deadlock — raise that
    // cap alongside this flag.
    bool start_paused = false;
  };

  // One queue per entry of `drives`; drive index i in Submit() is drives[i].
  // Tasks reach their drive through their own closures.
  DriveExecutor(SimClock* clock, std::vector<S4Drive*> drives, Options opts);
  ~DriveExecutor();

  DriveExecutor(const DriveExecutor&) = delete;
  DriveExecutor& operator=(const DriveExecutor&) = delete;

  // Queues `fn` at the tail of `drive`'s queue. `stripe` and `mode` name the
  // ordering the caller requires (see the file comment); per-drive FIFO
  // satisfies every combination. Blocks for backpressure when the drive's
  // queue is full. `fn` runs on a worker thread inside a clock lane.
  void Submit(int drive, uint64_t stripe, Mode mode, std::function<void()> fn)
      S4_EXCLUDES(mu_);

  // Peeks the wire frame, derives (stripe, mode) from its op + object, and
  // queues a task that pushes it through `server`. The response lands in
  // *response (may be null) before Drain() returns.
  void SubmitFrame(int drive, S4RpcServer* server, Bytes frame, Bytes* response = nullptr)
      S4_EXCLUDES(mu_);

  // Releases workers parked by Options::start_paused. Idempotent.
  void Start() S4_EXCLUDES(mu_);

  // Ordering class + stripe of a peeked frame: single-object ops (reads
  // included) are kExclusive on their object's stripe, creates on one shared
  // allocation stripe; anything that does not peek as a single request
  // (batch, malformed) or acts drive-wide is a barrier.
  static void Classify(const FramePeek& peek, uint64_t* stripe, Mode* mode);

  // Registers the idle-slice maintenance hook: one bounded unit of background
  // work (e.g. a budgeted cleaner pass); returns whether more work remains.
  void AttachMaintenance(int drive, std::function<bool()> step) S4_EXCLUDES(mu_);
  // Requests maintenance; slices run in idle gaps until the step reports no
  // more work.
  void SubmitMaintenance(int drive) S4_EXCLUDES(mu_);

  // Blocks until every queued and running foreground task has finished.
  // Maintenance is not granted new slices while a drain is waiting.
  void Drain() S4_EXCLUDES(mu_);

  // Foreground tasks completed on `drive` so far.
  uint64_t completed(int drive) const S4_EXCLUDES(mu_);
  // Maintenance slices granted on `drive` so far.
  uint64_t maintenance_slices(int drive) const S4_EXCLUDES(mu_);
  // Total simulated time charged to capacity slots for `drive`'s tasks
  // (lane end minus slot start, summed). The gap between this and the
  // device's own busy time is CPU, network and cache-hit time.
  SimDuration charged_span(int drive) const S4_EXCLUDES(mu_);
  // Simulated time inserted as idle gaps into `drive`'s serialized timeline:
  // sum over tasks of (slot start - drive ready time) whenever a task had to
  // start on a capacity slot that was ahead of the drive. Zero means every
  // task extended its drive's timeline seamlessly.
  SimDuration gap_span(int drive) const S4_EXCLUDES(mu_);

  int workers() const { return opts_.workers; }

 private:
  struct DriveState {
    std::deque<std::function<void()>> pending;
    bool running = false;
    // End of this drive's last task: the earliest start of its next one.
    // Monotone, so per-drive version timestamps strictly ascend.
    SimTime ready = 0;
    std::function<bool()> maintenance;
    bool maint_pending = false;
    uint64_t fg_since_maint = 0;
    uint64_t completed = 0;
    uint64_t maint_slices = 0;
    SimDuration charged_span = 0;  // sum of (lane end - slot start) per task
    SimDuration gap_span = 0;      // sum of (slot start - ready) idle gaps
  };

  void WorkerLoop(int worker);
  // Picks the next drive to serve under mu_; returns false if none. On
  // success the drive is marked running and, for foreground work, its head
  // task moved into *task_out.
  bool FindWork(int* drive_out, std::function<void()>* task_out, bool* is_maint_out)
      S4_REQUIRES(mu_);
  bool DriveQuiet(const DriveState& ds) const S4_REQUIRES(mu_) {
    return ds.pending.empty() && !ds.running;
  }
  // Every drive quiet: Drain()'s wake condition.
  bool AllQuiet() const S4_REQUIRES(mu_);

  SimClock* clock_;
  Options opts_;

  // Rank kExecutor. A leaf in practice: workers release it before running a
  // task, so no other lock is ever acquired while it is held.
  mutable Mutex mu_{LockRank::kExecutor, "DriveExecutor"};
  CondVar cv_work_;   // workers: new task / state change
  CondVar cv_space_;  // submitters: queue has room
  CondVar cv_drain_;  // Drain(): a task finished
  std::vector<DriveState> drives_ S4_GUARDED_BY(mu_);
  // Virtual worker-capacity slots, one per worker: each task's lane starts at
  // a free slot (bounded by its drive's ready time) and parks the slot at its
  // end. Decoupling simulated capacity from which OS thread happens to win
  // the dispatch race keeps the modelled makespan a function of the worker
  // COUNT, not of host scheduling luck.
  std::vector<SimTime> slot_free_ S4_GUARDED_BY(mu_);
  // Reserved at dispatch, released at completion.
  std::vector<bool> slot_busy_ S4_GUARDED_BY(mu_);
  int next_drive_ S4_GUARDED_BY(mu_) = 0;  // round-robin scan origin
  int drain_waiters_ S4_GUARDED_BY(mu_) = 0;
  bool stop_ S4_GUARDED_BY(mu_) = false;
  // Workers parked until Start() (Options::start_paused).
  bool paused_ S4_GUARDED_BY(mu_) = false;

  // Written in the constructor before any worker exists and joined in the
  // destructor after all workers have stopped; never touched concurrently.
  std::vector<std::thread> threads_;
};

}  // namespace s4

#endif  // S4_SRC_EXEC_DRIVE_EXECUTOR_H_
