// DriveExecutor: the concurrency substrate between the RPC boundary and the
// drives. A pool of worker threads executes submitted requests against one or
// more S4Drives.
//
// Static binding: drive d belongs to worker d % W for the executor's
// lifetime. Each worker owns one FIFO queue holding its drives' tasks in
// submission order and runs them one at a time, so every request takes the
// drive's one serial path — versioned, cached and audited exactly as on the
// caller's thread — and the drive interior needs no locks of its own.
// Parallelism comes from overlapping tasks of drives bound to DIFFERENT
// workers.
//
// Submit() still takes a stripe (a hash of the target object) and a mode:
//
//   kExclusive — a single-object op; same-stripe tasks keep their order.
//   kBarrier   — a drive-global op (Sync, Flush, admin, batches, malformed
//                frames); nothing younger passes it, it passes nothing older.
//
// They state the ordering a caller requires. Per-worker FIFO already
// satisfies both, so dispatch does not consult them.
//
// Simulated time: each worker runs on one private SimClock lane for its whole
// life, and every task starts where the worker's previous task ended. A
// worker's lane only moves forward, so version timestamps strictly ascend per
// drive. After each task the global clock absorbs the lane's end, so a
// drained executor leaves the clock at the makespan (max over lanes). The
// schedule — which task runs on which lane, and when in simulated time — is a
// function of the submission order and the worker count alone, never of
// which host thread wins a race.
//
// Maintenance (cleaner) slices ride in idle gaps: a registered step runs on
// its drive's worker only when the drive has no queued foreground work,
// except that a starvation floor forces a slice through after
// kMaintenanceStarvationLimit consecutive foreground completions. Whether a
// queue is empty is a host-time fact, so slice placement is the one part of
// the schedule host timing can move.
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

  // Submit() blocks while a drive already has this many queued tasks.
  static constexpr size_t kMaxPendingPerDrive = 512;

  // Upper bound on Options::workers (each worker is one host thread).
  static constexpr int kMaxWorkers = 16;

  struct Options {
    // Workers, 1..kMaxWorkers; each serves a fixed set of drives on its own
    // clock lane. Only min(workers, drive count) threads start: a worker
    // beyond the drive count would have no drive to serve.
    int workers = 1;
  };

  // Drive index i in Submit() is drives[i]. Tasks reach their drive through
  // their own closures.
  DriveExecutor(SimClock* clock, std::vector<S4Drive*> drives, Options opts);
  ~DriveExecutor();

  DriveExecutor(const DriveExecutor&) = delete;
  DriveExecutor& operator=(const DriveExecutor&) = delete;

  // Queues `fn` at the tail of `drive`'s worker queue. `stripe` and `mode`
  // name the ordering the caller requires (see the file comment); per-worker
  // FIFO satisfies every combination. Blocks for backpressure when the drive
  // already has kMaxPendingPerDrive queued tasks. `fn` runs on the drive's
  // worker thread, on that worker's clock lane.
  void Submit(int drive, uint64_t stripe, Mode mode, std::function<void()> fn)
      S4_EXCLUDES(mu_);

  // Peeks the wire frame, derives (stripe, mode) from its op + object, and
  // queues a task that pushes it through `server`. The response lands in
  // *response (may be null) before Drain() returns.
  void SubmitFrame(int drive, S4RpcServer* server, Bytes frame, Bytes* response = nullptr)
      S4_EXCLUDES(mu_);

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

  int workers() const { return opts_.workers; }

 private:
  struct DriveState {
    size_t queued = 0;  // this drive's tasks waiting in its worker's queue
    bool running = false;
    std::function<bool()> maintenance;
    bool maint_pending = false;
    uint64_t fg_since_maint = 0;
    uint64_t completed = 0;
    uint64_t maint_slices = 0;
  };
  struct Task {
    size_t drive = 0;
    std::function<void()> fn;
  };
  struct Worker {
    std::deque<Task> queue;  // its drives' tasks, in submission order
    CondVar cv;              // new task, maintenance request, drain end, stop
  };

  // Runs worker `w`'s drives on one clock lane that starts at `start`.
  void WorkerLoop(size_t w, SimTime start);
  // Checks `drive` against the drive count and returns it as an index.
  size_t Index(int drive) const S4_REQUIRES(mu_);
  Worker& WorkerOf(size_t drive) S4_REQUIRES(mu_) {
    return workers_[drive % workers_.size()];
  }
  // A slice may run now: requested, hooked, no drain waiting, and the drive
  // idle or starved past the limit.
  bool MaintenanceDue(const DriveState& ds) const S4_REQUIRES(mu_) {
    return ds.maint_pending && ds.maintenance && drain_waiters_ == 0 &&
           (ds.queued == 0 || ds.fg_since_maint >= kMaintenanceStarvationLimit);
  }
  // Every drive quiet (nothing queued or running): Drain()'s wake condition.
  bool AllQuiet() const S4_REQUIRES(mu_);

  SimClock* clock_;
  Options opts_;

  // Rank kExecutor. A leaf in practice: workers release it before running a
  // task, so no other lock is ever acquired while it is held.
  mutable Mutex mu_{LockRank::kExecutor, "DriveExecutor"};
  CondVar cv_space_;  // submitters: a queue has room
  CondVar cv_drain_;  // Drain(): a task finished
  std::vector<DriveState> drives_ S4_GUARDED_BY(mu_);
  // A deque because a Worker (its CondVar) cannot move.
  std::deque<Worker> workers_ S4_GUARDED_BY(mu_);
  int drain_waiters_ S4_GUARDED_BY(mu_) = 0;
  bool stop_ S4_GUARDED_BY(mu_) = false;

  // Written in the constructor before any worker exists and joined in the
  // destructor after all workers have stopped; never touched concurrently.
  std::vector<std::thread> threads_;
};

}  // namespace s4

#endif  // S4_SRC_EXEC_DRIVE_EXECUTOR_H_
