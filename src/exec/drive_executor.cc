#include "src/exec/drive_executor.h"

#include <algorithm>
#include <utility>

#include "src/util/check.h"

namespace s4 {
namespace {

// splitmix64 finalizer: spreads consecutive object ids across the stripe
// space so adjacent objects land on independent stripes.
uint64_t StripeOf(ObjectId id) {
  uint64_t x = id + 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Creates allocate from shared drive state (the object id space), not from
// any one object, so they all serialise on one designated stripe. A collision
// with a hashed object stripe costs only a spurious ordering edge.
constexpr uint64_t kAllocStripe = 0x53344352ull;  // "S4CR"

}  // namespace

DriveExecutor::DriveExecutor(SimClock* clock, std::vector<S4Drive*> drives, Options opts)
    : clock_(clock), opts_(opts) {
  S4_CHECK(clock != nullptr);
  S4_CHECK(!drives.empty());
  S4_CHECK(opts_.workers >= 1 && opts_.workers <= kMaxWorkers);
  for (S4Drive* drive : drives) {
    S4_CHECK(drive != nullptr);
  }
  const size_t n_workers = std::min(static_cast<size_t>(opts_.workers), drives.size());
  {
    // No worker exists yet; the lock scope keeps the guarded-state writes
    // visibly disciplined for the thread-safety analysis all the same.
    MutexLock lock(&mu_);
    drives_.resize(drives.size());
    for (size_t w = 0; w < n_workers; ++w) {
      workers_.emplace_back();
    }
  }
  // Every lane starts at the construction-time clock, read here rather than
  // on the new thread so the start cannot depend on when the thread runs.
  const SimTime start = clock->Now();
  threads_.reserve(n_workers);
  for (size_t w = 0; w < n_workers; ++w) {
    threads_.emplace_back([this, w, start] { WorkerLoop(w, start); });
  }
}

DriveExecutor::~DriveExecutor() {
  Drain();
  {
    MutexLock lock(&mu_);
    stop_ = true;
    for (Worker& w : workers_) {
      w.cv.NotifyOne();
    }
  }
  for (std::thread& t : threads_) {
    t.join();
  }
}

size_t DriveExecutor::Index(int drive) const {
  S4_CHECK(drive >= 0 && drive < static_cast<int>(drives_.size()));
  return static_cast<size_t>(drive);
}

void DriveExecutor::Submit(int drive, uint64_t /*stripe*/, Mode /*mode*/,
                           std::function<void()> fn) {
  MutexLock lock(&mu_);
  const size_t d = Index(drive);
  while (drives_[d].queued >= kMaxPendingPerDrive) {
    cv_space_.Wait(&mu_);
  }
  ++drives_[d].queued;
  Worker& w = WorkerOf(d);
  w.queue.push_back(Task{d, std::move(fn)});
  w.cv.NotifyOne();
}

void DriveExecutor::Classify(const FramePeek& peek, uint64_t* stripe, Mode* mode) {
  *stripe = 0;
  *mode = Mode::kBarrier;
  if (!peek.single) {
    return;  // batch envelope or malformed bytes: strictest class
  }
  switch (peek.op) {
    case RpcOp::kCreate:
      *mode = Mode::kExclusive;
      *stripe = kAllocStripe;
      return;
    case RpcOp::kRead:
    case RpcOp::kGetAttr:
    case RpcOp::kGetAclByUser:
    case RpcOp::kGetAclByIndex:
    case RpcOp::kGetVersionList:
    case RpcOp::kWrite:
    case RpcOp::kXorWrite:
    case RpcOp::kAppend:
    case RpcOp::kTruncate:
    case RpcOp::kSetAttr:
    case RpcOp::kSetAcl:
    case RpcOp::kDelete:
    case RpcOp::kFlushObject:
      *mode = Mode::kExclusive;
      *stripe = StripeOf(peek.object);
      return;
    default:
      // Sync, Flush, SetWindow, partition ops, AuditChallenge: drive-global
      // effects, full barrier.
      return;
  }
}

void DriveExecutor::SubmitFrame(int drive, S4RpcServer* server, Bytes frame, Bytes* response) {
  S4_CHECK(server != nullptr);
  uint64_t stripe = 0;
  Mode mode = Mode::kBarrier;
  Classify(PeekRequestFrame(frame), &stripe, &mode);
  Submit(drive, stripe, mode, [server, frame = std::move(frame), response]() {
    Bytes r = server->Handle(frame);
    if (response != nullptr) {
      *response = std::move(r);
    }
  });
}

void DriveExecutor::AttachMaintenance(int drive, std::function<bool()> step) {
  MutexLock lock(&mu_);
  DriveState& ds = drives_[Index(drive)];
  // The hook may only be (re)bound while the drive is idle: a worker invokes
  // it outside the lock.
  S4_CHECK(!ds.running);
  ds.maintenance = std::move(step);
}

void DriveExecutor::SubmitMaintenance(int drive) {
  MutexLock lock(&mu_);
  const size_t d = Index(drive);
  drives_[d].maint_pending = true;
  WorkerOf(d).cv.NotifyOne();
}

uint64_t DriveExecutor::completed(int drive) const {
  MutexLock lock(&mu_);
  return drives_[Index(drive)].completed;
}

uint64_t DriveExecutor::maintenance_slices(int drive) const {
  MutexLock lock(&mu_);
  return drives_[Index(drive)].maint_slices;
}

void DriveExecutor::Drain() {
  MutexLock lock(&mu_);
  ++drain_waiters_;
  while (!AllQuiet()) {
    cv_drain_.Wait(&mu_);
  }
  --drain_waiters_;
  // Maintenance held back for the drain may run again.
  for (Worker& w : workers_) {
    w.cv.NotifyOne();
  }
}

bool DriveExecutor::AllQuiet() const {
  for (const DriveState& ds : drives_) {
    if (ds.queued != 0 || ds.running) {
      return false;
    }
  }
  return true;
}

void DriveExecutor::WorkerLoop(size_t w, SimTime start) {
  SimClock::Lane lane(clock_, start);
  mu_.Lock();
  Worker& me = workers_[w];
  for (;;) {
    // A due maintenance slice of one of this worker's drives goes first;
    // otherwise the head of the queue.
    size_t d = drives_.size();
    for (size_t i = w; i < drives_.size(); i += workers_.size()) {
      if (MaintenanceDue(drives_[i])) {
        d = i;
        break;
      }
    }
    const bool is_maint = d < drives_.size();
    std::function<void()> task;
    if (!is_maint) {
      if (me.queue.empty()) {
        if (stop_) {
          break;
        }
        me.cv.Wait(&mu_);
        continue;
      }
      d = me.queue.front().drive;
      task = std::move(me.queue.front().fn);
      me.queue.pop_front();
      --drives_[d].queued;
      cv_space_.NotifyAll();
    }
    DriveState& ds = drives_[d];
    ds.running = true;
    mu_.Unlock();
    bool more_maint = false;
    if (is_maint) {
      more_maint = ds.maintenance();
    } else {
      task();
    }
    clock_->AbsorbLane(lane.now());
    mu_.Lock();
    ds.running = false;
    if (is_maint) {
      ++ds.maint_slices;
      ds.fg_since_maint = 0;
      if (!more_maint) {
        ds.maint_pending = false;
      }
    } else {
      ++ds.completed;
      ++ds.fg_since_maint;
    }
    cv_drain_.NotifyAll();
  }
  mu_.Unlock();
}

}  // namespace s4
