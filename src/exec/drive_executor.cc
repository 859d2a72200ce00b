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
  S4_CHECK(opts_.workers >= 1 && opts_.workers <= SimClock::kMaxLanes - 1);
  S4_CHECK(opts_.max_pending_per_drive >= 1);
  {
    // No worker exists yet; the lock scope keeps the guarded-state writes
    // visibly disciplined for the thread-safety analysis all the same.
    MutexLock lock(&mu_);
    drives_.resize(drives.size());
    for (size_t i = 0; i < drives.size(); ++i) {
      S4_CHECK(drives[i] != nullptr);
      drives_[i].ready = clock->Now();
    }
    slot_free_.assign(static_cast<size_t>(opts_.workers), clock->Now());
    slot_busy_.assign(static_cast<size_t>(opts_.workers), false);
    paused_ = opts_.start_paused;
  }
  threads_.reserve(static_cast<size_t>(opts_.workers));
  for (int w = 0; w < opts_.workers; ++w) {
    threads_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

DriveExecutor::~DriveExecutor() {
  Drain();
  {
    MutexLock lock(&mu_);
    stop_ = true;
  }
  cv_work_.NotifyAll();
  for (std::thread& t : threads_) {
    t.join();
  }
}

void DriveExecutor::Submit(int drive, uint64_t /*stripe*/, Mode /*mode*/,
                           std::function<void()> fn) {
  MutexLock lock(&mu_);
  S4_CHECK(drive >= 0 && drive < static_cast<int>(drives_.size()));
  DriveState& ds = drives_[static_cast<size_t>(drive)];
  while (ds.pending.size() >= opts_.max_pending_per_drive) {
    cv_space_.Wait(&mu_);
  }
  ds.pending.push_back(std::move(fn));
  cv_work_.NotifyOne();
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
  S4_CHECK(drive >= 0 && drive < static_cast<int>(drives_.size()));
  DriveState& ds = drives_[static_cast<size_t>(drive)];
  // The hook may only be (re)bound while the drive is idle: a worker invokes
  // it outside the lock.
  S4_CHECK(!ds.running);
  ds.maintenance = std::move(step);
}

void DriveExecutor::SubmitMaintenance(int drive) {
  {
    MutexLock lock(&mu_);
    S4_CHECK(drive >= 0 && drive < static_cast<int>(drives_.size()));
    drives_[static_cast<size_t>(drive)].maint_pending = true;
  }
  cv_work_.NotifyAll();
}

uint64_t DriveExecutor::completed(int drive) const {
  MutexLock lock(&mu_);
  S4_CHECK(drive >= 0 && drive < static_cast<int>(drives_.size()));
  return drives_[static_cast<size_t>(drive)].completed;
}

uint64_t DriveExecutor::maintenance_slices(int drive) const {
  MutexLock lock(&mu_);
  S4_CHECK(drive >= 0 && drive < static_cast<int>(drives_.size()));
  return drives_[static_cast<size_t>(drive)].maint_slices;
}

SimDuration DriveExecutor::charged_span(int drive) const {
  MutexLock lock(&mu_);
  S4_CHECK(drive >= 0 && drive < static_cast<int>(drives_.size()));
  return drives_[static_cast<size_t>(drive)].charged_span;
}

SimDuration DriveExecutor::gap_span(int drive) const {
  MutexLock lock(&mu_);
  S4_CHECK(drive >= 0 && drive < static_cast<int>(drives_.size()));
  return drives_[static_cast<size_t>(drive)].gap_span;
}

void DriveExecutor::Start() {
  MutexLock lock(&mu_);
  if (paused_) {
    paused_ = false;
    cv_work_.NotifyAll();
  }
}

void DriveExecutor::Drain() {
  MutexLock lock(&mu_);
  // Draining a parked executor would hang on its own queue: un-park first.
  if (paused_) {
    paused_ = false;
    cv_work_.NotifyAll();
  }
  ++drain_waiters_;
  while (!AllQuiet()) {
    cv_drain_.Wait(&mu_);
  }
  --drain_waiters_;
  cv_work_.NotifyAll();
}

bool DriveExecutor::AllQuiet() const {
  for (const DriveState& ds : drives_) {
    if (!DriveQuiet(ds)) {
      return false;
    }
  }
  return true;
}

bool DriveExecutor::FindWork(int* drive_out, std::function<void()>* task_out,
                             bool* is_maint_out) {
  const int n = static_cast<int>(drives_.size());
  for (int k = 0; k < n; ++k) {
    const int d = (next_drive_ + k) % n;
    DriveState& ds = drives_[static_cast<size_t>(d)];
    // Maintenance slice: only in a foreground-idle gap — unless it has been
    // starved past the limit, in which case one slice jumps the queue.
    if (ds.maint_pending && ds.maintenance && !ds.running && drain_waiters_ == 0 &&
        (ds.pending.empty() || ds.fg_since_maint >= kMaintenanceStarvationLimit)) {
      ds.running = true;
      *drive_out = d;
      *is_maint_out = true;
      next_drive_ = (d + 1) % n;
      return true;
    }
  }
  // Foreground: among idle drives with queued work, pick the one to feed.
  // Primary key: the earliest achievable start time given the free capacity
  // slots, so work lands where it can begin soonest. Secondary key: the
  // smallest gap that start would insert into the drive's timeline — when two
  // drives could start at the same instant, feed the one whose timeline the
  // slot extends seamlessly and leave the laggard for the worker whose slot
  // matches it. Without the gap key, racing workers swap drives and each swap
  // ratchets the laggard's ready time up to the leader's, serializing
  // timelines that should overlap.
  SimTime min_free_slot = 0;
  bool have_slot = false;
  for (size_t s = 0; s < slot_free_.size(); ++s) {
    if (slot_busy_[s]) {
      continue;
    }
    if (!have_slot || slot_free_[s] < min_free_slot) {
      min_free_slot = slot_free_[s];
      have_slot = true;
    }
  }
  int best = -1;
  SimTime best_start = 0;
  SimDuration best_gap = 0;
  for (int k = 0; k < n; ++k) {
    const int d = (next_drive_ + k) % n;
    const DriveState& ds = drives_[static_cast<size_t>(d)];
    if (ds.running || ds.pending.empty()) {
      continue;
    }
    const SimTime start = std::max(min_free_slot, ds.ready);
    const SimDuration gap = start - ds.ready;
    if (best < 0 || start < best_start || (start == best_start && gap < best_gap)) {
      best = d;
      best_start = start;
      best_gap = gap;
    }
  }
  if (best < 0) {
    return false;
  }
  DriveState& ds = drives_[static_cast<size_t>(best)];
  *task_out = std::move(ds.pending.front());
  ds.pending.pop_front();
  ds.running = true;
  *drive_out = best;
  *is_maint_out = false;
  next_drive_ = (best + 1) % n;
  cv_space_.NotifyAll();
  return true;
}

void DriveExecutor::WorkerLoop(int worker) {
  mu_.Lock();
  for (;;) {
    int d = -1;
    std::function<void()> task;
    bool is_maint = false;
    if (!paused_ && FindWork(&d, &task, &is_maint)) {
      DriveState& ds = drives_[static_cast<size_t>(d)];
      // Charge the task to a capacity slot (not to this OS thread): simulated
      // parallelism = worker count, independent of which thread won the
      // dispatch race. Best fit: the latest-free slot that does not delay the
      // drive, so low slots stay available for lagging drives; if every slot
      // is ahead of the drive, the earliest one delays it least. At most
      // `workers` tasks run at once, so an idle slot always exists.
      size_t slot = slot_free_.size();
      for (size_t s = 0; s < slot_free_.size(); ++s) {
        if (slot_busy_[s]) {
          continue;
        }
        if (slot == slot_free_.size()) {
          slot = s;
          continue;
        }
        const SimTime cur = slot_free_[s];
        const SimTime sel = slot_free_[slot];
        const bool cur_fits = cur <= ds.ready;
        const bool sel_fits = sel <= ds.ready;
        if ((cur_fits && (!sel_fits || cur > sel)) ||
            (!cur_fits && !sel_fits && cur < sel)) {
          slot = s;
        }
      }
      S4_CHECK(slot < slot_free_.size());
      slot_busy_[slot] = true;
      const SimTime start = std::max(slot_free_[slot], ds.ready);
      // Diagnostic only: sim time this start leaves the drive idle.
      ds.gap_span += start - ds.ready;
      bool more_maint = false;
      mu_.Unlock();
      SimTime end;
      {
        // Lane ids are 1-based; 0 is the serial (no-lane) path.
        SimClock::Lane lane(clock_, worker + 1, start);
        if (is_maint) {
          more_maint = ds.maintenance();
        } else {
          task();
        }
        end = lane.now();
      }
      clock_->AbsorbLane(end);
      mu_.Lock();
      slot_free_[slot] = end;
      slot_busy_[slot] = false;
      ds.charged_span += end - start;
      // Lane time only moves forward, so end >= start >= ready.
      ds.ready = end;
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
      cv_work_.NotifyAll();
      cv_drain_.NotifyAll();
      continue;
    }
    if (stop_) {
      break;
    }
    cv_work_.Wait(&mu_);
  }
  mu_.Unlock();
}

}  // namespace s4
