// s4::Mutex / s4::SharedMutex / s4::CondVar: the only sanctioned
// synchronisation primitives in the tree (lint rule S4L010 confines the raw
// std:: primitives to this header).
//
// The wrappers buy two kinds of always-on checking that naked std::mutex
// cannot provide:
//
//  1. Compile-time lock discipline (Clang Thread Safety Analysis). Every
//     class is a CAPABILITY; shared state is declared S4_GUARDED_BY its
//     mutex; internal helpers declare S4_REQUIRES. A clang build with
//     -Werror=thread-safety (the dedicated CI job) rejects unguarded access,
//     double acquisition, a missing release, or calling a REQUIRES function
//     without the lock — on every path, not just the paths a test executes.
//     Under non-clang compilers the annotation macros expand to nothing and
//     the wrappers cost exactly a std::mutex.
//
//  2. Runtime lock-rank checking (Debug/sanitizer builds). The Clang
//     analysis proves *where* locks are held but not the *order* they are
//     acquired in, so deadlock freedom still needs a checked hierarchy.
//     Every Mutex carries a LockRank from the documented hierarchy below; a
//     thread acquiring a lock whose rank is not strictly greater than every
//     lock it already holds aborts immediately, printing both ranks — so an
//     ordering bug dies deterministically on the first wrong acquisition in
//     any Debug/TSan/ASan test run instead of deadlocking once a year.
//
// Lock hierarchy (see DESIGN.md section 16 for the full table):
//
//   kExecutor (10) -> kDevice (20) -> kMetrics (30) -> kTracer (40)
//
// A thread may only acquire ranks in strictly increasing order. No lock nests
// inside another today: the executor releases its dispatch lock before a
// task touches a drive, the device lock is held only for one command, and
// metrics and tracer are leaf locks.
// Adding a mutex = pick the lowest rank that is strictly greater than every
// lock held when yours is acquired, add it to the enum and the DESIGN.md
// table, and give every field it protects an S4_GUARDED_BY.
#ifndef S4_SRC_UTIL_SYNC_H_
#define S4_SRC_UTIL_SYNC_H_

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

// ---------------------------------------------------------------------------
// Clang Thread Safety Analysis annotation macros. No-ops off clang.
// ---------------------------------------------------------------------------

#if defined(__clang__)
#define S4_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define S4_THREAD_ANNOTATION(x)  // no-op: analysis is clang-only
#endif

// On a class: instances are capabilities (lockable things).
#define S4_CAPABILITY(x) S4_THREAD_ANNOTATION(capability(x))
// On a class: RAII object that acquires in its ctor, releases in its dtor.
#define S4_SCOPED_CAPABILITY S4_THREAD_ANNOTATION(scoped_lockable)
// On a data member: may only be read/written while holding `x`.
#define S4_GUARDED_BY(x) S4_THREAD_ANNOTATION(guarded_by(x))
// On a pointer member: the *pointee* may only be accessed while holding `x`.
#define S4_PT_GUARDED_BY(x) S4_THREAD_ANNOTATION(pt_guarded_by(x))
// On a function: acquires/releases the capability.
#define S4_ACQUIRE(...) S4_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define S4_ACQUIRE_SHARED(...) \
  S4_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define S4_RELEASE(...) S4_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define S4_RELEASE_SHARED(...) \
  S4_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define S4_TRY_ACQUIRE(...) \
  S4_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
// On a function: caller must hold the capability (exclusively / at least
// shared) for the duration of the call.
#define S4_REQUIRES(...) S4_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define S4_REQUIRES_SHARED(...) \
  S4_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
// On a function: caller must NOT hold the capability (the function acquires
// it itself; holding it would self-deadlock).
#define S4_EXCLUDES(...) S4_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
// On a function: returns a reference to the given capability.
#define S4_RETURN_CAPABILITY(x) S4_THREAD_ANNOTATION(lock_returned(x))
// Escape hatch: disables the analysis for one function. Lint rule S4L010
// counts every use and requires a written rationale on the same or the
// preceding line; the target for src/ is zero.
#define S4_NO_THREAD_SAFETY_ANALYSIS \
  S4_THREAD_ANNOTATION(no_thread_safety_analysis)

// ---------------------------------------------------------------------------
// Runtime lock-rank checking. On by default in Debug builds (!NDEBUG);
// sanitizer builds force it on from CMake so TSan/ASan runs check ordering
// even at -O2. Release builds compile the wrappers down to the raw std
// primitives.
// ---------------------------------------------------------------------------

#ifndef S4_LOCK_RANK_CHECKS
#if !defined(NDEBUG)
#define S4_LOCK_RANK_CHECKS 1
#else
#define S4_LOCK_RANK_CHECKS 0
#endif
#endif

namespace s4 {

// The documented lock hierarchy. Values are spaced so a future mid-layer
// lock can slot in without renumbering. DESIGN.md section 16 is the
// authoritative table; keep the two in sync.
enum class LockRank : int {
  kExecutor = 10,  // DriveExecutor::mu_ — worker queues and drive states
  kDevice = 20,    // BlockDevice::mu_ — media, fault state, arm timeline
  kMetrics = 30,   // MetricRegistry::mu_ — instrument maps (leaf)
  kTracer = 40,    // Tracer::mu_ — span buffer (leaf)
};

namespace internal {
// Aborts (printing both ranks) when `rank` is not strictly greater than
// every rank the calling thread already holds, or when `mu` is already held
// (recursive acquisition). Otherwise records the acquisition.
void PushLockRank(const void* mu, int rank, const char* name);
// Removes `mu` from the calling thread's held set.
void PopLockRank(const void* mu);
}  // namespace internal

// Plain exclusive mutex with a mandatory rank and name. Non-recursive.
class S4_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(LockRank rank, const char* name)
      : rank_(static_cast<int>(rank)), name_(name) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() S4_ACQUIRE() {
#if S4_LOCK_RANK_CHECKS
    // Check+record before blocking, so an ordering violation aborts with a
    // report instead of deadlocking against the thread holding the peer.
    internal::PushLockRank(this, rank_, name_);
#endif
    mu_.lock();
  }

  void Unlock() S4_RELEASE() {
    mu_.unlock();
#if S4_LOCK_RANK_CHECKS
    internal::PopLockRank(this);
#endif
  }

  bool TryLock() S4_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) {
      return false;
    }
#if S4_LOCK_RANK_CHECKS
    internal::PushLockRank(this, rank_, name_);
#endif
    return true;
  }

  int rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  friend class CondVar;
  std::mutex mu_;
  const int rank_;
  const char* const name_;
};

// Reader/writer mutex. Shared acquisitions participate in rank checking the
// same way exclusive ones do (a shared-then-exclusive reacquire on the same
// thread is still a self-deadlock).
class S4_CAPABILITY("shared_mutex") SharedMutex {
 public:
  explicit SharedMutex(LockRank rank, const char* name)
      : rank_(static_cast<int>(rank)), name_(name) {}

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() S4_ACQUIRE() {
#if S4_LOCK_RANK_CHECKS
    internal::PushLockRank(this, rank_, name_);
#endif
    mu_.lock();
  }

  void Unlock() S4_RELEASE() {
    mu_.unlock();
#if S4_LOCK_RANK_CHECKS
    internal::PopLockRank(this);
#endif
  }

  void LockReader() S4_ACQUIRE_SHARED() {
#if S4_LOCK_RANK_CHECKS
    internal::PushLockRank(this, rank_, name_);
#endif
    mu_.lock_shared();
  }

  void UnlockReader() S4_RELEASE_SHARED() {
    mu_.unlock_shared();
#if S4_LOCK_RANK_CHECKS
    internal::PopLockRank(this);
#endif
  }

  int rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  std::shared_mutex mu_;
  const int rank_;
  const char* const name_;
};

// RAII exclusive lock of a Mutex for a scope.
class S4_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) S4_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() S4_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

// RAII exclusive lock of a SharedMutex for a scope.
class S4_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex* mu) S4_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~WriterLock() S4_RELEASE() { mu_->Unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex* const mu_;
};

// RAII shared (reader) lock of a SharedMutex for a scope.
class S4_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex* mu) S4_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_->LockReader();
  }
  ~ReaderLock() S4_RELEASE() { mu_->UnlockReader(); }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex* const mu_;
};

// Condition variable bound to s4::Mutex. Wait atomically releases the mutex
// and reacquires it before returning, mirroring both transitions in the
// rank checker (the reacquire re-runs the ordering check, so waking with a
// now-illegal held set still aborts rather than deadlocking later).
class CondVar {
 public:
  CondVar() = default;

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex* mu) S4_REQUIRES(mu) {
    // Adopt the already-held native mutex; release() afterwards hands it
    // back still locked, so the caller's MutexLock/Unlock stays balanced.
    std::unique_lock<std::mutex> native(mu->mu_, std::adopt_lock);
#if S4_LOCK_RANK_CHECKS
    internal::PopLockRank(mu);
#endif
    cv_.wait(native);
#if S4_LOCK_RANK_CHECKS
    internal::PushLockRank(mu, mu->rank_, mu->name_);
#endif
    native.release();  // still locked: ownership stays with the caller's scope
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace s4

#endif  // S4_SRC_UTIL_SYNC_H_
