// SimClock: the single source of time for the whole system.
//
// Devices advance the clock by the modelled cost of each operation; workloads
// may also advance it to represent client think time (e.g. compilation in the
// SSH-build benchmark). Because no component reads wall-clock time, every
// benchmark run is deterministic.
//
// Concurrency lanes: an executor worker may bind its thread to a private
// *lane* of the clock (SimClock::Lane). While bound, Now()/Advance()/
// AdvanceTo() act on the lane's own timestamp instead of the global one, so
// overlapping requests each accumulate their own simulated time — CPU and
// transfer costs that genuinely overlap are charged in parallel rather than
// serialised. Shared resources (the disk arm, via BlockDevice's busy
// timeline) still serialise lanes where the hardware would. When no lane is
// bound — every pre-existing single-threaded path — the clock behaves exactly
// as before, reading and advancing the global now_.
#ifndef S4_SRC_SIM_SIM_CLOCK_H_
#define S4_SRC_SIM_SIM_CLOCK_H_

#include <atomic>

#include "src/util/check.h"
#include "src/util/time.h"

namespace s4 {

class SimClock {
 public:
  // Lane ids are small dense integers. Id 0 is reserved for "no lane" (the
  // serial path); workers use 1..kMaxLanes-1.
  static constexpr int kMaxLanes = 17;

  SimClock() = default;
  explicit SimClock(SimTime start) : now_(start) {}

  SimTime Now() const {
    if (const Lane* lane = ActiveLane(); lane != nullptr) return lane->now_;
    return now_.load(std::memory_order_relaxed);
  }

  void Advance(SimDuration d) {
    S4_CHECK(d >= 0);
    if (Lane* lane = ActiveLane(); lane != nullptr) {
      lane->now_ += d;
      return;
    }
    now_.fetch_add(d, std::memory_order_relaxed);
  }

  // Jump directly to a later point (used by capacity models that simulate
  // multi-day windows). On a lane, "later" means later than the lane's own
  // time; device timelines use this to park a lane behind a busy resource.
  void AdvanceTo(SimTime t) {
    if (Lane* lane = ActiveLane(); lane != nullptr) {
      S4_CHECK(t >= lane->now_);
      lane->now_ = t;
      return;
    }
    S4_CHECK(t >= now_.load(std::memory_order_relaxed));
    now_.store(t, std::memory_order_relaxed);
  }

  // RAII binding of the calling thread to a private lane of this clock.
  // The lane's timestamp starts at `start` and lives in the Lane object;
  // the executor reads it back after the task and folds it into the global
  // clock (AbsorbLane) once all lanes drain.
  class Lane {
   public:
    Lane(SimClock* clock, int id, SimTime start)
        : clock_(clock), prev_(tls_lane_), id_(id), now_(start) {
      S4_CHECK(id > 0 && id < kMaxLanes);
      tls_lane_ = this;
    }
    ~Lane() { tls_lane_ = prev_; }

    Lane(const Lane&) = delete;
    Lane& operator=(const Lane&) = delete;

    int id() const { return id_; }
    SimTime now() const { return now_; }

   private:
    friend class SimClock;
    SimClock* clock_;
    Lane* prev_;
    int id_;
    SimTime now_;
  };

  // Fold a finished lane's end time into the global clock: simulated time
  // after a parallel epoch is the max over the lanes (the makespan), not the
  // sum. Called by the executor with lanes quiesced or from its own lock.
  void AbsorbLane(SimTime end) {
    SimTime cur = now_.load(std::memory_order_relaxed);
    while (end > cur &&
           !now_.compare_exchange_weak(cur, end, std::memory_order_relaxed)) {
    }
  }

 private:
  Lane* ActiveLane() const {
    Lane* lane = tls_lane_;
    return (lane != nullptr && lane->clock_ == this) ? lane : nullptr;
  }

  // Deliberately lock-free (audited for the lock-discipline pass): the lane
  // pointer is thread-local (each worker reads/writes only its own), and the
  // global clock is a single monotone word advanced by CAS in AbsorbLane —
  // a mutex here would serialise every Charge() on the hot path. Cross-lane
  // ordering comes from the executor's dispatch lock, not from this word.
  static thread_local Lane* tls_lane_;

  std::atomic<SimTime> now_{0};
};

}  // namespace s4

#endif  // S4_SRC_SIM_SIM_CLOCK_H_
