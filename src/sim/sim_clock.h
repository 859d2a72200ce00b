// SimClock: the single source of time for the whole system.
//
// Devices advance the clock by the modelled cost of each operation; workloads
// may also advance it to represent client think time (e.g. compilation in the
// SSH-build benchmark). No component reads wall-clock time, so a
// single-threaded run is deterministic. Under the drive executor the schedule
// is too — each drive is bound to one worker lane, and a lane's timeline
// depends only on the order tasks were submitted to it — except where a
// maintenance slice lands, which is decided by whether a queue is empty at a
// host-time instant.
//
// Concurrency lanes: an executor worker binds its thread to a private *lane*
// of the clock (SimClock::Lane). While bound, Now()/Advance()/
// AdvanceTo() act on the lane's own timestamp instead of the global one, so
// overlapping requests each accumulate their own simulated time — CPU and
// transfer costs that genuinely overlap are charged in parallel rather than
// serialised. Shared resources (the disk arm, via BlockDevice's busy
// timeline) still serialise lanes where the hardware would. When no lane is
// bound — every pre-existing single-threaded path — the clock behaves exactly
// as before, reading and advancing the global now_.
//
// Devices: a device that serves one request at a time keeps one busy-until
// timeline, and every request to it starts at max(its arrival, the
// device's busy-until) — SimClock::Occupy. Fan-out scopes (SimClock::FanOut)
// use lanes on the caller's own thread: independent requests to different
// devices all arrive at the scope's start, and the caller's clock then jumps
// to the latest end.
#ifndef S4_SRC_SIM_SIM_CLOCK_H_
#define S4_SRC_SIM_SIM_CLOCK_H_

#include <algorithm>
#include <atomic>
#include <type_traits>

#include "src/util/check.h"
#include "src/util/time.h"

namespace s4 {

class SimClock {
 public:
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
  // The lane's timestamp starts at `start` and lives in the Lane object; an
  // executor worker holds one for its whole life and folds its time into the
  // global clock (AbsorbLane) after every task. Bindings nest: a Lane
  // restores the thread's previous lane when it ends, so a FanOut can run
  // inside an executor task.
  class Lane {
   public:
    Lane(SimClock* clock, SimTime start)
        : clock_(clock), prev_(tls_lane_), now_(start) {
      tls_lane_ = this;
    }
    ~Lane() { tls_lane_ = prev_; }

    Lane(const Lane&) = delete;
    Lane& operator=(const Lane&) = delete;

    SimTime now() const { return now_; }

   private:
    friend class SimClock;
    SimClock* clock_;
    Lane* prev_;
    SimTime now_;
  };

  // The busy-until rule every simulated device follows: a request arrives
  // at the caller's Now(), starts at max(arrival, *busy_until) — the caller
  // waits while the device serves requests booked before it — and keeps
  // the device busy until `fn`, which issues it on the caller's clock,
  // returns. The device's owner keeps *busy_until for the device's life, so
  // callers on different lanes queue on it. BlockDevice's arm applies the
  // same rule under its command lock.
  template <typename Fn>
  auto Occupy(SimTime* busy_until, Fn&& fn) {
    AdvanceTo(std::max(Now(), *busy_until));
    auto result = fn();
    *busy_until = Now();
    return result;
  }

  // RAII fan-out of independent requests, all on the caller's thread.
  // Run(fn) runs fn on a fresh lane that starts at the scope's start, so
  // every request of the scope arrives together; requests to one device
  // still serialise on that device's busy-until (Occupy). On exit the
  // caller's clock — global, or the caller's own lane — advances to the
  // latest lane end: the scope costs its slowest request chain, not the
  // sum. Every clock advance inside the scope must go through Run.
  class FanOut {
   public:
    explicit FanOut(SimClock* clock) : clock_(clock), start_(clock->Now()), end_(start_) {}
    ~FanOut() { clock_->AdvanceTo(end_); }

    FanOut(const FanOut&) = delete;
    FanOut& operator=(const FanOut&) = delete;

    template <typename Fn>
    auto Run(Fn&& fn) {
      Lane lane(clock_, start_);
      if constexpr (std::is_void_v<std::invoke_result_t<Fn&>>) {
        fn();
        end_ = std::max(end_, lane.now());
      } else {
        auto result = fn();
        end_ = std::max(end_, lane.now());
        return result;
      }
    }

   private:
    SimClock* clock_;
    SimTime start_;  // every request's arrival
    SimTime end_;    // latest lane end so far
  };

  // Fold a lane's time into the global clock: simulated time after a
  // parallel epoch is the max over the lanes (the makespan), not the sum.
  // Safe from any thread: the update is a CAS-max.
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
