// Tests for the annotated sync layer (src/util/sync.h): the runtime
// lock-rank checker (death tests), CondVar's release/reacquire bookkeeping
// across Wait, and a TSan-visible stress pass over the sanctioned lock-free
// fast paths (SimClock lanes, AtomicNetStats, metric instruments) and the
// device lock under concurrent writers — the regression net for the
// lock-discipline audit of the concurrency substrate.
#include "src/util/sync.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/sim/block_device.h"
#include "src/sim/net_model.h"
#include "src/sim/sim_clock.h"

namespace s4 {
namespace {

TEST(SyncTest, LockUnlockRoundTrip) {
  Mutex mu(LockRank::kExecutor, "test");
  mu.Lock();
  mu.Unlock();
  ASSERT_TRUE(mu.TryLock());
  mu.Unlock();
  EXPECT_EQ(mu.rank(), 10);
  EXPECT_STREQ(mu.name(), "test");
}

TEST(SyncTest, InOrderNestingIsAllowed) {
  Mutex low(LockRank::kExecutor, "low");
  Mutex mid(LockRank::kDevice, "mid");
  Mutex high(LockRank::kTracer, "high");
  MutexLock a(&low);
  MutexLock b(&mid);
  MutexLock c(&high);
}

TEST(SyncTest, SharedMutexReadersOverlap) {
  SharedMutex mu(LockRank::kMetrics, "shared");
  mu.LockReader();
  std::thread other([&mu] {
    mu.LockReader();
    mu.UnlockReader();
  });
  other.join();
  mu.UnlockReader();
  WriterLock w(&mu);
}

// The rank checker is compiled out of optimised release builds; every
// death test below only makes sense when it is active.
#if S4_LOCK_RANK_CHECKS

TEST(SyncDeathTest, OutOfOrderAcquisitionAborts) {
  Mutex device(LockRank::kDevice, "device");
  Mutex executor(LockRank::kExecutor, "executor");
  MutexLock hold(&device);
  // kExecutor (10) under kDevice (20) inverts the hierarchy. The report
  // must name both locks and both ranks.
  EXPECT_DEATH(
      { MutexLock bad(&executor); },
      "lock-rank violation.*\"executor\" \\(rank 10\\) while holding "
      "\"device\" \\(rank 20\\)");
}

TEST(SyncDeathTest, EqualRankAcquisitionAborts) {
  Mutex a(LockRank::kDevice, "device-a");
  Mutex b(LockRank::kDevice, "device-b");
  MutexLock hold(&a);
  // Equal ranks are also an ordering hazard: two threads taking (a, b) and
  // (b, a) would deadlock, so the hierarchy demands strictly increasing.
  EXPECT_DEATH({ MutexLock bad(&b); }, "lock-rank violation");
}

TEST(SyncDeathTest, RecursiveAcquisitionAborts) {
  Mutex mu(LockRank::kExecutor, "recursive");
  MutexLock hold(&mu);
  EXPECT_DEATH({ mu.Lock(); }, "recursive acquisition");
}

TEST(SyncDeathTest, ReleasingUnheldLockAborts) {
  Mutex held(LockRank::kExecutor, "held");
  Mutex other(LockRank::kDevice, "other");
  MutexLock hold(&held);
  EXPECT_DEATH({ other.Unlock(); },
               "releasing a lock this thread does not hold");
}

TEST(SyncDeathTest, SharedAcquisitionChecksRankToo) {
  SharedMutex metrics(LockRank::kMetrics, "metrics");
  Mutex executor(LockRank::kExecutor, "executor");
  ReaderLock hold(&metrics);
  EXPECT_DEATH({ MutexLock bad(&executor); }, "lock-rank violation");
}

TEST(SyncDeathTest, CondVarWaitReacquireRechecksRank) {
  // Wait() releases the mutex in the checker, so a notifier thread can take
  // it; after wake the reacquire is re-pushed, so a *later* out-of-order
  // acquisition still aborts. This exercises the pop/push pair around wait.
  Mutex mu(LockRank::kDevice, "waiter");
  CondVar cv;
  bool ready = false;  // guarded by mu (plain bool: test-local)

  mu.Lock();
  std::thread notifier([&] {
    MutexLock lock(&mu);
    ready = true;
    cv.NotifyOne();
  });
  while (!ready) {
    cv.Wait(&mu);
  }
  notifier.join();
  // Still holding mu after the wait: the checker must agree.
  Mutex executor(LockRank::kExecutor, "executor");
  EXPECT_DEATH({ MutexLock bad(&executor); }, "lock-rank violation");
  mu.Unlock();
}

#endif  // S4_LOCK_RANK_CHECKS

TEST(SyncTest, CondVarWaitReturnsHoldingTheLock) {
  Mutex mu(LockRank::kExecutor, "cv");
  CondVar cv;
  int stage = 0;  // guarded by mu (plain int: test-local)

  std::thread worker([&] {
    mu.Lock();
    while (stage < 1) {
      cv.Wait(&mu);
    }
    // Wait returned => we hold mu: mutate under it and hand back.
    stage = 2;
    mu.Unlock();
    cv.NotifyAll();
  });

  {
    mu.Lock();
    stage = 1;
    mu.Unlock();
    cv.NotifyAll();
  }
  mu.Lock();
  while (stage < 2) {
    cv.Wait(&mu);
  }
  EXPECT_EQ(stage, 2);
  mu.Unlock();
  worker.join();
}

// --- Lock-free fast-path audit regressions --------------------------------
// Each sanctioned lock-free path from the concurrency substrate gets hit
// from several threads at once. Run under TSan (the `tsan` CI job builds
// this test with -fsanitize=thread) any unsynchronised access here is a
// hard failure; on plain builds the final counts still verify atomicity.

TEST(LockFreeAuditTest, NetStatsConcurrentAccumulate) {
  AtomicNetStats stats;
  constexpr int kThreads = 4;
  constexpr int kIters = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&stats] {
      for (int i = 0; i < kIters; ++i) {
        stats.messages_sent.fetch_add(1, std::memory_order_relaxed);
        stats.bytes_sent.fetch_add(64, std::memory_order_relaxed);
        // Concurrent snapshots must be tear-free per field.
        NetStats snap = stats.Snapshot();
        ASSERT_LE(snap.messages_sent,
                  static_cast<uint64_t>(kThreads) * kIters);
      }
    });
  }
  for (auto& th : threads) th.join();
  NetStats snap = stats.Snapshot();
  EXPECT_EQ(snap.messages_sent, static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(snap.bytes_sent, static_cast<uint64_t>(kThreads) * kIters * 64);
}

TEST(LockFreeAuditTest, MetricInstrumentsConcurrentPublish) {
  MetricRegistry registry;
  constexpr int kThreads = 4;
  constexpr int kIters = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      // First-use creation races on the registry lock; increments race on
      // the relaxed atomics. Both must be clean under TSan.
      Counter* c = registry.GetCounter("audit.shared_counter");
      Histogram* h = registry.GetHistogram("audit.shared_histo");
      Gauge* g = registry.GetGauge("audit.gauge_" + std::to_string(t));
      for (int i = 0; i < kIters; ++i) {
        c->Inc();
        h->Record(static_cast<uint64_t>(i));
        g->Set(i);
        if (i % 256 == 0) {
          (void)registry.CounterValue("audit.shared_counter");  // hot read
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(registry.CounterValue("audit.shared_counter"),
            static_cast<uint64_t>(kThreads) * kIters);
  const Histogram* h = registry.FindHistogram("audit.shared_histo");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), static_cast<uint64_t>(kThreads) * kIters);
}

TEST(LockFreeAuditTest, SimClockLanesAndAbsorb) {
  SimClock clock;
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&clock, t] {
      for (int i = 0; i < 2000; ++i) {
        SimClock::Lane lane(&clock, /*id=*/t + 1, /*start=*/static_cast<SimTime>(i));
        clock.Advance(5);
        clock.AbsorbLane(lane.now());
      }
    });
  }
  for (auto& th : threads) th.join();
  // The global clock converged to the max lane end ever absorbed.
  EXPECT_GE(clock.Now(), static_cast<SimTime>(1999 + 5));
}

TEST(LockFreeAuditTest, DeviceConcurrentWriters) {
  // Mount's lane-parallel segment scan sends one device commands from
  // several threads; the device lock (rank kDevice) must keep concurrent
  // writers consistent and TSan-clean.
  SimClock clock;
  BlockDevice dev(/*sector_count=*/1 << 16, &clock);
  constexpr int kThreads = 4;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&dev, t] {
      Bytes buf(8 * kSectorSize, static_cast<uint8_t>(t));
      for (int i = 0; i < 500; ++i) {
        uint64_t lba = static_cast<uint64_t>(t) * 8192 +
                       static_cast<uint64_t>(i) * 8;
        EXPECT_TRUE(dev.Write(lba, ByteSpan(buf)).ok());
      }
    });
  }
  for (auto& th : writers) th.join();
  EXPECT_GT(dev.stats().busy_time, 0);
  EXPECT_EQ(dev.stats().writes, static_cast<uint64_t>(kThreads) * 500);
  for (int t = 0; t < kThreads; ++t) {
    Bytes back;
    ASSERT_TRUE(dev.Read(static_cast<uint64_t>(t) * 8192 + 499 * 8, 8, &back).ok());
    EXPECT_EQ(back, Bytes(8 * kSectorSize, static_cast<uint8_t>(t)));
  }
}

}  // namespace
}  // namespace s4
