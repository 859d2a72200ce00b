// MetricRegistry: the drive's unified observability plane.
//
// Every layer (rpc, drive, lfs, cache, sim) publishes counters, gauges, and
// sim-time latency histograms into one registry owned by the drive, instead
// of keeping disconnected ad-hoc stat structs. Drive and network counts are
// read from here only (CounterValue); no parallel stats view mirrors them.
//
// Instruments are created on first use via GetCounter/GetGauge/GetHistogram
// and live as long as the registry; returned pointers are stable, so hot
// paths resolve a name once and increment through the pointer.
//
// Thread safety: instruments are updated with relaxed atomics so concurrent
// executor workers can publish without contending on a lock, and the registry
// maps are mutex-guarded so first-use creation races are safe. Reads of an
// instrument while writers are active see some valid intermediate state;
// aggregate views (ToJson, Percentile) are exact once writers have quiesced
// (executor drained), which is when benches and tests read them.
#ifndef S4_SRC_OBS_METRICS_H_
#define S4_SRC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "src/util/sync.h"

namespace s4 {

class Counter {
 public:
  void Inc(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Add(uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Log2-bucketed histogram of non-negative samples (simulated microseconds).
// Bucket b holds samples whose bit width is b, i.e. [2^(b-1), 2^b). Exact
// count/sum/min/max ride along, so means are exact and only percentiles are
// quantised to a power-of-two bound. Each field is independently atomic:
// a concurrent reader may observe a sample in the bucket array before it is
// reflected in count_, but once writers quiesce all views agree.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void Record(int64_t sample);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  int64_t min() const { return count() == 0 ? 0 : min_.load(std::memory_order_relaxed); }
  int64_t max() const { return max_.load(std::memory_order_relaxed); }
  double Mean() const;
  // Upper bound of the bucket containing the p-th percentile (p in [0,1]).
  int64_t Percentile(double p) const;
  uint64_t bucket(int b) const { return buckets_[b].load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> min_{0};
  std::atomic<int64_t> max_{0};
};

class MetricRegistry {
 public:
  // Creation is idempotent; returned pointers are stable for the registry's
  // lifetime. Safe to call from concurrent workers.
  Counter* GetCounter(const std::string& name) S4_EXCLUDES(mu_);
  Gauge* GetGauge(const std::string& name) S4_EXCLUDES(mu_);
  Histogram* GetHistogram(const std::string& name) S4_EXCLUDES(mu_);

  // Lookup without creating; nullptr when the instrument does not exist.
  // Lookups take the reader side of the lock, so concurrent hot-path
  // resolution never serialises against other readers.
  const Counter* FindCounter(const std::string& name) const S4_EXCLUDES(mu_);
  const Histogram* FindHistogram(const std::string& name) const S4_EXCLUDES(mu_);
  // Value of a counter, 0 when it does not exist.
  uint64_t CounterValue(const std::string& name) const S4_EXCLUDES(mu_);

  // Snapshot of the instrument maps (name -> stable instrument pointer).
  // The pointers stay valid for the registry's lifetime; the snapshot itself
  // is a copy, so callers may iterate while other threads create instruments.
  std::map<std::string, const Counter*> counters() const S4_EXCLUDES(mu_);
  std::map<std::string, const Gauge*> gauges() const S4_EXCLUDES(mu_);
  std::map<std::string, const Histogram*> histograms() const S4_EXCLUDES(mu_);

  // Full dump: {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  std::string ToJson() const S4_EXCLUDES(mu_);

 private:
  // Rank kMetrics: a leaf lock — no code path acquires another lock while
  // holding it. Instrument *values* are relaxed atomics and never need it;
  // the lock only guards the name -> instrument maps.
  mutable SharedMutex mu_{LockRank::kMetrics, "MetricRegistry"};
  std::map<std::string, std::unique_ptr<Counter>> counters_ S4_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ S4_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_ S4_GUARDED_BY(mu_);
};

}  // namespace s4

#endif  // S4_SRC_OBS_METRICS_H_
