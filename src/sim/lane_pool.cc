#include "src/sim/lane_pool.h"

#include <algorithm>
#include <thread>

namespace s4 {
namespace {

// Upper bound on the worker threads (one host thread each) a call starts.
constexpr int kMaxWorkers = 16;

}  // namespace

Status RunOnLanes(SimClock* clock, int workers,
                  const std::vector<std::function<Status()>>& tasks) {
  if (tasks.empty()) {
    return Status::Ok();
  }
  int w = std::min<int>({workers, static_cast<int>(tasks.size()), kMaxWorkers});
  std::vector<Status> results(tasks.size());
  if (w <= 1) {
    for (size_t i = 0; i < tasks.size(); ++i) {
      results[i] = tasks[i]();
    }
  } else {
    SimTime start = clock->Now();
    std::vector<SimTime> lane_ends(static_cast<size_t>(w), start);
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(w));
    for (int k = 0; k < w; ++k) {
      threads.emplace_back([&, k] {
        SimClock::Lane lane(clock, start);
        for (size_t i = static_cast<size_t>(k); i < tasks.size();
             i += static_cast<size_t>(w)) {
          results[i] = tasks[i]();
        }
        lane_ends[static_cast<size_t>(k)] = clock->Now();
      });
    }
    for (auto& t : threads) {
      t.join();
    }
    for (SimTime end : lane_ends) {
      clock->AbsorbLane(end);
    }
  }
  for (const Status& s : results) {
    S4_RETURN_IF_ERROR(s);
  }
  return Status::Ok();
}

}  // namespace s4
