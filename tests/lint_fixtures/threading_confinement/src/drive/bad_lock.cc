// Fixture: S4L009 must fire — a drive-layer thread means the layer is trying
// to schedule work on its own instead of relying on the executor's
// one-task-per-drive scheduling. (Raw mutexes are S4L010's fixture.)
#include <thread>

namespace s4 {

struct BadDriveState {
  int sequence = 0;
};

void BumpSequenceAsync(BadDriveState* s) {
  std::thread t([s] { ++s->sequence; });
  t.join();
}

}  // namespace s4
