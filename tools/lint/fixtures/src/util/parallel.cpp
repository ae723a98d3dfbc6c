// pramlint fixture: the ban-thread escape hatch — src/util/parallel.*
// owns the raw primitives that util::parallel_for wraps.
// expect: none
#include <mutex>
#include <thread>

namespace pramsim::util {

int parallel_probe() {
  std::mutex gate;
  std::thread worker([&gate] {
    gate.lock();
    gate.unlock();
  });
  worker.join();
  return 6;
}

}  // namespace pramsim::util
