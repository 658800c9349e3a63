// Fixture: the same raw retry machinery, allowed in analyze.toml.
#include <chrono>
#include <thread>

namespace htune {

bool TryOnce();

bool NaiveRetry() {
  for (int attempt = 0; attempt < 5; ++attempt) {
    if (TryOnce()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10 << attempt));
  }
  usleep(1000);
  return false;
}

}  // namespace htune
