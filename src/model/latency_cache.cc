#include "model/latency_cache.h"

#include "obs/obs.h"

namespace htune {

double LatencyKernelCache::UnitRatePhase1(const GroupShape& shape) {
  const std::pair<int, int> key(shape.num_tasks, shape.repetitions);
  {
    MutexLock lock(mu_);
    const auto it = kernels_.find(key);
    if (it != kernels_.end()) {
      ++hits_;
      return it->second;
    }
    ++misses_;
  }
  // Quadrature runs outside the lock; see header for the benign race.
  HTUNE_OBS_SPAN("cache.quadrature_eval");
  const double value = ExpectedGroupOnHoldLatencyAtRate(shape, 1.0);
  MutexLock lock(mu_);
  return kernels_.emplace(key, value).first->second;
}

void LatencyKernelCache::Clear() {
  MutexLock lock(mu_);
  kernels_.clear();
  hits_ = 0;
  misses_ = 0;
}

LatencyCacheStats LatencyKernelCache::Stats() const {
  MutexLock lock(mu_);
  return LatencyCacheStats{hits_, misses_, kernels_.size()};
}

LatencyKernelCache& GlobalLatencyCache() {
  static LatencyKernelCache cache;
  return cache;
}

}  // namespace htune
