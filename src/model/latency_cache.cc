#include "model/latency_cache.h"

#include <bit>

#include "common/check.h"
#include "obs/obs.h"

namespace htune {

LatencyKernelCache::Key LatencyKernelCache::MakeKey(
    const GroupShape& shape,
    const std::shared_ptr<const PriceRateCurve>& curve, int price) {
  HTUNE_CHECK(curve != nullptr);
  HTUNE_CHECK_GE(price, 1);
  const double rate = curve->Rate(static_cast<double>(price));
  HTUNE_CHECK_GT(rate, 0.0);
  return Key{shape.num_tasks, shape.repetitions,
             std::bit_cast<uint64_t>(rate)};
}

double LatencyKernelCache::Phase1(
    const GroupShape& shape,
    const std::shared_ptr<const PriceRateCurve>& curve, int price) {
  const Key key = MakeKey(shape, curve, price);
  Shard& shard = shards_[KeyHash()(key) % kShards];
  {
    MutexLock lock(shard.mu);
    const auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  // Quadrature runs outside the lock; see header for the benign race.
  // The span rides the miss path only, so the hit path stays untouched and
  // span cost is dwarfed by the quadrature it times.
  HTUNE_OBS_SPAN("cache.quadrature_eval");
  const double value = ExpectedGroupOnHoldLatencyAtRate(
      shape, std::bit_cast<double>(key.rate_bits));
  MutexLock lock(shard.mu);
  return shard.map.emplace(key, value).first->second;
}

bool LatencyKernelCache::TryPhase1(
    const GroupShape& shape,
    const std::shared_ptr<const PriceRateCurve>& curve, int price,
    double* value) const {
  const Key key = MakeKey(shape, curve, price);
  Shard& shard = shards_[KeyHash()(key) % kShards];
  MutexLock lock(shard.mu);
  const auto it = shard.map.find(key);
  if (it == shard.map.end()) return false;
  hits_.fetch_add(1, std::memory_order_relaxed);
  *value = it->second;
  return true;
}

void LatencyKernelCache::Clear() {
  for (Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    shard.map.clear();
  }
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
}

LatencyCacheStats LatencyKernelCache::Stats() const {
  LatencyCacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  for (Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    stats.entries += shard.map.size();
  }
  return stats;
}

void LatencyKernelCache::PublishToMetrics() const {
  const LatencyCacheStats stats = Stats();
  HTUNE_OBS_GAUGE_SET("cache.latency_kernel.hits",
                      static_cast<double>(stats.hits));
  HTUNE_OBS_GAUGE_SET("cache.latency_kernel.misses",
                      static_cast<double>(stats.misses));
  HTUNE_OBS_GAUGE_SET("cache.latency_kernel.entries",
                      static_cast<double>(stats.entries));
}

LatencyKernelCache& GlobalLatencyCache() {
  static LatencyKernelCache cache;
  return cache;
}

}  // namespace htune
