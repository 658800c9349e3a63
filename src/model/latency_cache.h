#ifndef HTUNE_MODEL_LATENCY_CACHE_H_
#define HTUNE_MODEL_LATENCY_CACHE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "model/latency_model.h"
#include "model/price_rate_curve.h"

namespace htune {

struct LatencyCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t entries = 0;
};

/// Process-wide memo cache for ExpectedGroupOnHoldLatency — the adaptive
/// quadrature kernel every tuner inner loop reduces to. Keyed on
/// (num_tasks, repetitions, bit pattern of the on-hold rate curve(price)):
/// the phase-1 kernel depends on price only through lambda_o(price), so
/// the key holds everything the value depends on. Groups share entries
/// whenever their rates agree bit for bit — across curve objects parsed
/// from the same spec, across curves that reach one rate at different
/// prices, across jobs. The group's processing_rate is not part of the key
/// either: phase-1 on-hold latency does not depend on it, so groups that
/// differ only in difficulty (every Fig. 5 sweep) share entries. The cache
/// grows with the number of distinct keys, not with the jobs served.
///
/// Thread safety: sharded mutexes; safe for concurrent Phase1 from pool
/// workers. Misses compute outside the shard lock, so a racing pair may
/// both evaluate the kernel — the integrand is a pure deterministic function
/// of the key, so both arrive at the same bits and either insert wins.
class LatencyKernelCache {
 public:
  /// Cached E[max over num_tasks of Erlang(repetitions, curve(price))].
  /// `shape.processing_rate` is ignored (see class comment).
  double Phase1(const GroupShape& shape,
                const std::shared_ptr<const PriceRateCurve>& curve,
                int price);

  /// Hit-only lookup: on a hit stores the cached bits in `*value`, counts one
  /// hit and returns true. On a miss returns false and inserts and counts
  /// nothing, so a caller can gather its misses and fill them elsewhere.
  bool TryPhase1(const GroupShape& shape,
                 const std::shared_ptr<const PriceRateCurve>& curve, int price,
                 double* value) const;

  /// Drops every entry and counter.
  void Clear();

  LatencyCacheStats Stats() const;

  /// Mirrors Stats() into the observability gauges "cache.latency_kernel.*".
  /// Called at phase boundaries (tuner entry points, CLI export) rather than
  /// on the hit path, which keeps the hot lookup untouched.
  void PublishToMetrics() const;

 private:
  struct Key {
    int num_tasks;
    int repetitions;
    uint64_t rate_bits;

    bool operator==(const Key& other) const {
      return num_tasks == other.num_tasks &&
             repetitions == other.repetitions &&
             rate_bits == other.rate_bits;
    }
  };

  struct KeyHash {
    size_t operator()(const Key& key) const {
      // SplitMix64-style finalization over the packed fields.
      uint64_t h = static_cast<uint64_t>(key.num_tasks) * 0x9e3779b97f4a7c15ULL;
      h ^= static_cast<uint64_t>(key.repetitions) + 0x9e3779b97f4a7c15ULL +
           (h << 6) + (h >> 2);
      h ^= key.rate_bits + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
      h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
      return static_cast<size_t>(h ^ (h >> 31));
    }
  };

  static constexpr size_t kShards = 16;

  /// The key of (shape, curve(price)); checks the curve, price and rate.
  static Key MakeKey(const GroupShape& shape,
                     const std::shared_ptr<const PriceRateCurve>& curve,
                     int price);

  struct Shard {
    Mutex mu;
    std::unordered_map<Key, double, KeyHash> map HTUNE_GUARDED_BY(mu);
  };

  mutable std::array<Shard, kShards> shards_;
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
};

/// The process-wide cache instance shared by every GroupLatencyTable.
LatencyKernelCache& GlobalLatencyCache();

}  // namespace htune

#endif  // HTUNE_MODEL_LATENCY_CACHE_H_
