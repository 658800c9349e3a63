#ifndef HTUNE_MODEL_LATENCY_CACHE_H_
#define HTUNE_MODEL_LATENCY_CACHE_H_

#include <cstdint>
#include <map>
#include <utility>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "model/latency_model.h"

namespace htune {

struct LatencyCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t entries = 0;
};

/// Process-wide memo of the scale-free phase-1 kernel
///   M(n, k) = E[max over n of Erlang(k, 1)],
/// the one adaptive quadrature every tuner reduces to. A repetition's
/// on-hold time is Erlang(k, lambda), and Erlang(k, lambda) is
/// Erlang(k, 1) / lambda in distribution, so a group's phase-1 latency at
/// any on-hold rate is M(n, k) / lambda: the price, the curve and the
/// group's processing_rate never reach the kernel. The memo is keyed on
/// (num_tasks, repetitions) and holds one entry per group shape a process
/// has tuned, however many curves, prices and jobs it served.
///
/// Thread safety: one mutex; safe for concurrent lookups. A miss computes
/// outside the lock, so a racing pair may both evaluate the kernel; it is a
/// pure function of the key, so both arrive at the same bits and either
/// insert wins.
class LatencyKernelCache {
 public:
  /// M(shape.num_tasks, shape.repetitions), computed on a miss as
  /// ExpectedGroupOnHoldLatencyAtRate(shape, 1.0) inside a
  /// "cache.quadrature_eval" span. `shape.processing_rate` is ignored.
  double UnitRatePhase1(const GroupShape& shape);

  /// Drops every entry and counter.
  void Clear();

  LatencyCacheStats Stats() const;

 private:
  mutable Mutex mu_;
  std::map<std::pair<int, int>, double> kernels_ HTUNE_GUARDED_BY(mu_);
  uint64_t hits_ HTUNE_GUARDED_BY(mu_) = 0;
  uint64_t misses_ HTUNE_GUARDED_BY(mu_) = 0;
};

/// The process-wide memo shared by every GroupLatencyTable.
LatencyKernelCache& GlobalLatencyCache();

}  // namespace htune

#endif  // HTUNE_MODEL_LATENCY_CACHE_H_
