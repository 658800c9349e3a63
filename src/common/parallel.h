#ifndef HTUNE_COMMON_PARALLEL_H_
#define HTUNE_COMMON_PARALLEL_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

namespace htune {

/// Fixed-size thread pool for the tuning stack's embarrassingly parallel
/// hot loops (Monte Carlo replications, the fleet's job lanes).
///
/// Determinism contract: ParallelFor/ParallelMap schedule dynamically, so
/// which thread runs which index is unspecified — but every index runs
/// exactly once and bodies write only per-index output slots, so results
/// are bitwise-identical regardless of thread count or scheduling. Callers
/// must keep any floating-point reduction out of the parallel region and
/// fold the slots serially in index order.
class ThreadPool {
 public:
  /// A pool with `threads` total lanes of concurrency (>= 1). The calling
  /// thread participates in every parallel region, so `threads == 1` means
  /// purely inline serial execution and spawns no workers.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int threads() const { return threads_; }

  /// Runs `body(i)` for every i in [0, n), distributing contiguous chunks
  /// across the pool; the caller participates and blocks until all indices
  /// complete. The first exception thrown by any body is rethrown on the
  /// caller after the region drains. Nested calls are safe: an inner region
  /// whose workers are busy is simply executed by its own caller.
  void ParallelFor(size_t n, const std::function<void(size_t)>& body);

  /// ParallelFor writing `fn(i)` into slot i of the returned vector.
  template <typename T>
  std::vector<T> ParallelMap(size_t n, const std::function<T(size_t)>& fn) {
    std::vector<T> out(n);
    ParallelFor(n, [&out, &fn](size_t i) { out[i] = fn(i); });
    return out;
  }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  int threads_;
};

/// The pool size the process defaults to: the HTUNE_THREADS environment
/// variable if set to a positive integer, otherwise
/// std::thread::hardware_concurrency() (minimum 1).
int DefaultThreadCount();

/// Lazily constructed process-wide pool of DefaultThreadCount() lanes, used
/// by every free ParallelFor/ParallelMap: the parallel Monte Carlo evaluator
/// and the fleet supervisor's job lanes. No allocator uses it.
ThreadPool& DefaultThreadPool();

/// Swaps the pool returned by DefaultThreadPool() for this scope — the
/// explicit-handle override (tests run the allocators at 1/4/hardware lanes
/// to assert determinism). Not thread-safe against concurrent regions on
/// the previous default; install overrides from a quiescent main thread.
class ScopedDefaultThreadPool {
 public:
  explicit ScopedDefaultThreadPool(ThreadPool* pool);
  ~ScopedDefaultThreadPool();

  ScopedDefaultThreadPool(const ScopedDefaultThreadPool&) = delete;
  ScopedDefaultThreadPool& operator=(const ScopedDefaultThreadPool&) = delete;

 private:
  ThreadPool* previous_;
};

/// ParallelFor on the default pool.
void ParallelFor(size_t n, const std::function<void(size_t)>& body);

/// ParallelMap on the default pool.
template <typename T>
std::vector<T> ParallelMap(size_t n, const std::function<T(size_t)>& fn) {
  return DefaultThreadPool().ParallelMap<T>(n, fn);
}

}  // namespace htune

#endif  // HTUNE_COMMON_PARALLEL_H_
