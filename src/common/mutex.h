#ifndef HTUNE_COMMON_MUTEX_H_
#define HTUNE_COMMON_MUTEX_H_

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "common/thread_annotations.h"

namespace htune {

/// Annotated wrappers over the std synchronization primitives. All locking
/// in src/ goes through these types (tools/htune_analyze's raw-mutex rule
/// enforces it):
/// they carry the Clang capability attributes, so a field declared
/// HTUNE_GUARDED_BY(mu_) can only be touched while the analysis can prove
/// mu_ is held. Method names keep the std lowercase spelling so the
/// wrappers stay BasicLockable/SharedLockable and interoperate with
/// CondVar and std algorithms.

/// Exclusive mutex (std::mutex with a capability annotation).
class HTUNE_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() HTUNE_ACQUIRE() { mu_.lock(); }
  void unlock() HTUNE_RELEASE() { mu_.unlock(); }
  bool try_lock() HTUNE_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// Reader/writer mutex (std::shared_mutex with a capability annotation).
class HTUNE_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() HTUNE_ACQUIRE() { mu_.lock(); }
  void unlock() HTUNE_RELEASE() { mu_.unlock(); }
  bool try_lock() HTUNE_TRY_ACQUIRE(true) { return mu_.try_lock(); }
  void lock_shared() HTUNE_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void unlock_shared() HTUNE_RELEASE_SHARED() { mu_.unlock_shared(); }
  bool try_lock_shared() HTUNE_TRY_ACQUIRE(true) {
    return mu_.try_lock_shared();
  }

 private:
  std::shared_mutex mu_;
};

/// RAII exclusive lock over a Mutex.
class HTUNE_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) HTUNE_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() HTUNE_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// RAII exclusive lock over a SharedMutex.
class HTUNE_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) HTUNE_ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~WriterMutexLock() HTUNE_RELEASE() { mu_.unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// RAII shared (reader) lock over a SharedMutex.
class HTUNE_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) HTUNE_ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_.lock_shared();
  }
  ~ReaderMutexLock() HTUNE_RELEASE_SHARED() { mu_.unlock_shared(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Condition variable usable with Mutex. Wait() is annotated REQUIRES:
/// the mutex must be held on entry and is held again on return (the
/// internal unlock/relock is invisible to the analysis, matching how
/// abseil annotates CondVar::Wait). Use an explicit while-loop around
/// Wait() rather than the predicate overloads of std::condition_variable
/// — the analysis cannot see through a predicate lambda, and the loop
/// keeps the guarded reads inside the annotated critical section.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) HTUNE_REQUIRES(mu) { cv_.wait(mu); }
  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace htune

#endif  // HTUNE_COMMON_MUTEX_H_
