#ifndef HTUNE_COMMON_THREAD_ANNOTATIONS_H_
#define HTUNE_COMMON_THREAD_ANNOTATIONS_H_

/// Clang thread-safety-analysis attribute macros (no-ops on other
/// compilers). Annotating every lock-protected field with
/// HTUNE_GUARDED_BY and every locking function with the acquire/release
/// macros lets `clang -Wthread-safety` prove the locking discipline at
/// compile time — a missed lock is a build error, not a race TSan has to
/// catch at runtime. The spellings follow the Clang documentation (and
/// abseil's thread_annotations.h); see DESIGN.md §9 for which invariants
/// the annotations protect.
///
/// Only the annotated wrapper types in common/mutex.h carry the
/// capability attributes, so the analysis only understands locks taken
/// through them — which is why tools/htune_analyze's raw-mutex rule bans
/// raw std::mutex outside that header.

#if defined(__clang__)
#define HTUNE_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define HTUNE_THREAD_ANNOTATION(x)  // no-op
#endif

/// Declares that a field or variable is protected by `x` (a capability,
/// i.e. an htune::Mutex or htune::SharedMutex). Reads require the lock
/// held at least shared; writes require it held exclusively.
#define HTUNE_GUARDED_BY(x) HTUNE_THREAD_ANNOTATION(guarded_by(x))

/// Like HTUNE_GUARDED_BY, for pointer fields: the pointed-to data (not
/// the pointer itself) is protected by `x`.
#define HTUNE_PT_GUARDED_BY(x) HTUNE_THREAD_ANNOTATION(pt_guarded_by(x))

/// Declares that the annotated function requires the listed capabilities
/// held exclusively (resp. shared) on entry, and does not release them.
#define HTUNE_REQUIRES(...) \
  HTUNE_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define HTUNE_REQUIRES_SHARED(...) \
  HTUNE_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/// Declares that the annotated function acquires the listed capabilities
/// (exclusively / shared) and holds them on return.
#define HTUNE_ACQUIRE(...) \
  HTUNE_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define HTUNE_ACQUIRE_SHARED(...) \
  HTUNE_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))

/// Declares that the annotated function releases the listed capabilities
/// (which must be held on entry).
#define HTUNE_RELEASE(...) \
  HTUNE_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define HTUNE_RELEASE_SHARED(...) \
  HTUNE_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))

/// Declares that the annotated function tries to acquire the capability
/// and returns `result` (true/false) on success.
#define HTUNE_TRY_ACQUIRE(...) \
  HTUNE_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Declares that the annotated function must NOT be called with the
/// listed capabilities held (deadlock prevention: e.g. Clear() excludes
/// the shard mutexes it is about to take).
#define HTUNE_EXCLUDES(...) HTUNE_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Marks a type as a capability (lockable) for the analysis.
#define HTUNE_CAPABILITY(x) HTUNE_THREAD_ANNOTATION(capability(x))

/// Marks an RAII type whose constructor acquires and destructor releases
/// a capability (htune::MutexLock and friends).
#define HTUNE_SCOPED_CAPABILITY HTUNE_THREAD_ANNOTATION(scoped_lockable)

/// Declares that this capability must be acquired after `...` (lock
/// ordering, checked when both orders appear in one function).
#define HTUNE_ACQUIRED_AFTER(...) \
  HTUNE_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define HTUNE_ACQUIRED_BEFORE(...) \
  HTUNE_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))

/// Returns a reference to the underlying capability; lets a wrapper
/// expose its mutex for annotation purposes.
#define HTUNE_RETURN_CAPABILITY(x) \
  HTUNE_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Every use needs
/// a comment justifying why the discipline cannot be expressed.
#define HTUNE_NO_THREAD_SAFETY_ANALYSIS \
  HTUNE_THREAD_ANNOTATION(no_thread_safety_analysis)

#endif  // HTUNE_COMMON_THREAD_ANNOTATIONS_H_
