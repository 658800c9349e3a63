#ifndef HTUNE_MARKET_EVENT_QUEUE_H_
#define HTUNE_MARKET_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "market/events.h"

namespace htune {

/// A scheduled simulator event: the in-flight repetition finishing
/// (kCompletion), the in-flight repetition being returned unanswered
/// (kAbandon), or the exposed repetition's acceptance window lapsing
/// (kExpiry). Expiry events carry the exposure generation they were armed
/// for; a stale generation (the repetition got accepted or reposted in the
/// meantime) makes the event a no-op.
struct MarketEvent {
  enum class Kind : uint8_t { kCompletion, kAbandon, kExpiry };
  double time = 0.0;
  uint64_t sequence = 0;
  TaskId task = 0;
  Kind kind = Kind::kCompletion;
  uint64_t generation = 0;
};

/// The simulator's total order on events: time, with the monotone push
/// sequence breaking ties. The queue must pop in exactly this order — the
/// order is part of the bitwise-determinism contract, not a performance
/// detail (tests/event_queue_test.cc checks it against a binary-heap
/// oracle).
inline bool EventBefore(const MarketEvent& a, const MarketEvent& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.sequence < b.sequence;
}

/// Priority queue of pending market events, minimum (time, sequence) first.
///
/// Calendar queue (R. Brown, CACM 1988): events hash into time buckets of
/// width `width_`; each bucket holds its events sorted descending so the
/// bucket minimum pops from the back in O(1). With the width tracking the
/// mean event spacing, Push and Pop are amortized O(1) versus the binary
/// heap's O(log n) — and, more importantly for this workload, a Push of a
/// far-future expiry does not touch the path to the near-term minimum.
///
/// The global minimum is cached, so Min() — called once per simulator loop
/// iteration to race the next worker arrival — is a field read. After a Pop
/// the successor is found by scanning buckets in calendar order from the
/// popped event's virtual bucket, which visits O(1) buckets in the common
/// case; a full wrap falls back to taking the best bucket-minimum seen
/// (the classic direct search).
///
/// Bucket count and width adapt by powers of two when the population
/// doubles or quarters, rebuilding from the events themselves, so the
/// structure depends only on queue content — never on wall-clock state —
/// and stays deterministic. Times so large that time/width overflows the
/// bucket arithmetic (>= 2^62 virtual buckets) degrade to a single sorted
/// bucket, which is slower but still pops in exact order. Snapshots store
/// SortedSnapshot() (the canonical order), never the bucket layout.
class CalendarEventQueue {
 public:
  CalendarEventQueue();

  void Push(const MarketEvent& event);
  /// Removes and returns the minimum event. Requires !empty().
  MarketEvent Pop();
  /// The minimum event without removing it. Requires !empty().
  const MarketEvent& Min() const { return min_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Drops all events (bucket capacity is retained for reuse).
  void Clear();
  /// All pending events in the canonical (time, sequence) order — the
  /// snapshot-v2 wire order.
  std::vector<MarketEvent> SortedSnapshot() const;
  /// Replaces the queue contents with `events` (any order; duplicates are
  /// the caller's bug). Used by RestoreState.
  void Assign(std::vector<MarketEvent> events);

 private:
  /// Virtual (un-wrapped) bucket of `time`; kOverflow when the division
  /// leaves the exactly-representable range.
  uint64_t VirtualBucket(double time) const;
  void InsertIntoBucket(const MarketEvent& event);
  /// Recomputes min_ by scanning from the popped event's virtual bucket.
  void FindMinAfterPop(double popped_time);
  /// Rebuilds with a bucket count/width fitted to the current population.
  void Resize(size_t target_buckets);

  static constexpr uint64_t kOverflowBucket = ~uint64_t{0};
  static constexpr size_t kMinBuckets = 8;

  std::vector<std::vector<MarketEvent>> buckets_;
  size_t bucket_mask_ = kMinBuckets - 1;
  double width_ = 1.0;
  size_t size_ = 0;
  bool overflow_ = false;
  MarketEvent min_;
};

}  // namespace htune

#endif  // HTUNE_MARKET_EVENT_QUEUE_H_
