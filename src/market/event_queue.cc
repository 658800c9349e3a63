#include "market/event_queue.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace htune {

namespace {

/// Sort comparator: a "greater" order, so a bucket sorted by it holds its
/// minimum (time, sequence) at the back.
struct EventGreater {
  bool operator()(const MarketEvent& a, const MarketEvent& b) const {
    return EventBefore(b, a);
  }
};

}  // namespace

CalendarEventQueue::CalendarEventQueue() : buckets_(kMinBuckets) {}

uint64_t CalendarEventQueue::VirtualBucket(double time) const {
  // A zero or subnormal width makes the division meaningless (time / width_
  // jumps straight to inf, or to a bucket index so large every event lands
  // in a different year): treat it as overflow so the caller degrades to
  // the single sorted bucket instead of dividing.
  if (!(width_ >= std::numeric_limits<double>::min())) return kOverflowBucket;
  const double q = time / width_;
  // 2^62: far below the uint64 cast limit, far above any simulated horizon.
  if (!(q >= 0.0) || q >= 4.611686018427388e18) return kOverflowBucket;
  return static_cast<uint64_t>(q);
}

void CalendarEventQueue::InsertIntoBucket(const MarketEvent& event) {
  size_t idx = 0;
  if (!overflow_) {
    const uint64_t vb = VirtualBucket(event.time);
    if (vb == kOverflowBucket) {
      // Degrade to a single sorted bucket; exact order is preserved, only
      // the amortized-O(1) hashing is lost.
      std::vector<MarketEvent> all;
      all.reserve(size_ + 1);
      for (std::vector<MarketEvent>& bucket : buckets_) {
        all.insert(all.end(), bucket.begin(), bucket.end());
        bucket.clear();
      }
      overflow_ = true;
      std::sort(all.begin(), all.end(), EventGreater{});
      buckets_[0] = std::move(all);
    } else {
      idx = static_cast<size_t>(vb) & bucket_mask_;
    }
  }
  std::vector<MarketEvent>& bucket = buckets_[idx];
  // Descending (time, sequence): the bucket minimum lives at the back.
  bucket.insert(std::upper_bound(bucket.begin(), bucket.end(), event,
                                 EventGreater{}),
                event);
}

void CalendarEventQueue::Push(const MarketEvent& event) {
  if (size_ == 0 || EventBefore(event, min_)) {
    min_ = event;
  }
  InsertIntoBucket(event);
  ++size_;
  if (!overflow_ && size_ > buckets_.size() * 2 &&
      buckets_.size() < (size_t{1} << 20)) {
    Resize(buckets_.size() * 2);
  }
}

MarketEvent CalendarEventQueue::Pop() {
  HTUNE_CHECK_GT(size_, 0u);
  const MarketEvent popped = min_;
  const size_t idx =
      overflow_ ? 0
                : static_cast<size_t>(VirtualBucket(popped.time)) &
                      bucket_mask_;
  std::vector<MarketEvent>& bucket = buckets_[idx];
  HTUNE_CHECK(!bucket.empty());
  bucket.pop_back();
  --size_;
  if (size_ > 0) {
    FindMinAfterPop(popped.time);
    if (!overflow_ && buckets_.size() > kMinBuckets &&
        size_ < buckets_.size() / 4) {
      Resize(buckets_.size() / 2);
    }
  }
  return popped;
}

void CalendarEventQueue::FindMinAfterPop(double popped_time) {
  if (overflow_) {
    min_ = buckets_[0].back();
    return;
  }
  // Every remaining event is >= the popped minimum, so its virtual bucket
  // is >= the popped one: scan forward in calendar order. The first bucket
  // whose minimum (its back) falls inside the scanned year holds the global
  // minimum; a bucket whose minimum lies in a later year contributes no
  // event to this year at all (its other events are even later). A full
  // wrap without a year hit means the minimum is simply the best
  // bucket-minimum seen.
  const uint64_t start = VirtualBucket(popped_time);
  bool have_best = false;
  MarketEvent best;
  for (size_t k = 0; k < buckets_.size(); ++k) {
    const uint64_t virtual_bucket = start + k;
    const std::vector<MarketEvent>& bucket =
        buckets_[static_cast<size_t>(virtual_bucket) & bucket_mask_];
    if (bucket.empty()) continue;
    const MarketEvent& candidate = bucket.back();
    if (VirtualBucket(candidate.time) == virtual_bucket) {
      min_ = candidate;
      return;
    }
    if (!have_best || EventBefore(candidate, best)) {
      best = candidate;
      have_best = true;
    }
  }
  HTUNE_CHECK(have_best);
  min_ = best;
}

void CalendarEventQueue::Resize(size_t target_buckets) {
  std::vector<MarketEvent> all;
  all.reserve(size_);
  for (std::vector<MarketEvent>& bucket : buckets_) {
    all.insert(all.end(), bucket.begin(), bucket.end());
    bucket.clear();
  }
  const size_t saved = size_;
  // Fit the width to the live population: ~3 events per bucket-year keeps
  // both the per-bucket insertion sort and the year scan short.
  if (!all.empty()) {
    double lo = all.front().time;
    double hi = lo;
    for (const MarketEvent& event : all) {
      lo = std::min(lo, event.time);
      hi = std::max(hi, event.time);
    }
    const double span = hi - lo;
    double width = span > 0.0 ? 3.0 * span / static_cast<double>(all.size())
                              : 1.0;
    // Every sampled inter-event gap being zero (a same-timestamp flood)
    // yields span == 0; a span of a few ulps divided by a large population
    // can underflow to a subnormal. Either way the fitted width would send
    // time / width_ to inf in VirtualBucket, so require a normal positive
    // width and otherwise fall back to unit-width buckets (same-timestamp
    // events then share one bucket, which is exactly the degenerate
    // population's optimal layout).
    if (!(width >= std::numeric_limits<double>::min()) ||
        !std::isfinite(width)) {
      width = 1.0;
    }
    width_ = width;
  } else {
    width_ = 1.0;
  }
  buckets_.resize(target_buckets);
  bucket_mask_ = target_buckets - 1;
  overflow_ = false;
  size_ = 0;
  for (const MarketEvent& event : all) {
    if (size_ == 0 || EventBefore(event, min_)) min_ = event;
    InsertIntoBucket(event);
    ++size_;
  }
  HTUNE_CHECK_EQ(size_, saved);
}

void CalendarEventQueue::Clear() {
  for (std::vector<MarketEvent>& bucket : buckets_) bucket.clear();
  size_ = 0;
  overflow_ = false;
  width_ = 1.0;
}

std::vector<MarketEvent> CalendarEventQueue::SortedSnapshot() const {
  std::vector<MarketEvent> sorted;
  sorted.reserve(size_);
  for (const std::vector<MarketEvent>& bucket : buckets_) {
    sorted.insert(sorted.end(), bucket.begin(), bucket.end());
  }
  std::sort(sorted.begin(), sorted.end(), EventBefore);
  return sorted;
}

void CalendarEventQueue::Assign(std::vector<MarketEvent> events) {
  Clear();
  size_t target = kMinBuckets;
  while (target < events.size() && target < (size_t{1} << 20)) target *= 2;
  // Resize on the incoming population: stash the events in bucket 0 and let
  // the rebuild fit the width and redistribute.
  buckets_[0] = std::move(events);
  size_ = buckets_[0].size();
  Resize(target);
}

}  // namespace htune
