#ifndef HTUNE_TESTS_BINARY_HEAP_EVENT_QUEUE_H_
#define HTUNE_TESTS_BINARY_HEAP_EVENT_QUEUE_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/check.h"
#include "market/event_queue.h"

namespace htune {

/// Reference event queue: std::push_heap/std::pop_heap over a vector — the
/// engine the simulator shipped with before the calendar queue. The
/// equivalence oracle for CalendarEventQueue: tests drive both through
/// identical schedules and require identical pop streams. Same interface
/// as CalendarEventQueue, so tests can run one body against either.
class BinaryHeapEventQueue {
 public:
  void Push(const MarketEvent& event) {
    events_.push_back(event);
    std::push_heap(events_.begin(), events_.end(), Greater);
  }
  MarketEvent Pop() {
    HTUNE_CHECK(!events_.empty());
    std::pop_heap(events_.begin(), events_.end(), Greater);
    const MarketEvent event = events_.back();
    events_.pop_back();
    return event;
  }
  const MarketEvent& Min() const { return events_.front(); }
  size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  void Clear() { events_.clear(); }
  std::vector<MarketEvent> SortedSnapshot() const {
    std::vector<MarketEvent> sorted = events_;
    std::sort(sorted.begin(), sorted.end(), EventBefore);
    return sorted;
  }
  void Assign(std::vector<MarketEvent> events) {
    events_ = std::move(events);
    std::make_heap(events_.begin(), events_.end(), Greater);
  }

 private:
  /// A "greater" order, so the std heap algorithms build a min-heap.
  static bool Greater(const MarketEvent& a, const MarketEvent& b) {
    return EventBefore(b, a);
  }

  std::vector<MarketEvent> events_;
};

}  // namespace htune

#endif  // HTUNE_TESTS_BINARY_HEAP_EVENT_QUEUE_H_
