// Equivalence and edge-case tests for the market event queues.
//
// The calendar queue is a performance structure, so its contract is exact:
// for any push/pop schedule it must emit events in precisely the
// (time, sequence) order the binary-heap reference produces. The property
// tests here drive both implementations through identical randomized
// schedules (including pathological ones: identical times, exponentially
// spread times, overflow-range times, Assign from arbitrary permutations,
// and interleaved drains that trigger resize in both directions) and
// require the pop streams to match field-for-field.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "binary_heap_event_queue.h"
#include "market/event_queue.h"
#include "rng/random.h"

namespace htune {
namespace {

MarketEvent MakeEvent(double time, uint64_t sequence,
                      MarketEvent::Kind kind = MarketEvent::Kind::kCompletion,
                      TaskId task = 1, uint64_t generation = 0) {
  MarketEvent event;
  event.time = time;
  event.sequence = sequence;
  event.task = task;
  event.kind = kind;
  event.generation = generation;
  return event;
}

bool SameEvent(const MarketEvent& a, const MarketEvent& b) {
  return a.time == b.time && a.sequence == b.sequence && a.task == b.task &&
         a.kind == b.kind && a.generation == b.generation;
}

/// Pops everything from `queue` and checks the stream against `oracle`
/// (fed the same events).
void ExpectSameDrain(CalendarEventQueue& queue, BinaryHeapEventQueue& oracle) {
  ASSERT_EQ(queue.size(), oracle.size());
  size_t step = 0;
  while (!oracle.empty()) {
    ASSERT_FALSE(queue.empty()) << "calendar queue drained early at " << step;
    EXPECT_TRUE(SameEvent(queue.Min(), oracle.Min())) << "Min at " << step;
    const MarketEvent got = queue.Pop();
    const MarketEvent want = oracle.Pop();
    ASSERT_TRUE(SameEvent(got, want))
        << "pop " << step << ": got (t=" << got.time << ", seq=" << got.sequence
        << ") want (t=" << want.time << ", seq=" << want.sequence << ")";
    ++step;
  }
  EXPECT_TRUE(queue.empty());
}

/// Runs `body` on a fresh queue of each implementation.
template <typename Body>
void ForEachQueue(Body body) {
  CalendarEventQueue calendar;
  body(calendar);
  BinaryHeapEventQueue heap;
  body(heap);
}

TEST(EventQueueTest, PopsInTimeThenSequenceOrder) {
  ForEachQueue([](auto& queue) {
    queue.Push(MakeEvent(3.0, 7));
    queue.Push(MakeEvent(1.0, 9));
    queue.Push(MakeEvent(1.0, 2));
    queue.Push(MakeEvent(2.0, 5));
    ASSERT_EQ(queue.size(), 4u);
    EXPECT_EQ(queue.Pop().sequence, 2u);
    EXPECT_EQ(queue.Pop().sequence, 9u);
    EXPECT_EQ(queue.Pop().sequence, 5u);
    EXPECT_EQ(queue.Pop().sequence, 7u);
    EXPECT_TRUE(queue.empty());
  });
}

TEST(EventQueueTest, RandomScheduleMatchesBinaryHeap) {
  Random rng(0x5EED0001);
  CalendarEventQueue calendar;
  BinaryHeapEventQueue oracle;
  uint64_t sequence = 0;
  double now = 0.0;
  // Interleave pushes and pops the way the simulator does: events are
  // scheduled at now + exponential increments and popped in bursts, so the
  // population swings through several resize doublings and halvings.
  for (int round = 0; round < 200; ++round) {
    const int pushes = static_cast<int>(rng.UniformInt(40));
    for (int i = 0; i < pushes; ++i) {
      const double dt = rng.Exponential(0.5 + rng.Uniform() * 10.0);
      const MarketEvent event =
          MakeEvent(now + dt, sequence++,
                    static_cast<MarketEvent::Kind>(rng.UniformInt(3)),
                    static_cast<TaskId>(1 + rng.UniformInt(1000)),
                    rng.UniformInt(5));
      calendar.Push(event);
      oracle.Push(event);
    }
    const int pops =
        static_cast<int>(rng.UniformInt(oracle.size() + 1));
    for (int i = 0; i < pops; ++i) {
      ASSERT_TRUE(SameEvent(calendar.Min(), oracle.Min()));
      const MarketEvent got = calendar.Pop();
      const MarketEvent want = oracle.Pop();
      ASSERT_TRUE(SameEvent(got, want)) << "round " << round << " pop " << i;
      now = want.time;  // the simulator clock only moves forward
    }
    ASSERT_EQ(calendar.size(), oracle.size());
  }
  ExpectSameDrain(calendar, oracle);
}

TEST(EventQueueTest, ManyIdenticalTimesBreakTiesBySequence) {
  // All events land in one bucket; the bucket's descending sort must still
  // yield ascending sequence within the tied time.
  CalendarEventQueue calendar;
  BinaryHeapEventQueue oracle;
  Random rng(0x5EED0002);
  std::vector<uint64_t> sequences;
  for (uint64_t s = 0; s < 500; ++s) sequences.push_back(s);
  // Push in shuffled sequence order.
  for (size_t i = sequences.size(); i > 1; --i) {
    std::swap(sequences[i - 1], sequences[rng.UniformInt(i)]);
  }
  for (const uint64_t s : sequences) {
    const double time = (s % 3 == 0) ? 5.0 : 5.0 + static_cast<double>(s % 3);
    calendar.Push(MakeEvent(time, s));
    oracle.Push(MakeEvent(time, s));
  }
  ExpectSameDrain(calendar, oracle);
}

TEST(EventQueueTest, WidelySpreadTimesMatchOracle) {
  // Times spanning ~12 orders of magnitude stress the width fitting and the
  // year-wrap direct search.
  CalendarEventQueue calendar;
  BinaryHeapEventQueue oracle;
  Random rng(0x5EED0003);
  uint64_t sequence = 0;
  for (int i = 0; i < 2000; ++i) {
    const double time = std::pow(10.0, rng.Uniform() * 12.0 - 3.0);
    const MarketEvent event = MakeEvent(time, sequence++);
    calendar.Push(event);
    oracle.Push(event);
  }
  ExpectSameDrain(calendar, oracle);
}

TEST(EventQueueTest, OverflowTimesDegradeButStayExact) {
  // Times past the 2^62-virtual-bucket range force the single-sorted-bucket
  // degradation; order must survive, including a mix with ordinary times.
  CalendarEventQueue calendar;
  BinaryHeapEventQueue oracle;
  Random rng(0x5EED0004);
  uint64_t sequence = 0;
  for (int i = 0; i < 300; ++i) {
    const double time = rng.Bernoulli(0.5)
                            ? rng.Uniform() * 100.0
                            : 1e19 + rng.Uniform() * 1e22;
    const MarketEvent event = MakeEvent(time, sequence++);
    calendar.Push(event);
    oracle.Push(event);
  }
  ExpectSameDrain(calendar, oracle);
}

TEST(EventQueueTest, AssignAcceptsAnyPermutation) {
  Random rng(0x5EED0005);
  std::vector<MarketEvent> events;
  for (uint64_t s = 0; s < 400; ++s) {
    events.push_back(MakeEvent(rng.Uniform() * 50.0, s));
  }
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<MarketEvent> shuffled = events;
    for (size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.UniformInt(i)]);
    }
    CalendarEventQueue calendar;
    BinaryHeapEventQueue oracle;
    calendar.Assign(shuffled);
    oracle.Assign(std::move(shuffled));
    ExpectSameDrain(calendar, oracle);
  }
}

TEST(EventQueueTest, SortedSnapshotIsCanonicalAndNonDestructive) {
  ForEachQueue([](auto& queue) {
    Random rng(0x5EED0006);
    for (uint64_t s = 0; s < 200; ++s) {
      queue.Push(MakeEvent(rng.Uniform() * 10.0, s));
    }
    const std::vector<MarketEvent> snapshot = queue.SortedSnapshot();
    ASSERT_EQ(snapshot.size(), 200u);
    EXPECT_TRUE(std::is_sorted(snapshot.begin(), snapshot.end(), EventBefore));
    // The snapshot is an observation, not a drain: popping afterwards must
    // reproduce exactly the snapshot order.
    for (size_t i = 0; i < snapshot.size(); ++i) {
      ASSERT_TRUE(SameEvent(queue.Pop(), snapshot[i])) << "pop " << i;
    }
  });
}

TEST(EventQueueTest, ClearEmptiesAndQueueRemainsUsable) {
  ForEachQueue([](auto& queue) {
    for (uint64_t s = 0; s < 100; ++s) {
      queue.Push(MakeEvent(static_cast<double>(s), s));
    }
    queue.Clear();
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.SortedSnapshot().size(), 0u);
    queue.Push(MakeEvent(2.0, 11));
    queue.Push(MakeEvent(1.0, 12));
    EXPECT_EQ(queue.Pop().sequence, 12u);
    EXPECT_EQ(queue.Pop().sequence, 11u);
  });
}

TEST(EventQueueTest, DrainToEmptyAndRefill) {
  // Repeatedly emptying the calendar queue exercises the "find min after
  // the last event popped" path and the shrink resize.
  CalendarEventQueue calendar;
  BinaryHeapEventQueue oracle;
  Random rng(0x5EED0007);
  uint64_t sequence = 0;
  for (int cycle = 0; cycle < 20; ++cycle) {
    const int n = 1 + static_cast<int>(rng.UniformInt(300));
    for (int i = 0; i < n; ++i) {
      const MarketEvent event =
          MakeEvent(100.0 * cycle + rng.Uniform() * 50.0, sequence++);
      calendar.Push(event);
      oracle.Push(event);
    }
    ExpectSameDrain(calendar, oracle);
  }
}

TEST(EventQueueTest, SameTimestampFloodMatchesOracle) {
  // Degenerate width fitting: every sampled inter-event gap is zero, so the
  // span-fitted width has no information. A resize mid-flood must fall back
  // to a sane width (never 0 or subnormal), keep bucket arithmetic finite,
  // and still pop in exact (time, sequence) order. Interleaved pops force
  // both grow and shrink resizes while the population is all-one-timestamp.
  for (const double time : {0.0, 1.0, 1e9, 4.0e18}) {
    CalendarEventQueue calendar;
    BinaryHeapEventQueue oracle;
    Random rng(0x5EED0011);
    uint64_t sequence = 0;
    for (int round = 0; round < 8; ++round) {
      const int pushes = 1 + static_cast<int>(rng.UniformInt(400));
      for (int i = 0; i < pushes; ++i) {
        const MarketEvent event = MakeEvent(time, sequence++);
        calendar.Push(event);
        oracle.Push(event);
      }
      const size_t pops = oracle.size() / 2;
      for (size_t i = 0; i < pops; ++i) {
        ASSERT_TRUE(SameEvent(calendar.Min(), oracle.Min()))
            << "time " << time << " round " << round << " pop " << i;
        ASSERT_TRUE(SameEvent(calendar.Pop(), oracle.Pop()))
            << "time " << time << " round " << round << " pop " << i;
      }
    }
    ExpectSameDrain(calendar, oracle);
  }
}

TEST(EventQueueTest, NearIdenticalTimesUnderflowWidthFallsBack) {
  // A span of a few ulps divided by the population underflows to a
  // subnormal fitted width; the guard must reject it before the
  // VirtualBucket division instead of hashing with an inf quotient.
  CalendarEventQueue calendar;
  BinaryHeapEventQueue oracle;
  const double base = 1.0;
  const double ulp = std::nextafter(base, 2.0) - base;
  uint64_t sequence = 0;
  for (int i = 0; i < 300; ++i) {
    // Two clusters one ulp apart: span == ulp ~ 2e-16, width ~ 2e-18 —
    // normal but extreme; and with base 0 below, fully subnormal.
    const MarketEvent event =
        MakeEvent(base + (i % 2 == 0 ? 0.0 : ulp), sequence++);
    calendar.Push(event);
    oracle.Push(event);
  }
  ExpectSameDrain(calendar, oracle);

  // Subnormal span around zero: times 0 and DBL_TRUE_MIN * k.
  CalendarEventQueue tiny;
  BinaryHeapEventQueue tiny_oracle;
  const double denorm = std::numeric_limits<double>::denorm_min();
  for (int i = 0; i < 300; ++i) {
    const MarketEvent event =
        MakeEvent(denorm * static_cast<double>(i % 4), sequence++);
    tiny.Push(event);
    tiny_oracle.Push(event);
  }
  ExpectSameDrain(tiny, tiny_oracle);
}

TEST(EventQueueTest, AssignSameTimestampFloodThenMixedPushes) {
  // Assign() routes through Resize with the flood as the whole population;
  // follow-up pushes at other times must keep matching the oracle.
  CalendarEventQueue calendar;
  BinaryHeapEventQueue oracle;
  std::vector<MarketEvent> flood;
  for (uint64_t s = 0; s < 700; ++s) flood.push_back(MakeEvent(42.0, s));
  calendar.Assign(flood);
  oracle.Assign(flood);
  Random rng(0x5EED0012);
  uint64_t sequence = 700;
  for (int i = 0; i < 300; ++i) {
    const MarketEvent event =
        MakeEvent(40.0 + rng.Uniform() * 4.0, sequence++);
    calendar.Push(event);
    oracle.Push(event);
  }
  ExpectSameDrain(calendar, oracle);
}

}  // namespace
}  // namespace htune
