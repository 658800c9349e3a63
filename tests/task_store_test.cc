// Unit tests for the TaskStore: the dense slot-indexed task container and
// on-hold index behind the market simulator's hot loop. The simulator's
// own behaviour is covered by market_test / market_golden_test; this file
// pins the container contracts those depend on — O(1) id resolution across
// open/completed/unknown, slot recycling that keeps vector capacity, the
// id-sorted on-hold index with its saturated-probability count, the
// one-pass RemoveOnHoldPositions compaction, and the restore-path
// duplicate/range rejection.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "market/simulator.h"
#include "market/task_store.h"
#include "rng/random.h"

namespace htune {
namespace {

TEST(TaskStoreTest, InsertFindCompleteLifecycle) {
  TaskStore store;
  EXPECT_FALSE(store.IsKnown(1));
  EXPECT_EQ(store.FindOpen(1), nullptr);
  EXPECT_EQ(store.FindCompleted(1), nullptr);
  EXPECT_EQ(store.open_count(), 0u);
  EXPECT_EQ(store.LowestOpenId(), 0);

  OpenTask& a = store.Insert(1);
  a.outcome.id = 1;
  a.outcome.posted_time = 0.25;
  store.Insert(2).outcome.id = 2;

  EXPECT_TRUE(store.IsKnown(1));
  EXPECT_TRUE(store.IsKnown(2));
  EXPECT_FALSE(store.IsKnown(3));
  EXPECT_EQ(store.open_count(), 2u);
  EXPECT_EQ(store.LowestOpenId(), 1);
  ASSERT_NE(store.FindOpen(1), nullptr);
  EXPECT_EQ(store.FindOpen(1)->outcome.posted_time, 0.25);
  EXPECT_EQ(store.FindCompleted(1), nullptr);

  store.Complete(1);
  EXPECT_TRUE(store.IsKnown(1));
  EXPECT_EQ(store.FindOpen(1), nullptr);
  ASSERT_NE(store.FindCompleted(1), nullptr);
  EXPECT_EQ(store.FindCompleted(1)->posted_time, 0.25);
  EXPECT_EQ(store.open_count(), 1u);
  EXPECT_EQ(store.LowestOpenId(), 2);
}

TEST(TaskStoreTest, CompletedKeepsCompletionOrderNotIdOrder) {
  TaskStore store;
  for (TaskId id = 1; id <= 4; ++id) store.Insert(id).outcome.id = id;
  store.Complete(3);
  store.Complete(1);
  store.Complete(4);
  ASSERT_EQ(store.completed().size(), 3u);
  EXPECT_EQ(store.completed()[0].id, 3);
  EXPECT_EQ(store.completed()[1].id, 1);
  EXPECT_EQ(store.completed()[2].id, 4);
  // FindCompleted resolves by id regardless of completion order.
  ASSERT_NE(store.FindCompleted(1), nullptr);
  EXPECT_EQ(store.FindCompleted(1)->id, 1);
  EXPECT_EQ(store.FindCompleted(2), nullptr);  // still open
}

TEST(TaskStoreTest, RecycledSlotIsResetButKeepsCapacity) {
  TaskStore<SimulatorTask> store;
  SimulatorTask& first = store.Insert(1);
  first.outcome.id = 1;
  first.rep_rates.assign(64, 2.0);
  first.rep_prices.assign(64, 3);
  first.awaiting_acceptance = false;
  first.exposure_generation = 9;
  const size_t rates_capacity = first.rep_rates.capacity();
  store.Complete(1);

  // Id 2 must recycle id 1's slot: state fully reset, capacity retained.
  SimulatorTask& second = store.Insert(2);
  EXPECT_TRUE(second.rep_rates.empty());
  EXPECT_TRUE(second.rep_prices.empty());
  EXPECT_TRUE(second.outcome.repetitions.empty());
  EXPECT_TRUE(second.awaiting_acceptance);
  EXPECT_EQ(second.exposure_generation, 0u);
  EXPECT_EQ(second.reprice_price, -1);
  EXPECT_GE(second.rep_rates.capacity(), rates_capacity);
}

TEST(TaskStoreTest, ForEachOpenInIdOrderSkipsCompleted) {
  TaskStore store;
  for (TaskId id = 1; id <= 6; ++id) store.Insert(id).outcome.id = id;
  store.Complete(2);
  store.Complete(5);
  std::vector<TaskId> seen;
  store.ForEachOpenInIdOrder(
      [&seen](TaskId id, const OpenTask& task) {
        EXPECT_EQ(task.outcome.id, id);
        seen.push_back(id);
      });
  EXPECT_EQ(seen, (std::vector<TaskId>{1, 3, 4, 6}));
}

TEST(TaskStoreTest, OnHoldIndexStaysSortedById) {
  TaskStore store;
  for (TaskId id = 1; id <= 5; ++id) store.Insert(id).outcome.id = id;
  // Add out of id order; the scan order contract is ascending id.
  store.AddOnHold(4, 0.4);
  store.AddOnHold(1, 0.1);
  store.AddOnHold(5, 0.5);
  store.AddOnHold(2, 0.2);
  ASSERT_EQ(store.on_hold_count(), 4u);
  const TaskId* ids = store.on_hold_ids();
  const double* probs = store.on_hold_probs();
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(ids[i], static_cast<TaskId>(i < 2 ? i + 1 : i + 2));
  }
  EXPECT_DOUBLE_EQ(probs[0], 0.1);
  EXPECT_DOUBLE_EQ(probs[3], 0.5);
  // on_hold_task resolves through the slot array to the same object.
  EXPECT_EQ(store.on_hold_task(2).outcome.id, 4);

  store.RemoveOnHold(4);
  store.RemoveOnHold(3);  // absent: no-op
  ASSERT_EQ(store.on_hold_count(), 3u);
  EXPECT_EQ(store.on_hold_ids()[2], 5);
  EXPECT_DOUBLE_EQ(store.on_hold_probs()[2], 0.5);

  store.UpdateOnHoldProb(2, 0.9);
  EXPECT_DOUBLE_EQ(store.on_hold_probs()[1], 0.9);
}

TEST(TaskStoreTest, SaturatedCountTracksProbsAtOrAboveOne) {
  TaskStore store;
  for (TaskId id = 1; id <= 4; ++id) store.Insert(id).outcome.id = id;
  store.AddOnHold(1, 0.5);
  EXPECT_EQ(store.saturated_count(), 0u);
  store.AddOnHold(2, 1.0);
  store.AddOnHold(3, 2.5);
  EXPECT_EQ(store.saturated_count(), 2u);
  // Reprice across the saturation boundary in both directions.
  store.UpdateOnHoldProb(2, 0.3);
  EXPECT_EQ(store.saturated_count(), 1u);
  store.UpdateOnHoldProb(1, 1.0);
  EXPECT_EQ(store.saturated_count(), 2u);
  // An update that stays on the same side must not drift the count.
  store.UpdateOnHoldProb(3, 1.5);
  EXPECT_EQ(store.saturated_count(), 2u);
  store.RemoveOnHold(1);
  EXPECT_EQ(store.saturated_count(), 1u);
  store.RemoveOnHold(3);
  EXPECT_EQ(store.saturated_count(), 0u);
}

TEST(TaskStoreTest, RemoveOnHoldPositionsCompactsInOnePass) {
  TaskStore store;
  for (TaskId id = 1; id <= 8; ++id) store.Insert(id).outcome.id = id;
  for (TaskId id = 1; id <= 8; ++id) {
    store.AddOnHold(id, id >= 7 ? 1.0 : 0.1 * static_cast<double>(id));
  }
  EXPECT_EQ(store.saturated_count(), 2u);
  // Drop positions 0, 3, 6 (ids 1, 4, 7 — one of them saturated).
  store.RemoveOnHoldPositions({0, 3, 6});
  ASSERT_EQ(store.on_hold_count(), 5u);
  const TaskId* ids = store.on_hold_ids();
  EXPECT_EQ(ids[0], 2);
  EXPECT_EQ(ids[1], 3);
  EXPECT_EQ(ids[2], 5);
  EXPECT_EQ(ids[3], 6);
  EXPECT_EQ(ids[4], 8);
  EXPECT_DOUBLE_EQ(store.on_hold_probs()[2], 0.5);
  EXPECT_EQ(store.saturated_count(), 1u);
  // The surviving entries still resolve to the right tasks.
  EXPECT_EQ(store.on_hold_task(4).outcome.id, 8);
  // Removing every remaining entry empties the index.
  store.RemoveOnHoldPositions({0, 1, 2, 3, 4});
  EXPECT_EQ(store.on_hold_count(), 0u);
  EXPECT_EQ(store.saturated_count(), 0u);
}

TEST(TaskStoreTest, RemoveOnHoldPositionsMatchesIndividualRemoves) {
  // Property check: batch compaction == the same removals done one by one.
  Random rng(0x7A5C0001);
  for (int trial = 0; trial < 50; ++trial) {
    const TaskId n = 1 + rng.UniformInt(40);
    TaskStore batch;
    TaskStore scalar;
    for (TaskId id = 1; id <= n; ++id) {
      batch.Insert(id).outcome.id = id;
      scalar.Insert(id).outcome.id = id;
      const double prob = rng.Uniform() * 1.2;
      batch.AddOnHold(id, prob);
      scalar.AddOnHold(id, prob);
    }
    std::vector<uint32_t> positions;
    for (uint32_t i = 0; i < n; ++i) {
      if (rng.Bernoulli(0.4)) positions.push_back(i);
    }
    batch.RemoveOnHoldPositions(positions);
    // Scalar removals by id (positions index the pre-removal arrays).
    for (const uint32_t pos : positions) {
      scalar.RemoveOnHold(static_cast<TaskId>(pos + 1));
    }
    ASSERT_EQ(batch.on_hold_count(), scalar.on_hold_count());
    ASSERT_EQ(batch.saturated_count(), scalar.saturated_count());
    for (size_t i = 0; i < batch.on_hold_count(); ++i) {
      ASSERT_EQ(batch.on_hold_ids()[i], scalar.on_hold_ids()[i]);
      ASSERT_EQ(batch.on_hold_probs()[i], scalar.on_hold_probs()[i]);
    }
  }
}

TEST(TaskStoreTest, RestoreHelpersAcceptArbitraryIdOrder) {
  TaskStore store;
  store.PrepareForRestore(/*next_task=*/6);  // ids 1..5 exist
  ASSERT_NE(store.InsertForRestore(4), nullptr);
  ASSERT_NE(store.InsertForRestore(1), nullptr);
  store.FindOpen(4)->outcome.id = 4;
  store.FindOpen(1)->outcome.id = 1;

  TaskOutcome done;
  done.id = 5;
  EXPECT_TRUE(store.AddCompletedForRestore(done));
  done.id = 2;
  EXPECT_TRUE(store.AddCompletedForRestore(done));
  done.id = 3;
  EXPECT_TRUE(store.AddCompletedForRestore(done));

  EXPECT_EQ(store.open_count(), 2u);
  EXPECT_EQ(store.completed().size(), 3u);
  EXPECT_EQ(store.completed()[0].id, 5);  // completion order as appended
  ASSERT_NE(store.FindCompleted(2), nullptr);
  EXPECT_EQ(store.FindOpen(4)->outcome.id, 4);
  EXPECT_EQ(store.LowestOpenId(), 1);
}

TEST(TaskStoreTest, RestoreHelpersRejectDuplicatesAndOutOfRange) {
  TaskStore store;
  store.PrepareForRestore(/*next_task=*/4);  // ids 1..3 exist
  ASSERT_NE(store.InsertForRestore(2), nullptr);
  EXPECT_EQ(store.InsertForRestore(2), nullptr);  // duplicate open
  EXPECT_EQ(store.InsertForRestore(0), nullptr);  // below range
  EXPECT_EQ(store.InsertForRestore(4), nullptr);  // at next_task

  TaskOutcome done;
  done.id = 1;
  EXPECT_TRUE(store.AddCompletedForRestore(done));
  EXPECT_FALSE(store.AddCompletedForRestore(done));  // duplicate completed
  done.id = 2;
  EXPECT_FALSE(store.AddCompletedForRestore(done));  // already open
  done.id = 9;
  EXPECT_FALSE(store.AddCompletedForRestore(done));  // out of range
}

TEST(TaskStoreTest, ManyTasksStressLifecycle) {
  // Churn a large id space through post/hold/complete and check the store
  // agrees with a simple reference model at every few steps.
  Random rng(0x7A5C0002);
  TaskStore store;
  std::vector<TaskId> open;
  size_t completed = 0;
  TaskId next = 1;
  for (int step = 0; step < 5000; ++step) {
    const double roll = rng.Uniform();
    if (roll < 0.5 || open.empty()) {
      store.Insert(next).outcome.id = next;
      if (rng.Bernoulli(0.7)) store.AddOnHold(next, rng.Uniform());
      open.push_back(next);
      ++next;
    } else {
      const size_t pick = rng.UniformInt(open.size());
      const TaskId id = open[pick];
      store.RemoveOnHold(id);
      store.Complete(id);
      open[pick] = open.back();
      open.pop_back();
      ++completed;
    }
  }
  EXPECT_EQ(store.open_count(), open.size());
  EXPECT_EQ(store.completed().size(), completed);
  for (const TaskId id : open) {
    ASSERT_NE(store.FindOpen(id), nullptr);
    EXPECT_EQ(store.FindOpen(id)->outcome.id, id);
  }
  // On-hold index is a sorted subset of the open set.
  const TaskId* ids = store.on_hold_ids();
  for (size_t i = 0; i + 1 < store.on_hold_count(); ++i) {
    EXPECT_LT(ids[i], ids[i + 1]);
  }
  for (size_t i = 0; i < store.on_hold_count(); ++i) {
    EXPECT_EQ(store.on_hold_task(i).outcome.id, ids[i]);
  }
}

}  // namespace
}  // namespace htune
