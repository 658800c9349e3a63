#ifndef HTUNE_MARKET_TASK_STORE_H_
#define HTUNE_MARKET_TASK_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "market/events.h"
#include "market/task.h"

namespace htune {

/// Dense slot-indexed store of a market's tasks, replacing the former
/// `std::map<TaskId, OpenTask>` / `std::map<TaskId, TaskOutcome>` pair.
///
/// TaskIds are assigned sequentially from 1, so a flat array indexed by
/// id-1 resolves any id in O(1) with no hashing and no pointer chasing:
/// each entry encodes unknown (-1), an open task's slot (>= 0), or a
/// completed task's position in the completion-order vector (-(pos + 2)).
/// Open tasks live in stable slots recycled through a free list; recycling
/// keeps each slot's repetition vectors' capacity, so a long posting
/// sequence stops allocating once the fleet size plateaus (the "arena"
/// behaviour of the perf rewrite). Completed outcomes are stored in
/// completion order, which makes CompletedOutcomes() a free const
/// reference instead of a map walk that deep-copied every outcome. Both
/// market engines keep their tasks here; SharedMarket selects through its
/// own Fenwick tree and leaves the on-hold index below empty.
///
/// The store also maintains the on-hold index: the tasks whose exposed
/// repetition is awaiting a worker, as parallel arrays sorted by TaskId
/// (ids / slots / acceptance probabilities). StepWorkerArrival — the
/// simulator's inner loop — scans only these arrays, touching 8 bytes per
/// candidate instead of a map node, in exactly the TaskId order the old
/// full-map scan used (the RNG draw order contract). The probability array
/// is maintained on expose/reprice so the scan performs no indirection at
/// all, and `saturated_count()` reports how many entries would accept with
/// probability >= 1 (those consume no RNG draw, so the batched-uniform
/// fast path must be disabled while any exist).
class TaskStore {
 public:
  /// Creates the slot for a new task id, which must be the next sequential
  /// id (1, 2, ...). The returned task is reset (vectors cleared, capacity
  /// retained from the slot's previous tenant) and owned by the store;
  /// the reference is invalidated by the next Insert (slot storage may
  /// grow), like any vector element.
  OpenTask& Insert(TaskId id);

  /// The open task with `id`, or nullptr when unknown or completed. The
  /// pointer is invalidated by the next Insert.
  OpenTask* FindOpen(TaskId id);
  const OpenTask* FindOpen(TaskId id) const;

  /// The completed outcome for `id`, or nullptr when unknown or open.
  const TaskOutcome* FindCompleted(TaskId id) const;

  bool IsKnown(TaskId id) const;

  /// Moves `id`'s outcome into the completed list (in completion order) and
  /// recycles its slot. The task must be open and off hold.
  void Complete(TaskId id);

  size_t open_count() const { return open_count_; }

  /// Completed outcomes in completion order.
  const std::vector<TaskOutcome>& completed() const { return completed_; }

  /// Smallest open id, or 0 when none (diagnostics only; O(ids)).
  TaskId LowestOpenId() const;

  /// Calls `fn(id, task)` for every open task in ascending id order
  /// (O(ids); used by CaptureState, not the hot loop).
  template <typename Fn>
  void ForEachOpenInIdOrder(Fn&& fn) const {
    for (size_t i = 0; i < id_index_.size(); ++i) {
      const int64_t entry = id_index_[i];
      if (entry >= 0) {
        fn(static_cast<TaskId>(i + 1), slots_[static_cast<size_t>(entry)]);
      }
    }
  }

  // On-hold index -----------------------------------------------------

  /// Adds `id` (currently open, not in the index) with the given
  /// acceptance probability.
  void AddOnHold(TaskId id, double accept_prob);
  /// Removes `id` from the index. No-op when absent.
  void RemoveOnHold(TaskId id);
  /// Updates `id`'s acceptance probability if it is in the index.
  void UpdateOnHoldProb(TaskId id, double accept_prob);

  size_t on_hold_count() const { return hold_ids_.size(); }
  size_t saturated_count() const { return saturated_count_; }
  const TaskId* on_hold_ids() const { return hold_ids_.data(); }
  const double* on_hold_probs() const { return hold_probs_.data(); }
  /// The open task at on-hold position `i` (O(1) via the slot array).
  OpenTask& on_hold_task(size_t i) { return slots_[hold_slots_[i]]; }

  /// Removes the entries at `positions` (strictly ascending) in one
  /// compaction pass; used by the arrival scan to drop accepted tasks.
  void RemoveOnHoldPositions(const std::vector<uint32_t>& positions);

  // Restore path ------------------------------------------------------
  // RestoreState builds a fresh store off to the side and move-assigns it
  // over the live one only after full validation, so these never run on a
  // store with live state.

  /// Pre-sizes the id index for ids in [1, next_task).
  void PrepareForRestore(TaskId next_task);
  /// Creates the slot for an arbitrary id < next_task. nullptr on a
  /// duplicate or out-of-range id.
  OpenTask* InsertForRestore(TaskId id);
  /// Appends a completed outcome (in completion order). False on a
  /// duplicate or out-of-range id.
  bool AddCompletedForRestore(TaskOutcome outcome);

 private:
  int64_t IndexEntry(TaskId id) const {
    const uint64_t pos = id - 1;
    return id >= 1 && pos < id_index_.size() ? id_index_[pos] : -1;
  }
  size_t HoldPosition(TaskId id) const;

  /// id -> -1 (unknown), slot (>= 0), or -(completed_pos + 2).
  std::vector<int64_t> id_index_;
  std::vector<OpenTask> slots_;
  std::vector<uint32_t> free_slots_;
  size_t open_count_ = 0;
  std::vector<TaskOutcome> completed_;

  /// Parallel arrays sorted by TaskId (struct-of-arrays so the hot scan
  /// reads only ids+probs).
  std::vector<TaskId> hold_ids_;
  std::vector<uint32_t> hold_slots_;
  std::vector<double> hold_probs_;
  size_t saturated_count_ = 0;
};

}  // namespace htune

#endif  // HTUNE_MARKET_TASK_STORE_H_
