#ifndef HTUNE_MARKET_TASK_STORE_H_
#define HTUNE_MARKET_TASK_STORE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/statusor.h"
#include "market/events.h"
#include "market/task.h"

namespace htune {

/// Dense slot-indexed store of a market's tasks, replacing the former
/// `std::map<TaskId, OpenTask>` / `std::map<TaskId, TaskOutcome>` pair.
/// Both market engines keep their tasks here, each in its own slot type:
/// SharedMarket stores the engine-neutral OpenTask, MarketSimulator its
/// SimulatorTask, which adds the single-job engine's terms (rates, curves,
/// expiry and reprice memory). `Slot` must derive from OpenTask and provide
/// ResetForReuse().
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
/// reference instead of a map walk that deep-copied every outcome.
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
/// fast path must be disabled while any exist). SharedMarket selects
/// through its own block sums and leaves the on-hold index empty.
template <typename Slot = OpenTask>
class TaskStore {
  static_assert(std::is_base_of_v<OpenTask, Slot>);

 public:
  /// Creates the slot for a new task id, which must be the next sequential
  /// id (1, 2, ...). The returned task is reset (vectors cleared, capacity
  /// retained from the slot's previous tenant) and owned by the store;
  /// the reference is invalidated by the next Insert (slot storage may
  /// grow), like any vector element.
  Slot& Insert(TaskId id) {
    // PostTask assigns ids sequentially; the flat index relies on it.
    HTUNE_CHECK_EQ(id, static_cast<TaskId>(id_index_.size()) + 1);
    uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
      slots_[slot].ResetForReuse();
    } else {
      slot = static_cast<uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    id_index_.push_back(static_cast<int64_t>(slot));
    ++open_count_;
    return slots_[slot];
  }

  /// The open task with `id`, or nullptr when unknown or completed. The
  /// pointer is invalidated by the next Insert.
  Slot* FindOpen(TaskId id) {
    const int64_t entry = IndexEntry(id);
    return entry >= 0 ? &slots_[static_cast<size_t>(entry)] : nullptr;
  }
  const Slot* FindOpen(TaskId id) const {
    const int64_t entry = IndexEntry(id);
    return entry >= 0 ? &slots_[static_cast<size_t>(entry)] : nullptr;
  }

  /// The open task with `id`, for the API call `caller` names: NotFound
  /// when `id` was never posted, FailedPrecondition when it completed.
  /// Both engines' Reprice, OnHoldSince and CurrentPrice look tasks up
  /// here, so they agree on both codes.
  StatusOr<Slot*> GetOpen(TaskId id, std::string_view caller) {
    Slot* task = FindOpen(id);
    if (task == nullptr) return NotOpenError(id, caller);
    return task;
  }
  StatusOr<const Slot*> GetOpen(TaskId id, std::string_view caller) const {
    const Slot* task = FindOpen(id);
    if (task == nullptr) return NotOpenError(id, caller);
    return task;
  }

  /// The completed outcome for `id`, or nullptr when unknown or open.
  const TaskOutcome* FindCompleted(TaskId id) const {
    const int64_t entry = IndexEntry(id);
    return entry <= -2 ? &completed_[static_cast<size_t>(-entry - 2)]
                       : nullptr;
  }

  bool IsKnown(TaskId id) const { return IndexEntry(id) != -1; }

  /// Moves `id`'s outcome into the completed list (in completion order) and
  /// recycles its slot. The task must be open and off hold.
  void Complete(TaskId id) {
    const int64_t entry = IndexEntry(id);
    HTUNE_CHECK_GE(entry, 0);
    const uint32_t slot = static_cast<uint32_t>(entry);
    id_index_[id - 1] = -static_cast<int64_t>(completed_.size()) - 2;
    completed_.push_back(std::move(slots_[slot].outcome));
    free_slots_.push_back(slot);
    --open_count_;
  }

  size_t open_count() const { return open_count_; }

  /// Completed outcomes in completion order.
  const std::vector<TaskOutcome>& completed() const { return completed_; }

  /// Smallest open id, or 0 when none (diagnostics only; O(ids)).
  TaskId LowestOpenId() const {
    for (size_t i = 0; i < id_index_.size(); ++i) {
      if (id_index_[i] >= 0) return static_cast<TaskId>(i + 1);
    }
    return 0;
  }

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
  void AddOnHold(TaskId id, double accept_prob) {
    const int64_t entry = IndexEntry(id);
    HTUNE_CHECK_GE(entry, 0);
    const size_t pos = HoldPosition(id);
    HTUNE_CHECK(pos == hold_ids_.size() || hold_ids_[pos] != id);
    hold_ids_.insert(hold_ids_.begin() + pos, id);
    hold_slots_.insert(hold_slots_.begin() + pos,
                       static_cast<uint32_t>(entry));
    hold_probs_.insert(hold_probs_.begin() + pos, accept_prob);
    if (accept_prob >= 1.0) ++saturated_count_;
  }

  /// Removes `id` from the index. No-op when absent.
  void RemoveOnHold(TaskId id) {
    const size_t pos = HoldPosition(id);
    if (pos == hold_ids_.size() || hold_ids_[pos] != id) return;
    if (hold_probs_[pos] >= 1.0) --saturated_count_;
    hold_ids_.erase(hold_ids_.begin() + pos);
    hold_slots_.erase(hold_slots_.begin() + pos);
    hold_probs_.erase(hold_probs_.begin() + pos);
  }

  /// Updates `id`'s acceptance probability if it is in the index.
  void UpdateOnHoldProb(TaskId id, double accept_prob) {
    const size_t pos = HoldPosition(id);
    if (pos == hold_ids_.size() || hold_ids_[pos] != id) return;
    if (hold_probs_[pos] >= 1.0) --saturated_count_;
    hold_probs_[pos] = accept_prob;
    if (accept_prob >= 1.0) ++saturated_count_;
  }

  size_t on_hold_count() const { return hold_ids_.size(); }
  size_t saturated_count() const { return saturated_count_; }
  const TaskId* on_hold_ids() const { return hold_ids_.data(); }
  const double* on_hold_probs() const { return hold_probs_.data(); }
  /// The open task at on-hold position `i` (O(1) via the slot array).
  Slot& on_hold_task(size_t i) { return slots_[hold_slots_[i]]; }

  /// Removes the entries at `positions` (strictly ascending) in one
  /// compaction pass; used by the arrival scan to drop accepted tasks.
  void RemoveOnHoldPositions(const std::vector<uint32_t>& positions) {
    if (positions.empty()) return;
    const size_t n = hold_ids_.size();
    size_t write = positions.front();
    size_t next = 0;
    for (size_t read = write; read < n; ++read) {
      if (next < positions.size() && positions[next] == read) {
        ++next;
        if (hold_probs_[read] >= 1.0) --saturated_count_;
        continue;
      }
      hold_ids_[write] = hold_ids_[read];
      hold_slots_[write] = hold_slots_[read];
      hold_probs_[write] = hold_probs_[read];
      ++write;
    }
    HTUNE_CHECK_EQ(next, positions.size());
    hold_ids_.resize(write);
    hold_slots_.resize(write);
    hold_probs_.resize(write);
  }

  // Restore path ------------------------------------------------------
  // RestoreState builds a fresh store off to the side and move-assigns it
  // over the live one only after full validation, so these never run on a
  // store with live state.

  /// Pre-sizes the id index for ids in [1, next_task).
  void PrepareForRestore(TaskId next_task) {
    HTUNE_CHECK_GE(next_task, 1u);
    id_index_.assign(static_cast<size_t>(next_task - 1), -1);
  }

  /// Creates the slot for an arbitrary id < next_task. nullptr on a
  /// duplicate or out-of-range id.
  Slot* InsertForRestore(TaskId id) {
    const uint64_t pos = id - 1;
    if (id < 1 || pos >= id_index_.size() || id_index_[pos] != -1) {
      return nullptr;
    }
    const uint32_t slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
    id_index_[pos] = static_cast<int64_t>(slot);
    ++open_count_;
    return &slots_[slot];
  }

  /// Appends a completed outcome (in completion order). False on a
  /// duplicate or out-of-range id.
  bool AddCompletedForRestore(TaskOutcome outcome) {
    const TaskId id = outcome.id;
    const uint64_t pos = id - 1;
    if (id < 1 || pos >= id_index_.size() || id_index_[pos] != -1) {
      return false;
    }
    id_index_[pos] = -static_cast<int64_t>(completed_.size()) - 2;
    completed_.push_back(std::move(outcome));
    return true;
  }

 private:
  Status NotOpenError(TaskId id, std::string_view caller) const {
    const std::string prefix = std::string(caller) + ": ";
    if (FindCompleted(id) != nullptr) {
      return FailedPreconditionError(prefix + "task " + std::to_string(id) +
                                     " already completed");
    }
    return NotFoundError(prefix + "unknown task " + std::to_string(id));
  }
  int64_t IndexEntry(TaskId id) const {
    const uint64_t pos = id - 1;
    return id >= 1 && pos < id_index_.size() ? id_index_[pos] : -1;
  }
  size_t HoldPosition(TaskId id) const {
    return static_cast<size_t>(
        std::lower_bound(hold_ids_.begin(), hold_ids_.end(), id) -
        hold_ids_.begin());
  }

  /// id -> -1 (unknown), slot (>= 0), or -(completed_pos + 2).
  std::vector<int64_t> id_index_;
  std::vector<Slot> slots_;
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

/// The restore contract both market engines check before a snapshot goes
/// live: every open task has a current slot (OpenTask::CurrentSlot names a
/// repetition: one left to expose while on hold, an accepted one while
/// processing), and every processing task has exactly one pending settle
/// event, the event that ends its in-flight repetition (a completion, or
/// in the single-job engine an abandon). RunUntil relies on both. Each
/// engine decides which of its events settle a repetition. Feed every
/// restored open task to AddTask, then each settle event's task (nullptr
/// when it names no open task, and unmoved until Finish) to AddSettle,
/// then call Finish.
class RestoreAudit {
 public:
  /// `engine` prefixes every error message.
  explicit RestoreAudit(std::string_view engine) : engine_(engine) {}

  Status AddTask(const OpenTask& task) {
    const size_t accepted = task.outcome.repetitions.size();
    const size_t reps = task.rep_prices.size();
    processing_ += task.awaiting_acceptance ? 0 : 1;
    return Check(task.awaiting_acceptance ? accepted < reps
                                          : accepted > 0 && accepted <= reps,
                 "open task has no current repetition");
  }
  Status AddSettle(const OpenTask* task) {
    settled_.push_back(task);
    return Check(task != nullptr && !task->awaiting_acceptance,
                 "pending settle event names no processing task");
  }
  Status Finish() {
    std::sort(settled_.begin(), settled_.end(), std::less<>());
    return Check(settled_.size() == processing_ &&
                     std::adjacent_find(settled_.begin(), settled_.end()) ==
                         settled_.end(),
                 "a processing task needs exactly one pending settle event");
  }

 private:
  Status Check(bool holds, std::string_view what) const {
    return holds ? OkStatus()
                 : InvalidArgumentError(engine_ + ": " + std::string(what));
  }

  std::string engine_;
  size_t processing_ = 0;
  std::vector<const OpenTask*> settled_;
};

}  // namespace htune

#endif  // HTUNE_MARKET_TASK_STORE_H_
