#ifndef HTUNE_TUNING_GROUP_LATENCY_TABLE_H_
#define HTUNE_TUNING_GROUP_LATENCY_TABLE_H_

#include <utility>
#include <vector>

#include "tuning/problem.h"

namespace htune {

/// Memoized expected-latency lookups for one task group under uniform
/// per-repetition pricing. The DP/greedy tuners evaluate E_i(p) for many
/// prices, and each evaluation integrates an order-statistic tail — caching
/// turns the optimizers' inner loops into table lookups. Values come from
/// the process-wide LatencyKernelCache, so groups with the same shape and
/// on-hold rate curve(price) share quadrature work across tables, allocator
/// calls, jobs, and threads, whichever curve object carries the rate.
///
/// Filling a range of prices first probes the process-wide cache serially
/// with a hit-only lookup and sends only the misses to the default pool, so
/// a fill that the cache already covers wakes no pool thread. The paper DP
/// fills a short band and widens it as its prices climb; the enumeration and
/// knapsack allocators fill every price they can reach up front.
///
/// Thread safety: lazy Phase1 growth is NOT thread-safe; concurrent access
/// is only valid through Fill/Prewarm/PrewarmTables (which fan disjoint
/// slots out on the default pool) or after filling, when lookups are plain
/// reads.
class GroupLatencyTable {
 public:
  explicit GroupLatencyTable(const TaskGroup& group);

  /// E[max over the group's tasks of Erlang(repetitions, curve(price))]:
  /// expected phase-1 latency when every repetition pays `price` (>= 1).
  double Phase1(int price) const;

  /// Marginal phase-1 improvement of one extra payment unit per repetition:
  /// Phase1(price) - Phase1(price + 1). Non-negative for monotone curves.
  double Phase1Gain(int price) const { return Phase1(price) - Phase1(price + 1); }

  /// Expected phase-2 latency of one task: repetitions / processing_rate.
  double Phase2() const { return phase2_; }

  /// Ensures Phase1(1..max_price) are all computed: probes the process-wide
  /// cache for every missing price, then fans only the cache misses out on
  /// the default thread pool. Afterwards Phase1 lookups up to max_price are
  /// lock-free reads. Opens no span; the caller's span times it.
  void Fill(int max_price);

  /// Fill inside an "allocator.prewarm" span.
  void Prewarm(int max_price);

  /// Phase1(1..max_price) hoisted into a flat array indexed by price
  /// (slot 0 unused): lets DP inner loops index doubles directly instead of
  /// going through the bounds-checked lazy path. Computes missing entries
  /// serially; call Prewarm (or PrewarmTables) first to fill them in
  /// parallel.
  std::vector<double> FlatPhase1(int max_price) const;

  const TaskGroup& group() const { return group_; }

 private:
  friend void PrewarmTables(std::vector<GroupLatencyTable>& tables,
                            const std::vector<int>& max_prices);

  GroupShape Shape() const {
    return {group_.num_tasks, group_.repetitions, group_.processing_rate};
  }

  /// (table, price) slots left for the quadrature kernel.
  using SlotList = std::vector<std::pair<const GroupLatencyTable*, int>>;

  /// Grows the cache arrays (serially) so slots [0, max_price) exist.
  void EnsureCapacity(int max_price) const;
  /// Copies each missing price in 1..max_price that the process-wide cache
  /// holds, and appends the prices it does not hold to `misses`.
  void ProbeMissing(int max_price, SlotList* misses) const;
  /// Computes `misses` on the default pool and adds their number to
  /// "allocator.prewarm_slots_filled". An empty list wakes no thread.
  static void FillSlots(const SlotList& misses);
  /// Computes slot `price` (must be within capacity). Distinct prices touch
  /// distinct slots, so disjoint FillSlot calls may run concurrently.
  void FillSlot(int price) const;

  TaskGroup group_;
  double phase2_;
  /// cache_[p] = Phase1(p + 1), valid iff computed_[p] != 0. An explicit
  /// validity flag (not a NaN sentinel) so a genuine NaN evaluation result
  /// is remembered instead of being recomputed forever.
  mutable std::vector<double> cache_;
  mutable std::vector<char> computed_;
};

/// Prewarms several tables at once: probes every missing (table, price) slot
/// against the process-wide cache, then fans the misses of all tables out on
/// the default pool as one job list. `max_prices[i]` bounds table i (>= 1).
/// This is the allocators' entry point — one wide fan-out beats per-table
/// waves. Adds the number of misses to "allocator.prewarm_slots_filled".
void PrewarmTables(std::vector<GroupLatencyTable>& tables,
                   const std::vector<int>& max_prices);

}  // namespace htune

#endif  // HTUNE_TUNING_GROUP_LATENCY_TABLE_H_
