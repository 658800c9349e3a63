#ifndef HTUNE_TUNING_GROUP_LATENCY_TABLE_H_
#define HTUNE_TUNING_GROUP_LATENCY_TABLE_H_

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
/// Thread safety: lazy Phase1 growth is NOT thread-safe; concurrent access
/// is only valid through Prewarm/PrewarmTables (which fan disjoint slots out
/// on the default pool) or after prewarming, when lookups are plain reads.
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

  /// Ensures Phase1(1..max_price) are all computed, fanning the missing
  /// evaluations out on the default thread pool. Afterwards Phase1 lookups
  /// up to max_price are lock-free reads.
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

  /// Grows the cache arrays (serially) so slots [0, max_price) exist.
  void EnsureCapacity(int max_price) const;
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

/// Prewarms several tables at once: flattens every missing (table, price)
/// slot across all tables into one job list and fans it out on the default
/// pool. `max_prices[i]` bounds table i (>= 1). This is the allocators'
/// entry point — one wide fan-out beats per-table waves.
void PrewarmTables(std::vector<GroupLatencyTable>& tables,
                   const std::vector<int>& max_prices);

}  // namespace htune

#endif  // HTUNE_TUNING_GROUP_LATENCY_TABLE_H_
