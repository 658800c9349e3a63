#ifndef HTUNE_TUNING_GROUP_LATENCY_TABLE_H_
#define HTUNE_TUNING_GROUP_LATENCY_TABLE_H_

#include <memory>
#include <vector>

#include "tuning/problem.h"

namespace htune {

/// Expected-latency lookups for one task group under uniform per-repetition
/// pricing. Phase-1 latency scales with the on-hold rate: E_i(p) is
/// M(n, k) / curve(p), where M(n, k) = E[max over n of Erlang(k, 1)] comes
/// from the process-wide LatencyKernelCache, read once at construction. So a
/// lookup is one curve evaluation and one division, and no quadrature runs
/// per price. Loops that read a price many times index a FlatPhase1 array.
///
/// Immutable after construction, so safe to share across threads.
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

  /// Phase1(1..max_price) in a flat array indexed by price (slot 0 unused),
  /// so DP inner loops index doubles directly. `max_price` >= 1.
  std::vector<double> FlatPhase1(int max_price) const;

  /// Appends Phase1(flat->size()) .. Phase1(max_price) to a FlatPhase1
  /// array, widening it to cover `max_price`.
  void ExtendFlatPhase1(int max_price, std::vector<double>* flat) const;

 private:
  std::shared_ptr<const PriceRateCurve> curve_;
  /// M(num_tasks, repetitions): phase-1 latency at on-hold rate 1.
  double unit_rate_phase1_;
  double phase2_;
};

}  // namespace htune

#endif  // HTUNE_TUNING_GROUP_LATENCY_TABLE_H_
