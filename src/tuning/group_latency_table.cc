#include "tuning/group_latency_table.h"

#include "common/check.h"
#include "common/parallel.h"
#include "model/latency_cache.h"
#include "obs/obs.h"

namespace htune {

GroupLatencyTable::GroupLatencyTable(const TaskGroup& group) : group_(group) {
  HTUNE_CHECK(group_.curve != nullptr);
  HTUNE_CHECK_GE(group_.num_tasks, 1);
  HTUNE_CHECK_GE(group_.repetitions, 1);
  HTUNE_CHECK_GT(group_.processing_rate, 0.0);
  phase2_ = static_cast<double>(group_.repetitions) / group_.processing_rate;
}

void GroupLatencyTable::EnsureCapacity(int max_price) const {
  const size_t needed = static_cast<size_t>(max_price);
  if (needed > cache_.size()) {
    cache_.resize(needed, 0.0);
    computed_.resize(needed, 0);
  }
}

void GroupLatencyTable::FillSlot(int price) const {
  const size_t index = static_cast<size_t>(price - 1);
  cache_[index] = GlobalLatencyCache().Phase1(Shape(), group_.curve, price);
  computed_[index] = 1;
}

double GroupLatencyTable::Phase1(int price) const {
  HTUNE_CHECK_GE(price, 1);
  EnsureCapacity(price);
  const size_t index = static_cast<size_t>(price - 1);
  if (!computed_[index]) {
    FillSlot(price);
  }
  return cache_[index];
}

void GroupLatencyTable::ProbeMissing(int max_price, SlotList* misses) const {
  HTUNE_CHECK_GE(max_price, 1);
  EnsureCapacity(max_price);
  const GroupShape shape = Shape();
  for (int price = 1; price <= max_price; ++price) {
    const size_t index = static_cast<size_t>(price - 1);
    if (computed_[index]) continue;
    if (GlobalLatencyCache().TryPhase1(shape, group_.curve, price,
                                       &cache_[index])) {
      computed_[index] = 1;
    } else {
      misses->emplace_back(this, price);
    }
  }
}

void GroupLatencyTable::FillSlots(const SlotList& misses) {
  ParallelFor(misses.size(), [&misses](size_t j) {
    misses[j].first->FillSlot(misses[j].second);
  });
  HTUNE_OBS_COUNTER_ADD("allocator.prewarm_slots_filled", misses.size());
}

void GroupLatencyTable::Fill(int max_price) {
  SlotList misses;
  ProbeMissing(max_price, &misses);
  FillSlots(misses);
}

void GroupLatencyTable::Prewarm(int max_price) {
  HTUNE_OBS_SPAN("allocator.prewarm");
  Fill(max_price);
}

std::vector<double> GroupLatencyTable::FlatPhase1(int max_price) const {
  HTUNE_CHECK_GE(max_price, 1);
  std::vector<double> flat(static_cast<size_t>(max_price) + 1, 0.0);
  for (int price = 1; price <= max_price; ++price) {
    flat[static_cast<size_t>(price)] = Phase1(price);
  }
  return flat;
}

void PrewarmTables(std::vector<GroupLatencyTable>& tables,
                   const std::vector<int>& max_prices) {
  HTUNE_CHECK_EQ(tables.size(), max_prices.size());
  HTUNE_OBS_SPAN("allocator.prewarm");
  GroupLatencyTable::SlotList misses;
  for (size_t i = 0; i < tables.size(); ++i) {
    tables[i].ProbeMissing(max_prices[i], &misses);
  }
  GroupLatencyTable::FillSlots(misses);
}

}  // namespace htune
