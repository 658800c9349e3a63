#include "tuning/group_latency_table.h"

#include "common/check.h"
#include "model/latency_cache.h"

namespace htune {

GroupLatencyTable::GroupLatencyTable(const TaskGroup& group)
    : curve_(group.curve) {
  HTUNE_CHECK(curve_ != nullptr);
  HTUNE_CHECK_GE(group.num_tasks, 1);
  HTUNE_CHECK_GE(group.repetitions, 1);
  HTUNE_CHECK_GT(group.processing_rate, 0.0);
  unit_rate_phase1_ = GlobalLatencyCache().UnitRatePhase1(
      {group.num_tasks, group.repetitions, group.processing_rate});
  phase2_ = static_cast<double>(group.repetitions) / group.processing_rate;
}

double GroupLatencyTable::Phase1(int price) const {
  HTUNE_CHECK_GE(price, 1);
  const double rate = curve_->Rate(static_cast<double>(price));
  HTUNE_CHECK_GT(rate, 0.0);
  return unit_rate_phase1_ / rate;
}

std::vector<double> GroupLatencyTable::FlatPhase1(int max_price) const {
  HTUNE_CHECK_GE(max_price, 1);
  std::vector<double> flat(1, 0.0);
  ExtendFlatPhase1(max_price, &flat);
  return flat;
}

void GroupLatencyTable::ExtendFlatPhase1(int max_price,
                                         std::vector<double>* flat) const {
  flat->reserve(static_cast<size_t>(max_price) + 1);
  for (int price = static_cast<int>(flat->size()); price <= max_price;
       ++price) {
    flat->push_back(Phase1(price));
  }
}

}  // namespace htune
