// Fixture: order-independent iteration, allowed in analyze.toml.
#include <unordered_map>

std::unordered_map<int, double> table_;

double Sum() {
  double total = 0.0;
  for (const auto& [key, value] : table_) {
    total += value;
  }
  return total;
}
