// Fixture: the approved alternatives — flat arrays for the hot path,
// unordered_map for untrusted-id bookkeeping (mentions of std::map in
// comments don't count).
#include <unordered_map>
#include <vector>

std::vector<unsigned long> hold_ids;
std::vector<double> hold_probs;
std::unordered_map<unsigned long, double> last_time_per_task;
