// Fixture: node-based ordered containers in a market engine: the
// include and two declarations each fire.
#include <map>

std::map<unsigned long, double> open_tasks;
std::set<unsigned long> on_hold;
