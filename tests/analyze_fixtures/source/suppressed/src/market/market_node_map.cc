// Fixture: a justified map on a cold path, allowed in analyze.toml.
#include <map>

std::map<unsigned long, double> snapshot_index;
