// Fixture: raw use at a std-API interop boundary, allowed in
// analyze.toml.
#include <mutex>

extern std::mutex& ExternalLock();
void WithExternal() { ExternalLock().lock(); ExternalLock().unlock(); }
