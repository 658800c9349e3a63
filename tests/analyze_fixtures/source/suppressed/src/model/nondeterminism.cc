// Fixture: a diagnostics-only entropy source, allowed in analyze.toml.
#include <random>

int EntropyForDiagnosticsOnly() {
  std::random_device rd;
  return static_cast<int>(rd());
}
