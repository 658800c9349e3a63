#ifndef HTUNE_SPEC_FLEET_SPEC_H_
#define HTUNE_SPEC_FLEET_SPEC_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/statusor.h"
#include "durability/manifest.h"
#include "spec/job_spec.h"

namespace htune {

/// A fleet read from a fleet-spec file: supervisor sizing plus the jobs to
/// submit. Job spec files referenced by the fleet spec are read at load
/// time and embedded verbatim (FleetJobSpec::spec_text), so the manifest is
/// self-contained — recovery never depends on the original spec files still
/// existing or being unchanged.
/// The optional [shared_market] section: parameters of the ONE marketplace
/// every job competes on when the fleet runs in shared mode (htune_serve /
/// RunAllShared). Absent (`present` false) the fleet runs each job on its
/// own isolated market, the classic RunAll path.
struct SharedMarketSpec {
  bool present = false;
  /// Poisson intensity of the shared worker-arrival stream.
  double arrival_rate = 100.0;
  /// Per-repetition probability a worker answers wrong.
  double worker_error_prob = 0.0;
  /// Shared price-to-rate curve, in the ParseCurveSpec grammar.
  std::string curve = "linear 1.0 1.0";
  /// Seed of the shared arrival/selection stream.
  long seed = 1;
  /// Session review cadence in simulated seconds (straggler escalation).
  double review_interval = 5.0;
  /// Service snapshot cadence, in reviews.
  int snapshot_interval = 4;
};

struct FleetSpec {
  /// Worker lanes (FleetConfig::max_running).
  int max_running = 4;
  /// Admission cap on pending jobs (FleetConfig::max_admitted, 0 =
  /// unbounded).
  int max_admitted = 0;
  /// Shared-market parameters when the spec opted into shared mode.
  SharedMarketSpec shared_market;
  /// Jobs in submission order (replicated entries already expanded).
  std::vector<FleetJobSpec> jobs;
};

/// Parses the htune fleet-spec format: an optional top-level section of
/// supervisor knobs followed by one [job] section per job.
///
///   # fleet of durable jobs
///   max_running = 8         # optional worker lanes
///   max_admitted = 0        # optional admission cap (0 = unbounded)
///
///   [shared_market]         # optional: serve every job on ONE market
///   arrival_rate = 100.0    # shared Poisson worker stream intensity
///   worker_error_prob = 0.0 # per-repetition wrong-answer probability
///   curve = linear 1.0 1.0  # shared price->rate curve (ParseCurveSpec)
///   seed = 1                # shared stream seed
///   review_interval = 5.0   # session review cadence, simulated seconds
///   snapshot_interval = 4   # service snapshot cadence, in reviews
///
///   [job]
///   spec = jobs/basic.spec  # required; relative to the fleet spec file
///   name = basic            # optional; defaults to the spec path
///   priority = 0            # optional; higher dispatches first
///   count = 3               # optional replicas: replica i runs with
///                           # seed_override = seed + i
///   budget = 2000           # optional spend ceiling (FleetJobSpec::ceiling)
///   seed = 11               # optional seed_override base (-1 = use the
///                           # job spec's own seed)
///   controller = ft         # optional: ft (default) | retune
///   snapshot_interval = 8   # optional snapshot cadence in reviews
///
/// `base_dir` resolves relative `spec =` paths ("" means the process cwd).
/// Every referenced job spec is read, embedded, and validated with
/// ParseJobSpec; a missing or malformed job spec fails the whole load with
/// a line-numbered message.
StatusOr<FleetSpec> ParseFleetSpec(std::string_view text,
                                   const std::string& base_dir);

/// Reads `path` and parses it with base_dir = dirname(path). NotFound when
/// the file cannot be read.
StatusOr<FleetSpec> LoadFleetSpec(const std::string& path);

/// The seed fleet job `job` runs with: its seed_override when set (>= 0),
/// else its job spec's own.
inline uint64_t JobSeed(const FleetJobSpec& job, const JobSpec& spec) {
  return job.seed_override >= 0 ? static_cast<uint64_t>(job.seed_override)
                                : spec.seed;
}

}  // namespace htune

#endif  // HTUNE_SPEC_FLEET_SPEC_H_
