#ifndef HTUNE_SPEC_JOB_SPEC_H_
#define HTUNE_SPEC_JOB_SPEC_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/statusor.h"
#include "market/simulator.h"
#include "tuning/problem.h"

namespace htune {

/// A tuning job read from a spec file, plus the simulation settings the CLI
/// uses when asked to execute it.
struct JobSpec {
  TuningProblem problem;
  /// Market settings for `htune_cli simulate`.
  double arrival_rate = 100.0;
  double worker_error_prob = 0.0;
  /// Worker abandonment ("return HIT") applied by the simulated market; see
  /// MarketConfig::{abandon_prob, abandon_hold_rate}. `plan` also corrects
  /// the tuned allocation for it via ProblemWithAbandonment.
  double abandon_prob = 0.0;
  double abandon_hold_rate = 1.0;
  uint64_t seed = 1;
};

/// Parses the htune job-spec format: a line-based key = value file with
/// one top-level section followed by [group] sections.
///
///   # comment
///   budget = 1500
///   arrival_rate = 100      # optional (simulation)
///   error_prob = 0.1        # optional (simulation)
///   abandon_prob = 0.2      # optional (simulation fault model)
///   abandon_hold_rate = 2   # optional (simulation fault model)
///   seed = 7                # optional (simulation)
///
///   [group]
///   name = easy labels      # optional
///   tasks = 30
///   repetitions = 3
///   processing_rate = 2.0
///   curve = linear 1.0 1.0  # linear k b | quadratic a b | log s |
///                           # table p:r,p:r,...
///
/// Returns InvalidArgument with a line-numbered message on any malformed
/// input, and runs ValidateProblem on the result.
StatusOr<JobSpec> ParseJobSpec(std::string_view text);

/// The simulated market `spec` describes, seeded with `seed`.
MarketConfig MarketConfigFor(const JobSpec& spec, uint64_t seed);

/// Reads `path` and parses it. NotFound when the file cannot be read.
StatusOr<JobSpec> LoadJobSpec(const std::string& path);

/// Parses a curve description ("linear 1.0 1.0", "quadratic 1 1", "log 2",
/// "table 1:0.5,5:2.0"). Exposed for reuse and tests.
StatusOr<std::shared_ptr<const PriceRateCurve>> ParseCurveSpec(
    std::string_view text);

}  // namespace htune

#endif  // HTUNE_SPEC_JOB_SPEC_H_
