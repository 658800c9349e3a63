#ifndef HTUNE_RESILIENCE_POLICY_H_
#define HTUNE_RESILIENCE_POLICY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>

#include "common/status.h"
#include "rng/splitmix64.h"

namespace htune {

/// A gate a controller consults immediately before a market-side operation
/// (post, reprice): OK means proceed, a kUnavailable status means the
/// operation transiently failed before reaching the market (a stalled
/// endpoint). A default-constructed (empty) gate means no injection. This
/// is the seam the chaos harness's FaultInjector binds; production configs
/// leave it unset and pay nothing.
using FaultGate = std::function<Status(std::string_view op)>;

/// True for the one status code the resilience layer retries
/// (kUnavailable). Everything else — including the crash injector's
/// kResourceExhausted kill and real file-I/O kInternal errors — is treated
/// as permanent and propagates immediately, so retry wiring added to a
/// call site can never mask a genuine failure.
inline bool IsTransient(const Status& status) {
  return status.code() == StatusCode::kUnavailable;
}

/// Bounded retry with exponential backoff and deterministic seeded jitter.
///
/// Backoff is accounted in *simulated* seconds: the tuner's world has no
/// wall clock (the analyzer's nondeterminism rule forbids one), so retries are
/// instantaneous in simulation and the would-be delays are accumulated
/// into the `resilience.retry_backoff_ticks_us` counter for inspection. A
/// deployment gluing this onto a real platform sleeps for BackoffFor()
/// instead. Jitter comes from a SplitMix64 stream the caller seeds, never
/// from ambient randomness, so a retried run is bitwise reproducible.
struct RetryPolicy {
  /// Total tries including the first (1 = no retry). 0 is invalid.
  int max_attempts = 4;
  /// Delay after the first failed attempt, in simulated seconds.
  double initial_backoff = 0.01;
  /// Multiplier applied per subsequent failure (>= 1).
  double backoff_multiplier = 2.0;
  /// Ceiling on any single delay.
  double max_backoff = 1.0;
  /// Uniform jitter as a fraction of the delay: the drawn delay lies in
  /// [d * (1 - f), d * (1 + f)]. Must be in [0, 1].
  double jitter_fraction = 0.25;
};

/// Rejects NaN/negative/zero/inverted knobs with a descriptive
/// InvalidArgument; OK policies are safe to hand to RetryTransient.
Status ValidateRetryPolicy(const RetryPolicy& policy);

/// The delay after failure number `attempt` (1-based), jittered from
/// `jitter`. Always consumes exactly one draw when jitter_fraction > 0 so
/// call sites stay stream-aligned whether or not they honor the delay.
double BackoffFor(const RetryPolicy& policy, int attempt, SplitMix64& jitter);

/// A propagated completion deadline in simulated seconds. Deadline is a
/// value type so controllers can tighten it per phase (e.g. reserve tail
/// time for settlement) without mutating the caller's copy.
class Deadline {
 public:
  /// No deadline: Expired() is always false.
  static Deadline Infinite() { return Deadline(); }
  /// Absolute deadline at simulated time `at`. Non-positive or non-finite
  /// values mean infinite (the config convention: 0 disables).
  static Deadline At(double at);

  bool infinite() const { return infinite_; }
  bool Expired(double now) const { return !infinite_ && now >= at_; }
  /// Simulated seconds left; +inf when infinite, never negative.
  double Remaining(double now) const;
  /// OK while unexpired; ResourceExhausted naming `what` once the clock
  /// passes the deadline — the cancellation check long loops call.
  Status Check(double now, std::string_view what) const;

 private:
  Deadline() = default;
  bool infinite_ = true;
  double at_ = 0.0;
};

/// Runs `op` (a callable returning Status) under `policy`: transient
/// failures (IsTransient) are retried up to max_attempts with jittered
/// exponential backoff; permanent failures and success return immediately.
/// `repair`, when non-null, runs between a transient failure and the next
/// attempt (e.g. truncating a torn journal tail); a repair failure aborts
/// the retry loop with that status. `backoff_spent`, when non-null,
/// accumulates the simulated seconds of backoff consumed.
template <typename Op>
Status RetryTransient(const RetryPolicy& policy, SplitMix64& jitter, Op&& op,
                      const std::function<Status()>& repair = nullptr,
                      double* backoff_spent = nullptr) {
  Status status = OkStatus();
  for (int attempt = 1; attempt <= policy.max_attempts; ++attempt) {
    status = op();
    if (status.ok() || !IsTransient(status)) {
      return status;
    }
    if (attempt == policy.max_attempts) {
      break;  // exhausted: return the last transient status
    }
    if (repair) {
      const Status repaired = repair();
      if (!repaired.ok()) {
        return repaired;
      }
    }
    const double delay = BackoffFor(policy, attempt, jitter);
    if (backoff_spent != nullptr) {
      *backoff_spent += delay;
    }
  }
  return status;
}

}  // namespace htune

#endif  // HTUNE_RESILIENCE_POLICY_H_
