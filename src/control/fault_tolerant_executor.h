#ifndef HTUNE_CONTROL_FAULT_TOLERANT_EXECUTOR_H_
#define HTUNE_CONTROL_FAULT_TOLERANT_EXECUTOR_H_

#include <vector>

#include "common/statusor.h"
#include "crowddb/types.h"
#include "durability/recovery.h"
#include "market/events.h"
#include "market/simulator.h"
#include "model/latency_model.h"
#include "resilience/circuit_breaker.h"
#include "resilience/policy.h"
#include "tuning/allocator.h"
#include "tuning/problem.h"

namespace htune {

/// Knobs for the fault-tolerant execution loop.
struct FaultTolerantConfig {
  /// Simulated time between straggler reviews.
  double review_interval = 0.25;
  /// Hard cap on review rounds; the job is run to completion afterwards.
  int max_reviews = 100000;
  /// A repetition is a straggler when its current on-hold wait exceeds this
  /// quantile of the modeled (abandonment-corrected) acceptance
  /// distribution: threshold = -ln(1 - q) / lambda_eff.
  double straggler_quantile = 0.95;
  /// Bounded retries: escalations applied to any one repetition slot.
  int max_reposts = 4;
  /// Multiplicative price raise per repost (reverse backoff); each repost
  /// pays max(p + 1, ceil(p * price_escalation)), capped by the remaining
  /// budget.
  double price_escalation = 1.5;
  /// Total spend ceiling covering the initial allocation plus every
  /// escalation. 0 means the problem's own budget — which leaves no
  /// escalation headroom, since allocators spend the full problem budget;
  /// callers normally allocate against a reduced problem budget and put the
  /// real ceiling here.
  long budget = 0;
  /// Acceptance window stamped on every posted repetition (TaskSpec::
  /// acceptance_timeout); 0 leaves expiry to the market default (never).
  double acceptance_timeout = 0.0;
  /// The executor's belief about worker abandonment. Applied internally: the
  /// initial allocation is solved against ProblemWithAbandonment(problem,
  /// abandonment) and straggler thresholds use the corrected rates, so
  /// callers pass the raw (uncorrected) problem.
  AbandonmentModel abandonment;
  /// Retry policy for market-side operations (posting, repricing) when a
  /// fault gate is installed: transient (kUnavailable) gate failures are
  /// retried with jittered exponential backoff before the operation is
  /// given up on. Unused when `market_fault_gate` is empty — the simulated
  /// market itself never fails transiently.
  RetryPolicy market_retry;
  /// Circuit breaker over the market transport. Consecutive transient
  /// failures past the threshold open the breaker; while open, *optional*
  /// operations (straggler escalations) are skipped — the job rides at
  /// current terms, the floor-price degradation mode — and *mandatory*
  /// operations (initial posting, budget demotions) fail with kUnavailable,
  /// which RunDurable turns into checkpoint-and-park. Only consulted when a
  /// fault gate is installed.
  CircuitBreakerConfig breaker;
  /// Completion deadline in simulated seconds from the run's start; once the
  /// market clock passes it the review loop stops escalating (no new spend)
  /// and the job runs to completion at current terms, with
  /// `FaultTolerantReport::deadline_expired` set. 0 disables.
  double time_deadline = 0.0;
  /// Seeds the deterministic backoff jitter stream for market retries.
  uint64_t resilience_seed = 0x6d61726b6574ULL;  // "market"
  /// Chaos-test seam: consulted before every market post/reprice (see
  /// resilience/policy.h). Leave empty in production — with no gate the
  /// retry/breaker machinery is bypassed entirely and behavior is bitwise
  /// identical to a config without resilience fields.
  ///
  /// Durable runs require a *bounded* gate (FaultInjectorConfig::
  /// max_consecutive_faults < market_retry.max_attempts): faults then heal
  /// inside the retry loop and never alter journaled decisions, so recovery
  /// replays bitwise even though the gate's draw stream realigns. An
  /// unbounded gate can skip escalations, which is fine for Run but makes a
  /// mid-run snapshot resume diverge from the original decision sequence.
  FaultGate market_fault_gate;
};

/// Validates every FaultTolerantConfig knob, returning InvalidArgument with
/// a descriptive message on the first violation: non-positive, NaN, or
/// infinite review intervals and escalation factors, quantiles outside
/// (0, 1), negative retry caps, spend ceilings, or timeouts, plus the
/// embedded retry policy (ValidateRetryPolicy), breaker config
/// (ValidateCircuitBreakerConfig), and time_deadline (>= 0, finite). Run
/// and RunDurable call it before touching the market; callers constructing
/// configs from untrusted job specs can call it directly.
Status ValidateFaultTolerantConfig(const FaultTolerantConfig& config);

/// Outcome of one fault-tolerant job execution.
struct FaultTolerantReport {
  /// Wall-clock latency of the whole job.
  double latency = 0.0;
  /// Payment units spent (never exceeds the configured budget).
  long spent = 0;
  /// Review rounds held.
  int reviews = 0;
  /// Straggler detections (a slot may be detected repeatedly).
  int stragglers = 0;
  /// Price escalations actually applied.
  int escalations = 0;
  /// Accepted attempts that workers abandoned, summed over tasks.
  int abandoned_attempts = 0;
  /// Acceptance-window expiries, summed over tasks.
  int expired_posts = 0;
  /// True when the budget ran out: some repetitions finished at the floor
  /// of what the budget allowed instead of being escalated — the
  /// partial-quality signal.
  bool degraded = false;
  /// Repetitions that rode out budget exhaustion at floor terms: stragglers
  /// no raise was affordable for, plus any plans demoted to floor price
  /// because spend the plan did not foresee landed on the market (another
  /// requester's tasks on a `Run` market) and pushed it past the ceiling.
  int floor_repetitions = 0;
  /// True when the configured time_deadline passed before the review loop
  /// finished: escalation stopped early and the job rode to completion at
  /// the terms it already had.
  bool deadline_expired = false;
  /// answers[q] holds the repetitions' answers for question q, flattened
  /// group-major like ExecuteJob.
  std::vector<std::vector<int>> answers;
};

/// Closed-loop executor that finishes a tuned job on a faulty market.
///
/// The static pipeline posts once and waits; a single straggling repetition
/// — a worker who abandoned the HIT, an outage window with no arrivals —
/// then dominates the job's latency (the E[max] in Lemma 3 is driven by the
/// slowest task). FaultTolerantExecutor posts the initial allocation, then
/// periodically:
///  1. detects stragglers: an exposed repetition whose current wait exceeds
///     the straggler_quantile of its modeled acceptance distribution
///     (abandonment-corrected via EffectiveOnHoldRate);
///  2. reposts them at escalated terms — Reprice acts as cancel + repost by
///     memorylessness — raising the price multiplicatively with bounded
///     retries per slot, spending only headroom the budget still has;
///  3. degrades gracefully: when no raise is affordable, the straggler
///     rides out the job at the prices the budget already covers, and when
///     spend the plan did not foresee lands on the market (another
///     requester's tasks on a `Run` market) and pushes the plan past the
///     ceiling, the costliest plans are demoted to floor price until the
///     job fits — either way the report is flagged `degraded` instead of
///     the job failing. A fresh run refuses an initial allocation above
///     the ceiling, and a resumed run restores its ceiling, so nothing
///     else demotes.
class FaultTolerantExecutor {
 public:
  /// `allocator` is borrowed and must outlive the executor.
  FaultTolerantExecutor(const BudgetAllocator* allocator,
                        FaultTolerantConfig config);

  /// Runs `problem` on `market` with one question per atomic task
  /// (group-major order, as ExecuteJob). Returns InvalidArgument on shape
  /// errors or when the initial allocation already exceeds the configured
  /// budget, and propagates market/allocator failures.
  StatusOr<FaultTolerantReport> Run(
      MarketSimulator& market, const TuningProblem& problem,
      const std::vector<QuestionSpec>& questions) const;

  /// Durable variant: the same closed loop, journaled through
  /// `durability.storage` so a killed run can resume. Unlike `Run` it owns
  /// the market — a fresh `MarketSimulator(market_config)` when the journal
  /// is empty, or one restored from the newest intact snapshot — because
  /// recovery must rebuild the market the crashed process lost. Every
  /// controller decision and observed market event is journaled; snapshots
  /// every `durability.snapshot_interval` reviews bound replay time.
  ///
  /// Calling RunDurable again with the same storage, config, problem, and
  /// market_config after a crash resumes the run: the journal tail past the
  /// snapshot is verified bitwise against re-execution (Internal on
  /// divergence), payments are settled exactly once across any number of
  /// crash/recover cycles, and the final report is bitwise identical to an
  /// uninterrupted run's. Storage failures (including injected crashes)
  /// propagate out as the simulated kill.
  ///
  /// A *transient* failure that survives its whole retry budget does not
  /// crash the run either: RunDurable returns kUnavailable with a
  /// "parked: ..." message. The journal is intact and flushed up to the
  /// last good record, so the run resumes — exactly like crash recovery —
  /// by calling RunDurable again with the same storage once the fault
  /// clears (checkpoint-and-park, the last rung of the degradation ladder).
  ///
  /// `final_trace`, when non-null, receives the market's event trace for
  /// post-run comparison.
  StatusOr<FaultTolerantReport> RunDurable(
      const MarketConfig& market_config, const TuningProblem& problem,
      const std::vector<QuestionSpec>& questions,
      const DurabilityConfig& durability,
      std::vector<TraceEvent>* final_trace = nullptr) const;

 private:
  const BudgetAllocator* allocator_;
  FaultTolerantConfig config_;
};

}  // namespace htune

#endif  // HTUNE_CONTROL_FAULT_TOLERANT_EXECUTOR_H_
