#ifndef HTUNE_PLATFORM_SHARED_MARKET_H_
#define HTUNE_PLATFORM_SHARED_MARKET_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/statusor.h"
#include "market/event_queue.h"
#include "market/events.h"
#include "market/shared_stream.h"
#include "model/price_rate_curve.h"
#include "rng/random.h"

namespace htune {

/// Global parameters of the shared marketplace every job competes on.
struct SharedMarketConfig {
  /// Poisson intensity of the ONE worker-arrival stream all jobs share.
  double worker_arrival_rate = 100.0;
  /// Probability a worker's answer is wrong, applied per repetition.
  double worker_error_prob = 0.0;
  /// The shared price-to-rate curve: a posted repetition's selection
  /// weight is curve->Rate(price). Required (the whole point of the
  /// shared market is that every job's price routes through one curve).
  std::shared_ptr<const PriceRateCurve> curve;
  /// Seed of the shared arrival/selection stream. Per-job streams are
  /// seeded independently at AddJob.
  uint64_t seed = 1;
  /// Record per-job trace events (kTaskAccepted / kRepetitionCompleted /
  /// kTaskCompleted).
  bool record_trace = true;
};

Status ValidateSharedMarketConfig(const SharedMarketConfig& config);

/// Cumulative dispatch counts since construction. Like MarketEventCounts,
/// deliberately NOT part of the captured state: counters are diagnostics
/// and excluding them keeps capture/restore about simulation state only.
struct SharedMarketCounts {
  uint64_t worker_arrivals = 0;
  uint64_t acceptances = 0;
  uint64_t completions = 0;
  uint64_t tasks_posted = 0;
  uint64_t reprices = 0;
};

/// Largest weight (curve rate) a posted repetition may carry, 2^20.
inline constexpr double kMaxSharedWeight = 0x1p20;
/// A market holds fewer open tasks than this, 2^22. With kMaxSharedWeight
/// it bounds every sum of weight units below 2^62.
inline constexpr size_t kMaxOpenSharedTasks = size_t{1} << 22;

/// Multi-job discrete-event engine: competing tuning jobs post repetitions
/// onto ONE marketplace whose single Poisson worker stream is split across
/// them by acceptance thinning (SharedArrivalStream). Each arriving worker
/// accepts at most one on-hold repetition, chosen proportionally to its
/// weight curve->Rate(price) — so one job raising its price drains every
/// rival's effective acceptance rate through the shared denominator, with
/// no explicit coupling between jobs.
///
/// Determinism contract (the platform service's bitwise-resume guarantee
/// is built on it):
///  - Candidate order is jobs in ascending id, then each job's open tasks
///    in ascending task id (= posting order).
///  - Weights live on a grid of 2^-20: a repetition posted at `price`
///    weighs llround(curve->Rate(price) * 2^20) integer units. PostTask,
///    Reprice and RestoreState refuse a price whose rate is negative, not
///    finite, above kMaxSharedWeight, or positive but below half a unit
///    (it would round to zero and never be accepted). With fewer than
///    kMaxOpenSharedTasks open tasks every unit sum stays below 2^62, so
///    int64 sums never overflow.
///  - Each job keeps its tasks in a TaskStore, and the units of every task
///    id it has posted (0 while the task is processed and once it
///    completed) under eight-way block sums spanning those ids, with an
///    exact int64 total. A completed id adds 0 to every prefix, and
///    integer sums do not depend on their order, so a running and a
///    restored engine give the same totals and prefixes; no sum order
///    needs pinning.
///  - Selection: W is the left-to-right double sum over jobs of their
///    totals, each read as units * 2^-20; the threshold and the walk over
///    jobs are double arithmetic on those totals. Inside the chosen job
///    the task is the first id whose unit prefix exceeds
///    floor(local * 2^20), found by descending the block sums; when
///    rounding puts the local coordinate on the job's total, it is the
///    first id whose prefix reaches the total. While W stays below 2^33
///    every job total and every partial sum of W is exact, so this is bit
///    for bit the selection a float left-to-right walk over the same grid
///    weights makes.
///  - RNG streams: the shared stream owns the arrival clock and selection
///    uniforms (two draws per arrival, independent of who competes); each
///    job owns a private stream for its answer-error and processing-time
///    draws, so one job's acceptance pattern never perturbs another job's
///    draw sequence.
///  - CaptureState/RestoreState round-trips the complete dynamic state;
///    a restored engine continues bitwise-identically to the captured one
///    (same completions, same times, same traces).
class SharedMarket {
 public:
  explicit SharedMarket(const SharedMarketConfig& config);
  ~SharedMarket();

  SharedMarket(const SharedMarket&) = delete;
  SharedMarket& operator=(const SharedMarket&) = delete;

  /// Registers a competing job. Ids must be added in strictly ascending
  /// order (they define the candidate walk); `seed` starts the job's
  /// private RNG stream.
  Status AddJob(uint64_t job_id, uint64_t seed);

  /// Posts one task for `job_id`: one sequential repetition per entry of
  /// `rep_prices` (each >= 1, with curve->Rate(price) in the weight range
  /// of the determinism contract), processed at `processing_rate` once
  /// accepted. Returns the job-local task id (1-based, dense).
  /// FailedPrecondition if the market already holds kMaxOpenSharedTasks - 1
  /// open tasks.
  StatusOr<TaskId> PostTask(uint64_t job_id, const std::vector<int>& rep_prices,
                            double processing_rate, int true_answer = 0,
                            int num_options = 2);

  /// Changes the payment of the exposed (or next) and all later
  /// repetitions of an open task; an accepted repetition keeps the price
  /// it was accepted at. InvalidArgument for a price below 1 or one whose curve
  /// rate is outside the weight range, NotFound for unknown ids,
  /// FailedPrecondition once the task completed.
  Status Reprice(uint64_t job_id, TaskId task, int new_price);

  /// Runs until every posted task of every job completed or the next
  /// event would land past `deadline`. Returns open tasks remaining.
  size_t RunUntil(double deadline);

  /// Runs until all posted tasks complete; Internal if the simulation
  /// exceeds a safety horizon (impossible acceptance configuration).
  Status RunToCompletion();

  double now() const { return now_; }
  size_t OpenTaskCount() const { return open_tasks_; }
  const SharedMarketCounts& Counts() const { return counts_; }

  /// Total posted weight W (left-to-right over per-job totals) — the
  /// saturation signal controllers feed into DilutedCurve.
  double TotalPostedWeight() const;

  /// Per-job views. All return NotFound/CHECK-fail free lookups: the job
  /// must exist (CHECK) since sessions address only jobs they created.
  const std::vector<TaskOutcome>& CompletedOutcomes(uint64_t job_id) const;
  long TotalSpent(uint64_t job_id) const;
  const std::vector<TraceEvent>& Trace(uint64_t job_id) const;
  size_t OpenTaskCount(uint64_t job_id) const;
  /// Ids of the job's open tasks, in posting order.
  std::vector<TaskId> OpenTaskIds(uint64_t job_id) const;

  /// An on-hold task as a straggler review reads it: what OnHoldSince and
  /// CurrentPrice return for it.
  struct OnHoldTask {
    TaskId id = 0;
    double since = 0.0;
    int price = 0;
  };
  /// The job's on-hold tasks in ascending id (the review-walk order), read
  /// in one pass over its task store.
  std::vector<OnHoldTask> OnHoldTasks(uint64_t job_id) const;

  /// Time the current repetition of the task was (re)posted;
  /// FailedPrecondition while it is being processed or after completion,
  /// NotFound for unknown ids.
  StatusOr<double> OnHoldSince(uint64_t job_id, TaskId task) const;
  /// Payment the current repetition promises (OpenTask::CurrentPrice):
  /// the exposed one's price while on hold, else the price the in-flight
  /// repetition was accepted at. FailedPrecondition for completed tasks,
  /// NotFound for unknown ids.
  StatusOr<int> CurrentPrice(uint64_t job_id, TaskId task) const;

  /// Serializes the complete dynamic state (shared stream, pending
  /// events, every job's tasks/outcomes/trace/RNG) into a deterministic
  /// byte string: equal states encode to equal bytes.
  std::string CaptureState() const;

  /// Restores a captured state, replacing all dynamic state. The engine
  /// must have been constructed with the same SharedMarketConfig and have
  /// no jobs added (restore recreates them). InvalidArgument on bytes the
  /// shape cannot satisfy.
  Status RestoreState(std::string_view bytes);

 private:
  struct SharedJob;

  SharedJob* FindJob(uint64_t job_id);
  const SharedJob* FindJob(uint64_t job_id) const;

  /// The integer weight units of a repetition posted at `price`.
  int64_t WeightUnits(int price) const;
  void Record(SharedJob& job, const TraceEvent& event);
  void StepArrival();
  void ApplyCompletion(const MarketEvent& event);

  SharedMarketConfig config_;  // HTUNE_TRANSIENT: construction-time config
  SharedArrivalStream stream_;
  CalendarEventQueue queue_;
  uint64_t event_sequence_ = 0;
  double now_ = 0.0;
  size_t open_tasks_ = 0;  // HTUNE_TRANSIENT: recounted during RestoreState
  std::vector<SharedJob> jobs_;  // ascending id — the candidate walk order
  SharedMarketCounts counts_;  // HTUNE_TRANSIENT: report-only tallies
};

}  // namespace htune

#endif  // HTUNE_PLATFORM_SHARED_MARKET_H_
