#ifndef HTUNE_MARKET_SIMULATOR_H_
#define HTUNE_MARKET_SIMULATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/statusor.h"
#include "market/event_queue.h"
#include "market/events.h"
#include "market/fault_schedule.h"
#include "market/rate_schedule.h"
#include "market/task.h"
#include "market/task_store.h"
#include "model/price_rate_curve.h"
#include "rng/random.h"

namespace htune {

/// Bit for `kind` in MarketConfig::trace_mask.
constexpr uint32_t TraceMaskBit(TraceEventKind kind) {
  return uint32_t{1} << static_cast<int>(kind);
}

/// Every TraceEventKind bit set: the full trace (the default).
inline constexpr uint32_t kTraceMaskAll = ~uint32_t{0};

/// Feature probe for tools built against multiple engine revisions (the
/// throughput bench compiles against pre-mask checkouts to capture
/// baselines).
#define HTUNE_MARKET_HAS_TRACE_MASK 1

/// Global marketplace parameters (the AMT stand-in).
struct MarketConfig {
  /// Poisson rate at which workers enter the marketplace (workers per unit
  /// time). Must exceed the on-hold rate of any posted task: a task's
  /// acceptance process is the arrival process thinned by the worker's
  /// price-dependent acceptance probability, so lambda_o <= arrival rate.
  double worker_arrival_rate = 100.0;
  /// Probability that a worker's answer is wrong (the HPU's "error-prone"
  /// trait). Applied per repetition.
  double worker_error_prob = 0.0;
  /// When > 0, workers are heterogeneous: each arriving worker draws a
  /// personal error probability from Beta(a, b) with mean
  /// a / (a + b) = worker_error_prob and "concentration"
  /// a + b = worker_error_concentration. 0 keeps the constant model.
  double worker_error_concentration = 0.0;
  /// Optional time-varying arrival intensity (daily/weekly workforce
  /// cycles). When set, workers arrive as a nonhomogeneous Poisson process
  /// with this intensity, while each worker's acceptance probability stays
  /// on_hold_rate / worker_arrival_rate — so a task's instantaneous
  /// acceptance rate scales with schedule(t) / worker_arrival_rate, and
  /// worker_arrival_rate acts as the calibration reference the tuner's
  /// rates were measured against.
  std::shared_ptr<const RateSchedule> arrival_schedule;
  /// Optional ground-truth price-to-rate mapping owned by the market. When
  /// set, PostTask and Reprice derive every repetition's on-hold rate from
  /// this curve and ignore caller-supplied rates — modeling the real
  /// situation where the requester only controls the price and may hold a
  /// stale estimate of the market's responsiveness.
  std::shared_ptr<const PriceRateCurve> true_curve;
  /// Worker abandonment ("return HIT"): with this probability an accepted
  /// repetition is never answered — the worker holds it for an
  /// Exp(abandon_hold_rate) time, then returns it. Nothing is paid and the
  /// repetition goes back on hold (kAbandoned then kReposted in the trace).
  /// 0 disables the fault and leaves the RNG stream untouched.
  double abandon_prob = 0.0;
  /// Rate of the exponential hold before an abandoning worker gives up.
  /// Must be positive when abandon_prob > 0.
  double abandon_hold_rate = 1.0;
  /// Optional scripted fault windows (demand outages, error bursts). The
  /// arrival factor composes multiplicatively with `arrival_schedule` (or
  /// the constant worker_arrival_rate); error overrides replace the worker
  /// error model inside their window.
  std::shared_ptr<const FaultSchedule> fault_schedule;
  /// PRNG seed; two simulators with equal configs and posting sequences
  /// produce identical traces.
  uint64_t seed = 1;
  /// If true, every event passing `trace_mask` is appended to the trace
  /// (Fig 3 uses this); large jobs may prefer to disable tracing.
  bool record_trace = true;
  /// Which TraceEventKinds to record (1 << kind per bit). The default
  /// records everything, preserving the historical full trace bitwise.
  /// Million-event runs typically drop the per-worker arrival firehose
  /// with `kTraceMaskAll & ~TraceMaskBit(TraceEventKind::kWorkerArrival)`
  /// while keeping every task-lifecycle record. Filtering changes only
  /// which records are appended — never the simulation's RNG stream.
  uint32_t trace_mask = kTraceMaskAll;
};

/// MarketSimulator's slot type: the engine-neutral OpenTask plus the
/// single-job engine's own terms.
struct SimulatorTask : OpenTask {
  /// The posted TaskSpec's remaining fields, kept as posted so a snapshot
  /// records the spec faithfully (the normalized rep_prices and rep_rates
  /// govern execution).
  int price_per_repetition = 1;
  double on_hold_rate = 1.0;
  std::vector<int> per_repetition_prices;
  std::vector<double> per_repetition_rates;
  std::shared_ptr<const PriceRateCurve> true_curve;
  double acceptance_timeout = 0.0;
  /// Normalized per-repetition on-hold rates (scalar spec expanded).
  std::vector<double> rep_rates;
  /// Effective market-behaviour curve (task override or market global);
  /// null when the caller's explicit rates govern.
  std::shared_ptr<const PriceRateCurve> effective_curve;
  /// Bumped on every (re)exposure; invalidates stale expiry events.
  uint64_t exposure_generation = 0;
  /// Terms set by the latest Reprice (or -1 when never repriced): an
  /// abandoned repetition is re-exposed at these, not at the terms the
  /// abandoning worker accepted under.
  int reprice_price = -1;
  double reprice_rate = 0.0;

  void ResetForReuse() {
    OpenTask::ResetForReuse();
    price_per_repetition = 1;
    on_hold_rate = 1.0;
    per_repetition_prices.clear();
    per_repetition_rates.clear();
    true_curve.reset();
    acceptance_timeout = 0.0;
    rep_rates.clear();
    effective_curve.reset();
    exposure_generation = 0;
    reprice_price = -1;
    reprice_rate = 0.0;
  }
};

/// Complete dynamic state of a MarketSimulator as plain serializable data,
/// for checkpoint/restore (src/durability). The MarketConfig is NOT part of
/// the state: recovery reconstructs the simulator from the same config the
/// original run was started with (configs come from code or a job spec, not
/// from the snapshot), then restores this state into it. Curves referenced
/// by open tasks are encoded as indices into a caller-supplied table of
/// shared curve objects, since arbitrary PriceRateCurve implementations are
/// not serializable (see MarketState::kCurve* sentinels).
struct MarketState {
  /// Curve reference encoding used by `Task::spec_curve` /
  /// `Task::effective_curve`.
  static constexpr int32_t kCurveNone = 0;     ///< no curve (null)
  static constexpr int32_t kCurveMarket = 1;   ///< the config's true_curve
  static constexpr int32_t kCurveTableBase = 2;  ///< table[i] at 2 + i

  /// Mirror of MarketEvent. CaptureState emits events in the canonical
  /// (time, sequence) order, the snapshot wire order. RestoreState accepts
  /// any permutation: the event queue's pop order depends only on the set
  /// of events, not on their submission order.
  struct Event {
    double time = 0.0;
    uint64_t sequence = 0;
    TaskId task = 0;
    uint8_t kind = 0;  // MarketEvent::Kind
    uint64_t generation = 0;
  };

  /// Mirror of SimulatorTask. `repetitions` and `next_repetition` keep
  /// their place in the frozen layout: capture writes rep_prices.size()
  /// and 0, and restore requires the former.
  struct Task {
    TaskId id = 0;
    // TaskSpec fields (scalar price/rate retained for faithfulness even
    // though the normalized per-repetition vectors govern execution).
    int price_per_repetition = 1;
    int repetitions = 1;
    double on_hold_rate = 1.0;
    std::vector<int> spec_prices;
    std::vector<double> spec_rates;
    int32_t spec_curve = kCurveNone;
    double processing_rate = 1.0;
    double acceptance_timeout = 0.0;
    int true_answer = 0;
    int num_options = 2;
    // Task state.
    std::vector<int> rep_prices;
    std::vector<double> rep_rates;
    int32_t effective_curve = kCurveNone;
    TaskOutcome outcome;
    int next_repetition = 0;
    bool awaiting_acceptance = true;
    double current_posted_time = 0.0;
    uint64_t exposure_generation = 0;
    int reprice_price = -1;
    double reprice_rate = 0.0;
  };

  double now = 0.0;
  double next_arrival_time = 0.0;
  uint64_t next_worker = 0;
  TaskId next_task = 1;
  uint64_t event_sequence = 0;
  long total_spent = 0;
  Random::State rng;
  std::vector<Event> events;
  std::vector<Task> open_tasks;
  /// Completed outcomes in completion order, which RestoreState requires.
  /// `completion_order` repeats their ids in the same order; it keeps its
  /// place in the frozen layout, and restore requires it to match.
  std::vector<TaskOutcome> completed;
  std::vector<TaskId> completion_order;
  std::vector<TraceEvent> trace;
};

/// Cumulative dispatch counts maintained by the simulator since
/// construction. Plain integers bumped inline on the hot event loop — the
/// market layer stays free of any observability dependency; controllers and
/// the CLI publish these to obs gauges at phase boundaries. Deliberately NOT
/// part of MarketState: counters are diagnostics, and excluding them keeps
/// the capture/restore bitwise-identity contract about simulation state
/// only.
struct MarketEventCounts {
  uint64_t events_dispatched = 0;  ///< total MarketEvents applied
  uint64_t completions = 0;        ///< kCompletion events applied
  uint64_t abandons = 0;           ///< kAbandon events applied
  uint64_t expiries = 0;           ///< live kExpiry events applied
  uint64_t stale_expiries = 0;     ///< kExpiry no-ops (stale generation)
  uint64_t worker_arrivals = 0;    ///< worker-arrival steps taken
  uint64_t tasks_posted = 0;       ///< successful PostTask calls
  uint64_t reprices = 0;           ///< successful Reprice calls
};

/// Discrete-event simulator of a crowdsourcing marketplace implementing the
/// paper's stochastic model end-to-end: Poisson worker arrivals (§3.1.1),
/// price-thinned task acceptance (§3.1.2), exponential processing times
/// (§3.2), and error-prone answers. The acceptance process of each open
/// repetition is an independent thinning of the arrival stream, so its law
/// is Exp(lambda_o) exactly as the model assumes — but realized worker by
/// worker, which lets experiments observe arrival epochs (Fig 3) and
/// non-asymptotic effects.
///
/// Engine layout (see DESIGN.md §11): tasks live in a dense slot store with
/// an O(1) id index and a sorted on-hold index, pending events in a
/// calendar queue, and the per-arrival acceptance scan batches its uniform
/// draws — all bitwise-identical in observable behaviour to the original
/// map-and-heap engine (the golden-trace suite pins that equivalence).
class MarketSimulator {
 public:
  explicit MarketSimulator(const MarketConfig& config);

  MarketSimulator(const MarketSimulator&) = delete;
  MarketSimulator& operator=(const MarketSimulator&) = delete;

  /// Posts a task at the current simulated time. Returns its id, or
  /// InvalidArgument / FailedPrecondition on a bad spec (non-positive rates,
  /// price < 1, on_hold_rate > worker_arrival_rate).
  StatusOr<TaskId> PostTask(const TaskSpec& spec);

  /// Changes the payment of the currently exposed and all future
  /// repetitions of an open task (already-accepted repetitions keep their
  /// original terms; if the current repetition is on hold, the new rate
  /// applies immediately — well-defined by memorylessness). The new on-hold
  /// rate comes from the market's true_curve when configured; otherwise
  /// `new_on_hold_rate` must be supplied and positive. NotFound for unknown
  /// ids, FailedPrecondition for completed tasks.
  Status Reprice(TaskId id, int new_price, double new_on_hold_rate = 0.0);

  /// Runs until every posted task has completed or simulated time exceeds
  /// `deadline`. Returns the number of tasks still open at return.
  size_t RunUntil(double deadline);

  /// Runs until all posted tasks complete. Returns FailedPrecondition if no
  /// tasks are open and Internal if the simulation exceeds an internal
  /// safety horizon (which indicates an impossible acceptance rate).
  Status RunToCompletion();

  /// Current simulated time.
  double now() const { return now_; }

  /// Outcome of task `id`, as a copy; NotFound if unknown,
  /// FailedPrecondition if still incomplete. Prefer GetOutcomeView on
  /// polling paths — a TaskOutcome owns a vector per repetition.
  StatusOr<TaskOutcome> GetOutcome(TaskId id) const;

  /// Copy-free variant of GetOutcome: a pointer into the completed store,
  /// valid until the simulator is mutated (run/post/reprice/restore).
  StatusOr<const TaskOutcome*> GetOutcomeView(TaskId id) const;

  /// Snapshot of task `id`'s progress, complete or not: the outcome so far,
  /// with completed_time == 0 while the task is still open (abandoned
  /// attempts and expired posts are reflected as they happen). NotFound if
  /// unknown.
  StatusOr<TaskOutcome> GetProgress(TaskId id) const;

  /// Copy-free variant of GetProgress: a pointer into the live task (or
  /// completed store), valid until the simulator is mutated.
  StatusOr<const TaskOutcome*> GetProgressView(TaskId id) const;

  /// Time the currently exposed repetition of `id` was (re)posted, i.e. how
  /// long it has been waiting is now() - OnHoldSince(id). FailedPrecondition
  /// when the current repetition is being processed or the task completed;
  /// NotFound for unknown ids. Controllers use this to spot stragglers.
  StatusOr<double> OnHoldSince(TaskId id) const;

  /// Payment the current repetition of `id` promises
  /// (OpenTask::CurrentPrice): the exposed one's price while on hold, else
  /// the price the in-flight repetition was accepted at.
  /// FailedPrecondition for completed tasks, NotFound otherwise.
  StatusOr<int> CurrentPrice(TaskId id) const;

  /// Outcomes of all completed tasks, in completion order. The reference
  /// is into the simulator's own store (no copy); it is invalidated by
  /// RestoreState and grows as tasks complete.
  const std::vector<TaskOutcome>& CompletedOutcomes() const;

  /// Number of workers who have arrived so far.
  uint64_t workers_arrived() const { return next_worker_; }

  /// Number of posted tasks not yet completed.
  size_t OpenTaskCount() const { return tasks_.open_count(); }

  /// The recorded event trace (empty when record_trace is false; filtered
  /// by MarketConfig::trace_mask).
  const std::vector<TraceEvent>& trace() const { return trace_; }

  /// Total payment units spent on completed repetitions so far.
  long TotalSpent() const { return total_spent_; }

  /// Cumulative event-dispatch counts since construction (not part of
  /// MarketState; a restored simulator keeps its own counts).
  const MarketEventCounts& EventCounts() const { return event_counts_; }

  /// Captures the complete dynamic state for a checkpoint. `curve_table`
  /// must contain (by pointer identity) every curve referenced by an open
  /// task that is neither null nor the config's own true_curve; an
  /// unmatchable curve is an InvalidArgument, since a restore could never
  /// rebuild it. Controllers pass the same table they post tasks with.
  StatusOr<MarketState> CaptureState(
      const std::vector<std::shared_ptr<const PriceRateCurve>>& curve_table)
      const;

  /// Restores a captured state, replacing all dynamic state of this
  /// simulator. The simulator must have been constructed with the same
  /// MarketConfig as the one the state was captured from, and `curve_table`
  /// must resolve the state's curve indices. A restored simulator continues
  /// bitwise-identically to the captured one. InvalidArgument on indices or
  /// shapes the state cannot satisfy.
  Status RestoreState(
      const MarketState& state,
      const std::vector<std::shared_ptr<const PriceRateCurve>>& curve_table);

 private:
  void PushEvent(const MarketEvent& event) { queue_.Push(event); }

  void Record(const TraceEvent& event);
  /// Samples the next worker arrival epoch after `after` (homogeneous, or
  /// thinned against the joint schedule x fault envelope when either is
  /// configured).
  double SampleArrivalAfter(double after);
  /// Advances to the next worker arrival and lets that worker consider every
  /// repetition awaiting acceptance (via the on-hold index, in TaskId
  /// order — the same draw order as the historical full-map scan).
  void StepWorkerArrival();
  /// Applies the event at the head of the event queue.
  void ApplyEvent(const MarketEvent& event);
  /// Puts the current repetition of `task` (back) on hold at time `t`,
  /// arming the acceptance-timeout clock. `reposted` records a kReposted
  /// trace event (abandonment / expiry recovery). `already_on_hold` is set
  /// on the expiry path, where the task never left the on-hold index (and
  /// its cached acceptance probability is already current).
  void ExposeCurrentRepetition(TaskId id, SimulatorTask& task, double t,
                               bool reposted, bool already_on_hold);

  MarketConfig config_;
  Random rng_;
  double now_ = 0.0;
  double next_arrival_time_;
  uint64_t next_worker_ = 0;
  TaskId next_task_ = 1;
  uint64_t event_sequence_ = 0;
  long total_spent_ = 0;
  TaskStore<SimulatorTask> tasks_;
  CalendarEventQueue queue_;
  std::vector<TraceEvent> trace_;
  // HTUNE_TRANSIENT: report-only event tallies, reset on resume
  MarketEventCounts event_counts_;
  /// Reusable scratch: PostTask validates per-repetition rates into this
  /// before committing a slot; the arrival scan collects accepted on-hold
  /// positions. Both keep their capacity across calls.
  std::vector<double> rate_buf_;  // HTUNE_TRANSIENT: scratch, capacity only
  std::vector<uint32_t> accepted_positions_;  // HTUNE_TRANSIENT: scratch
};

}  // namespace htune

#endif  // HTUNE_MARKET_SIMULATOR_H_
