#include "market/simulator.h"

#include <string>
#include <utility>

#include "common/check.h"

namespace htune {

std::string_view TraceEventKindToString(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kWorkerArrival:
      return "WORKER_ARRIVAL";
    case TraceEventKind::kTaskAccepted:
      return "TASK_ACCEPTED";
    case TraceEventKind::kRepetitionCompleted:
      return "REPETITION_COMPLETED";
    case TraceEventKind::kTaskCompleted:
      return "TASK_COMPLETED";
    case TraceEventKind::kAbandoned:
      return "ABANDONED";
    case TraceEventKind::kExpired:
      return "EXPIRED";
    case TraceEventKind::kReposted:
      return "REPOSTED";
  }
  return "UNKNOWN";
}

MarketSimulator::MarketSimulator(const MarketConfig& config)
    : config_(config), rng_(config.seed) {
  HTUNE_CHECK_GT(config.worker_arrival_rate, 0.0);
  HTUNE_CHECK_GE(config.worker_error_prob, 0.0);
  HTUNE_CHECK_LE(config.worker_error_prob, 1.0);
  HTUNE_CHECK_GE(config.worker_error_concentration, 0.0);
  if (config.worker_error_concentration > 0.0) {
    // Beta parameters must both be positive: a heterogeneous error model
    // needs a mean strictly inside (0, 1).
    HTUNE_CHECK_GT(config.worker_error_prob, 0.0);
    HTUNE_CHECK_LT(config.worker_error_prob, 1.0);
  }
  HTUNE_CHECK_GE(config.abandon_prob, 0.0);
  HTUNE_CHECK_LE(config.abandon_prob, 1.0);
  if (config.abandon_prob > 0.0) {
    HTUNE_CHECK_GT(config.abandon_hold_rate, 0.0);
  }
  if (config.record_trace) {
    trace_.reserve(1024);
  }
  next_arrival_time_ = SampleArrivalAfter(0.0);
}

double MarketSimulator::SampleArrivalAfter(double after) {
  const RateSchedule* schedule = config_.arrival_schedule.get();
  const FaultSchedule* faults = config_.fault_schedule.get();
  if (schedule == nullptr && faults == nullptr) {
    return after + rng_.Exponential(config_.worker_arrival_rate);
  }
  // Nonhomogeneous Poisson via thinning against the joint envelope: the
  // cycle's max rate times the largest fault multiplier (>= 1, so a pure
  // outage script still thins against the nominal rate).
  const double base_max =
      schedule != nullptr ? schedule->MaxRate() : config_.worker_arrival_rate;
  const double envelope =
      base_max * (faults != nullptr ? faults->MaxArrivalFactor() : 1.0);
  double t = after;
  while (true) {
    t += rng_.Exponential(envelope);
    const double base =
        schedule != nullptr ? schedule->RateAt(t) : config_.worker_arrival_rate;
    const double factor = faults != nullptr ? faults->ArrivalFactorAt(t) : 1.0;
    if (rng_.Bernoulli(base * factor / envelope)) {
      return t;
    }
  }
}

void MarketSimulator::Record(const TraceEvent& event) {
  if (config_.record_trace &&
      ((config_.trace_mask >> static_cast<int>(event.kind)) & 1u) != 0) {
    trace_.push_back(event);
  }
}

StatusOr<TaskId> MarketSimulator::PostTask(const TaskSpec& spec) {
  if (spec.repetitions < 1) {
    return InvalidArgumentError("PostTask: repetitions must be >= 1");
  }
  if (spec.processing_rate <= 0.0) {
    return InvalidArgumentError("PostTask: processing_rate must be positive");
  }
  const double max_error_prob =
      config_.fault_schedule != nullptr
          ? config_.fault_schedule->MaxErrorProb(config_.worker_error_prob)
          : config_.worker_error_prob;
  if (spec.num_options < 2 && max_error_prob > 0.0) {
    return InvalidArgumentError(
        "PostTask: need >= 2 answer options when workers can err");
  }
  if (spec.acceptance_timeout < 0.0) {
    return InvalidArgumentError(
        "PostTask: acceptance_timeout must be >= 0 (0 disables expiry)");
  }
  if (spec.true_answer < 0 || spec.true_answer >= spec.num_options) {
    return InvalidArgumentError("PostTask: true_answer outside option range");
  }
  // Validate the normalized per-repetition prices/rates without building
  // them yet: a rejected spec must not allocate a task slot.
  const size_t reps = static_cast<size_t>(spec.repetitions);
  if (!spec.per_repetition_prices.empty() &&
      spec.per_repetition_prices.size() != reps) {
    return InvalidArgumentError(
        "PostTask: per_repetition_prices size must equal repetitions");
  }
  if (!spec.per_repetition_rates.empty() &&
      spec.per_repetition_rates.size() != reps) {
    return InvalidArgumentError(
        "PostTask: per_repetition_rates size must equal repetitions");
  }
  if (spec.per_repetition_prices.empty()) {
    if (spec.price_per_repetition < 1) {
      return InvalidArgumentError("PostTask: every price must be >= 1");
    }
  } else {
    for (int price : spec.per_repetition_prices) {
      if (price < 1) {
        return InvalidArgumentError("PostTask: every price must be >= 1");
      }
    }
  }
  // When the market (or the task's type) owns the ground-truth curve, the
  // requester only sets prices; rates follow the market's behaviour, not
  // the caller's belief.
  const std::shared_ptr<const PriceRateCurve> effective_curve =
      spec.true_curve != nullptr ? spec.true_curve : config_.true_curve;
  rate_buf_.resize(reps);  // scratch: the validated per-repetition rates
  for (size_t i = 0; i < reps; ++i) {
    double rate;
    if (effective_curve != nullptr) {
      const int price = spec.per_repetition_prices.empty()
                            ? spec.price_per_repetition
                            : spec.per_repetition_prices[i];
      rate = effective_curve->Rate(static_cast<double>(price));
    } else {
      rate = spec.per_repetition_rates.empty() ? spec.on_hold_rate
                                               : spec.per_repetition_rates[i];
    }
    if (rate <= 0.0) {
      return InvalidArgumentError("PostTask: every on-hold rate must be > 0");
    }
    if (rate > config_.worker_arrival_rate) {
      return FailedPreconditionError(
          "PostTask: on_hold_rate exceeds worker arrival rate; the thinned "
          "acceptance process cannot be faster than arrivals");
    }
    rate_buf_[i] = rate;
  }

  const TaskId id = next_task_++;
  SimulatorTask& task = tasks_.Insert(id);
  task.processing_rate = spec.processing_rate;
  task.true_answer = spec.true_answer;
  task.num_options = spec.num_options;
  task.price_per_repetition = spec.price_per_repetition;
  task.on_hold_rate = spec.on_hold_rate;
  task.per_repetition_prices = spec.per_repetition_prices;
  task.per_repetition_rates = spec.per_repetition_rates;
  task.true_curve = spec.true_curve;
  task.acceptance_timeout = spec.acceptance_timeout;
  if (spec.per_repetition_prices.empty()) {
    task.rep_prices.assign(reps, spec.price_per_repetition);
  } else {
    task.rep_prices = spec.per_repetition_prices;
  }
  task.rep_rates.assign(rate_buf_.begin(), rate_buf_.end());
  task.effective_curve = effective_curve;
  task.outcome.id = id;
  task.outcome.posted_time = now_;
  ++event_counts_.tasks_posted;
  ExposeCurrentRepetition(id, task, now_, /*reposted=*/false,
                          /*already_on_hold=*/false);
  return id;
}

void MarketSimulator::ExposeCurrentRepetition(TaskId id, SimulatorTask& task,
                                              double t, bool reposted,
                                              bool already_on_hold) {
  task.Expose(t);
  ++task.exposure_generation;
  const size_t rep_slot = task.outcome.repetitions.size();
  if (reposted) {
    ++task.outcome.reposted_posts;
    Record({t, TraceEventKind::kReposted, 0, id,
            static_cast<int>(rep_slot) + 1});
  }
  if (!already_on_hold) {
    // The expiry path re-exposes a repetition that never left the on-hold
    // index (and whose cached probability is already current).
    tasks_.AddOnHold(id,
                     task.rep_rates[rep_slot] / config_.worker_arrival_rate);
  }
  if (task.acceptance_timeout > 0.0) {
    PushEvent({t + task.acceptance_timeout, event_sequence_++, id,
               MarketEvent::Kind::kExpiry, task.exposure_generation});
  }
}

void MarketSimulator::StepWorkerArrival() {
  now_ = next_arrival_time_;
  ++event_counts_.worker_arrivals;
  next_arrival_time_ = SampleArrivalAfter(now_);
  const WorkerId worker = next_worker_++;
  Record({now_, TraceEventKind::kWorkerArrival, worker, 0, 0});
  // The worker's personal reliability: fixed market-wide, or drawn from a
  // Beta distribution when heterogeneity is configured. An error-burst
  // window overrides the result wholesale (the burst's spammers are not the
  // regular population).
  double worker_error =
      config_.worker_error_concentration > 0.0
          ? rng_.Beta(config_.worker_error_prob *
                          config_.worker_error_concentration,
                      (1.0 - config_.worker_error_prob) *
                          config_.worker_error_concentration)
          : config_.worker_error_prob;
  if (config_.fault_schedule != nullptr) {
    worker_error = config_.fault_schedule->ErrorProbAt(now_, worker_error);
  }

  // The worker considers every repetition awaiting acceptance
  // independently: acceptance with probability lambda_o / arrival_rate
  // thins the Poisson arrival stream into an Exp(lambda_o) acceptance
  // process per task, exactly the model of §3.1.2. (A worker may accept
  // several distinct tasks, as real workers serially accept multiple HITs.)
  // The on-hold index supplies the candidates in TaskId order — the same
  // Bernoulli draw order as the historical scan over the full task map.
  const size_t n = tasks_.on_hold_count();
  if (n == 0) return;
  const TaskId* ids = tasks_.on_hold_ids();
  const double* probs = tasks_.on_hold_probs();
  // With every probability strictly inside (0, 1), each Bernoulli consumes
  // exactly one uniform, so the scan can draw inline against the raw
  // probability array — same bit patterns in the same order as the scalar
  // Bernoulli loop, minus its clamping branches. A saturated entry
  // (prob >= 1) accepts without consuming a draw, so its presence forces
  // the general loop to keep the stream identical.
  const bool all_probs_draw = tasks_.saturated_count() == 0;
  accepted_positions_.clear();
  for (size_t i = 0; i < n; ++i) {
    const bool accepted =
        all_probs_draw ? rng_.Uniform() < probs[i] : rng_.Bernoulli(probs[i]);
    if (!accepted) continue;
    const TaskId id = ids[i];
    SimulatorTask& task = tasks_.on_hold_task(i);
    accepted_positions_.push_back(static_cast<uint32_t>(i));
    // The answer is decided by the accepting worker; it is revealed (and
    // recorded) when processing finishes.
    const int rep_index = task.Accept(now_, worker, rng_, worker_error);
    Record({now_, TraceEventKind::kTaskAccepted, worker, id, rep_index});

    // Decide at acceptance whether this worker will answer or abandon (the
    // gate keeps the RNG stream identical to the fault-free simulator when
    // abandonment is disabled).
    const bool abandons =
        config_.abandon_prob > 0.0 && rng_.Bernoulli(config_.abandon_prob);
    if (abandons) {
      const double hold = rng_.Exponential(config_.abandon_hold_rate);
      PushEvent({now_ + hold, event_sequence_++, id,
                 MarketEvent::Kind::kAbandon, 0});
    } else {
      const double processing = rng_.Exponential(task.processing_rate);
      PushEvent({now_ + processing, event_sequence_++, id,
                 MarketEvent::Kind::kCompletion, 0});
    }
  }
  // The loop never mutates the on-hold arrays (acceptance only flips task
  // state and schedules events), so the accepted positions stay valid for
  // one compaction pass here.
  if (!accepted_positions_.empty()) {
    tasks_.RemoveOnHoldPositions(accepted_positions_);
  }
}

void MarketSimulator::ApplyEvent(const MarketEvent& event) {
  now_ = event.time;
  ++event_counts_.events_dispatched;
  SimulatorTask* found = tasks_.FindOpen(event.task);
  if (event.kind == MarketEvent::Kind::kExpiry) {
    // Expiry events may be stale: the task completed, a worker accepted the
    // exposed repetition, or it was already reposted (new generation).
    if (found == nullptr) {
      ++event_counts_.stale_expiries;
      return;
    }
    SimulatorTask& task = *found;
    if (!task.awaiting_acceptance ||
        event.generation != task.exposure_generation) {
      ++event_counts_.stale_expiries;
      return;
    }
    ++event_counts_.expiries;
    ++task.outcome.expired_posts;
    const int rep_index =
        static_cast<int>(task.outcome.repetitions.size()) + 1;
    Record({now_, TraceEventKind::kExpired, 0, event.task, rep_index});
    ExposeCurrentRepetition(event.task, task, now_, /*reposted=*/true,
                            /*already_on_hold=*/true);
    return;
  }

  HTUNE_CHECK(found != nullptr);
  SimulatorTask& task = *found;

  if (event.kind == MarketEvent::Kind::kAbandon) {
    // The worker returns the repetition unanswered: drop the attempt, pay
    // nothing, and put the repetition back on hold at the task's current
    // terms (a later Reprice supersedes the abandoned promise).
    ++event_counts_.abandons;
    const RepetitionOutcome attempt = task.outcome.repetitions.back();
    task.outcome.repetitions.pop_back();
    ++task.outcome.abandoned_attempts;
    const size_t slot = task.outcome.repetitions.size();
    if (task.reprice_price > 0) {
      task.rep_prices[slot] = task.reprice_price;
      task.rep_rates[slot] = task.reprice_rate;
    }
    Record({now_, TraceEventKind::kAbandoned, attempt.worker, event.task,
            static_cast<int>(slot) + 1});
    ExposeCurrentRepetition(event.task, task, now_, /*reposted=*/true,
                            /*already_on_hold=*/false);
    return;
  }

  ++event_counts_.completions;
  total_spent_ += task.FinishRepetition(now_);
  const int rep_index = static_cast<int>(task.outcome.repetitions.size());
  Record({now_, TraceEventKind::kRepetitionCompleted,
          task.outcome.repetitions.back().worker, event.task, rep_index});
  if (task.AllAccepted()) {
    Record({now_, TraceEventKind::kTaskCompleted, 0, event.task, rep_index});
    tasks_.Complete(event.task);
    return;
  }
  // Expose the next repetition: sequential submission (§4.3).
  ExposeCurrentRepetition(event.task, task, now_, /*reposted=*/false,
                          /*already_on_hold=*/false);
}

Status MarketSimulator::Reprice(TaskId id, int new_price,
                                double new_on_hold_rate) {
  if (new_price < 1) {
    return InvalidArgumentError("Reprice: price must be >= 1");
  }
  HTUNE_ASSIGN_OR_RETURN(SimulatorTask* const found,
                         tasks_.GetOpen(id, "Reprice"));
  SimulatorTask& task = *found;
  double rate = new_on_hold_rate;
  if (task.effective_curve != nullptr) {
    rate = task.effective_curve->Rate(static_cast<double>(new_price));
  }
  if (rate <= 0.0) {
    return InvalidArgumentError(
        "Reprice: need a positive on-hold rate (or a market true_curve)");
  }
  if (rate > config_.worker_arrival_rate) {
    return FailedPreconditionError(
        "Reprice: on-hold rate exceeds worker arrival rate");
  }
  // While on hold, the current slot (= repetitions.size()) takes the new
  // terms; while processing, the accepted repetition keeps its promise and
  // only later slots change (but if the in-flight attempt is abandoned, its
  // slot is re-exposed at the repriced terms).
  const size_t first = task.outcome.repetitions.size();
  for (size_t r = first; r < task.rep_prices.size(); ++r) {
    task.rep_prices[r] = new_price;
    task.rep_rates[r] = rate;
  }
  task.SyncCurrentPrice();
  task.reprice_price = new_price;
  task.reprice_rate = rate;
  if (task.awaiting_acceptance) {
    tasks_.UpdateOnHoldProb(id, rate / config_.worker_arrival_rate);
  }
  ++event_counts_.reprices;
  return OkStatus();
}

size_t MarketSimulator::RunUntil(double deadline) {
  while (tasks_.open_count() > 0) {
    const bool has_event = !queue_.empty();
    const double event_time = has_event ? queue_.Min().time : 0.0;
    if (has_event && event_time <= next_arrival_time_) {
      if (event_time > deadline) break;
      ApplyEvent(queue_.Pop());
    } else {
      if (next_arrival_time_ > deadline) break;
      StepWorkerArrival();
    }
  }
  if (deadline > now_) {
    now_ = deadline;
  }
  return tasks_.open_count();
}

Status MarketSimulator::RunToCompletion() {
  if (tasks_.open_count() == 0) {
    return FailedPreconditionError("RunToCompletion: no open tasks");
  }
  // Safety valve: with sane rates a job finishes long before this many
  // events; hitting the cap means a posted rate is effectively zero (or an
  // acceptance timeout is reposting a starved repetition forever).
  constexpr uint64_t kMaxEvents = 200'000'000;
  uint64_t events = 0;
  while (tasks_.open_count() > 0) {
    if (++events > kMaxEvents) {
      const TaskId stuck_id = tasks_.LowestOpenId();
      const SimulatorTask& stuck = *tasks_.FindOpen(stuck_id);
      return InternalError(
          "RunToCompletion: event horizon exceeded at t=" +
          std::to_string(now_) + "; task " + std::to_string(stuck_id) +
          " is still open on repetition " +
          std::to_string(stuck.outcome.repetitions.size() + 1) + " of " +
          std::to_string(stuck.rep_prices.size()) + " (" +
          std::to_string(tasks_.open_count()) +
          " open tasks total) — a posted rate is effectively zero");
    }
    if (!queue_.empty() && queue_.Min().time <= next_arrival_time_) {
      ApplyEvent(queue_.Pop());
    } else {
      StepWorkerArrival();
    }
  }
  return OkStatus();
}

StatusOr<TaskOutcome> MarketSimulator::GetOutcome(TaskId id) const {
  HTUNE_ASSIGN_OR_RETURN(const TaskOutcome* outcome, GetOutcomeView(id));
  return *outcome;
}

StatusOr<const TaskOutcome*> MarketSimulator::GetOutcomeView(
    TaskId id) const {
  const TaskOutcome* done = tasks_.FindCompleted(id);
  if (done != nullptr) {
    return done;
  }
  if (tasks_.FindOpen(id) != nullptr) {
    return FailedPreconditionError("GetOutcome: task not yet complete");
  }
  return NotFoundError("GetOutcome: unknown task id");
}

StatusOr<double> MarketSimulator::OnHoldSince(TaskId id) const {
  HTUNE_ASSIGN_OR_RETURN(const SimulatorTask* const open,
                         tasks_.GetOpen(id, "OnHoldSince"));
  if (!open->awaiting_acceptance) {
    return FailedPreconditionError(
        "OnHoldSince: current repetition is being processed");
  }
  return open->current_posted_time;
}

StatusOr<int> MarketSimulator::CurrentPrice(TaskId id) const {
  HTUNE_ASSIGN_OR_RETURN(const SimulatorTask* const open,
                         tasks_.GetOpen(id, "CurrentPrice"));
  return open->CurrentPrice();
}

StatusOr<TaskOutcome> MarketSimulator::GetProgress(TaskId id) const {
  HTUNE_ASSIGN_OR_RETURN(const TaskOutcome* outcome, GetProgressView(id));
  return *outcome;
}

StatusOr<const TaskOutcome*> MarketSimulator::GetProgressView(
    TaskId id) const {
  const OpenTask* open = tasks_.FindOpen(id);
  if (open != nullptr) {
    return &open->outcome;
  }
  const TaskOutcome* done = tasks_.FindCompleted(id);
  if (done != nullptr) {
    return done;
  }
  return NotFoundError("GetProgress: unknown task id");
}

const std::vector<TaskOutcome>& MarketSimulator::CompletedOutcomes() const {
  return tasks_.completed();
}

namespace {

/// Maps a task's curve pointer to its MarketState index (pointer identity:
/// the controller posts tasks with curves from its own table, so the same
/// shared object is found again at capture time).
StatusOr<int32_t> CurveToIndex(
    const std::shared_ptr<const PriceRateCurve>& curve,
    const std::shared_ptr<const PriceRateCurve>& market_curve,
    const std::vector<std::shared_ptr<const PriceRateCurve>>& table) {
  if (curve == nullptr) return MarketState::kCurveNone;
  if (curve == market_curve) return MarketState::kCurveMarket;
  for (size_t i = 0; i < table.size(); ++i) {
    if (table[i] == curve) {
      return static_cast<int32_t>(MarketState::kCurveTableBase + i);
    }
  }
  return InvalidArgumentError(
      "CaptureState: open task references a curve outside the curve table");
}

StatusOr<std::shared_ptr<const PriceRateCurve>> CurveFromIndex(
    int32_t index, const std::shared_ptr<const PriceRateCurve>& market_curve,
    const std::vector<std::shared_ptr<const PriceRateCurve>>& table) {
  if (index == MarketState::kCurveNone) {
    return std::shared_ptr<const PriceRateCurve>();
  }
  if (index == MarketState::kCurveMarket) {
    if (market_curve == nullptr) {
      return InvalidArgumentError(
          "RestoreState: state references the market true_curve but the "
          "config has none");
    }
    return market_curve;
  }
  const int64_t slot = static_cast<int64_t>(index) -
                       MarketState::kCurveTableBase;
  if (slot < 0 || slot >= static_cast<int64_t>(table.size()) ||
      table[static_cast<size_t>(slot)] == nullptr) {
    return InvalidArgumentError("RestoreState: curve index " +
                                std::to_string(index) +
                                " outside the curve table");
  }
  return table[static_cast<size_t>(slot)];
}

}  // namespace

StatusOr<MarketState> MarketSimulator::CaptureState(
    const std::vector<std::shared_ptr<const PriceRateCurve>>& curve_table)
    const {
  MarketState state;
  state.now = now_;
  state.next_arrival_time = next_arrival_time_;
  state.next_worker = next_worker_;
  state.next_task = next_task_;
  state.event_sequence = event_sequence_;
  state.total_spent = total_spent_;
  state.rng = rng_.SaveState();
  const std::vector<MarketEvent> events = queue_.SortedSnapshot();
  state.events.reserve(events.size());
  for (const MarketEvent& event : events) {
    state.events.push_back({event.time, event.sequence, event.task,
                            static_cast<uint8_t>(event.kind),
                            event.generation});
  }
  state.open_tasks.reserve(tasks_.open_count());
  Status capture_status = OkStatus();
  tasks_.ForEachOpenInIdOrder([&](TaskId id, const SimulatorTask& task) {
    if (!capture_status.ok()) return;
    MarketState::Task t;
    t.id = id;
    t.price_per_repetition = task.price_per_repetition;
    t.repetitions = static_cast<int>(task.rep_prices.size());
    t.on_hold_rate = task.on_hold_rate;
    t.spec_prices = task.per_repetition_prices;
    t.spec_rates = task.per_repetition_rates;
    StatusOr<int32_t> spec_curve =
        CurveToIndex(task.true_curve, config_.true_curve, curve_table);
    if (!spec_curve.ok()) {
      capture_status = spec_curve.status();
      return;
    }
    t.spec_curve = *spec_curve;
    t.processing_rate = task.processing_rate;
    t.acceptance_timeout = task.acceptance_timeout;
    t.true_answer = task.true_answer;
    t.num_options = task.num_options;
    t.rep_prices = task.rep_prices;
    t.rep_rates = task.rep_rates;
    StatusOr<int32_t> effective_curve =
        CurveToIndex(task.effective_curve, config_.true_curve, curve_table);
    if (!effective_curve.ok()) {
      capture_status = effective_curve.status();
      return;
    }
    t.effective_curve = *effective_curve;
    t.outcome = task.outcome;
    t.awaiting_acceptance = task.awaiting_acceptance;
    t.current_posted_time = task.current_posted_time;
    t.exposure_generation = task.exposure_generation;
    t.reprice_price = task.reprice_price;
    t.reprice_rate = task.reprice_rate;
    state.open_tasks.push_back(std::move(t));
  });
  HTUNE_RETURN_IF_ERROR(capture_status);
  state.completed = tasks_.completed();
  state.completion_order.reserve(state.completed.size());
  for (const TaskOutcome& outcome : state.completed) {
    state.completion_order.push_back(outcome.id);
  }
  state.trace = trace_;
  return state;
}

Status MarketSimulator::RestoreState(
    const MarketState& state,
    const std::vector<std::shared_ptr<const PriceRateCurve>>& curve_table) {
  // Structural validation first so a failed restore leaves the simulator
  // untouched: a fresh TaskStore is built off to the side and only
  // move-assigned over the live one once everything checks out.
  // In every reachable state the id space [1, next_task) is exactly the
  // open and completed sets combined; checking it up front also bounds the
  // id-index allocation against hostile snapshot blobs.
  if (state.next_task < 1 ||
      state.next_task - 1 !=
          state.open_tasks.size() + state.completed.size()) {
    return InvalidArgumentError(
        "RestoreState: task id space does not match the open and completed "
        "sets");
  }
  TaskStore<SimulatorTask> store;
  store.PrepareForRestore(state.next_task);
  RestoreAudit audit("RestoreState");
  for (const MarketState::Task& t : state.open_tasks) {
    const size_t reps = static_cast<size_t>(t.repetitions);
    if (t.repetitions < 1 || t.rep_prices.size() != reps ||
        t.rep_rates.size() != reps) {
      return InvalidArgumentError(
          "RestoreState: task repetition shape is inconsistent");
    }
    SimulatorTask* task = store.InsertForRestore(t.id);
    if (task == nullptr) {
      return InvalidArgumentError("RestoreState: duplicate open task id");
    }
    task->price_per_repetition = t.price_per_repetition;
    task->on_hold_rate = t.on_hold_rate;
    task->per_repetition_prices = t.spec_prices;
    task->per_repetition_rates = t.spec_rates;
    HTUNE_ASSIGN_OR_RETURN(
        task->true_curve,
        CurveFromIndex(t.spec_curve, config_.true_curve, curve_table));
    task->processing_rate = t.processing_rate;
    task->acceptance_timeout = t.acceptance_timeout;
    task->true_answer = t.true_answer;
    task->num_options = t.num_options;
    task->rep_prices = t.rep_prices;
    task->rep_rates = t.rep_rates;
    HTUNE_ASSIGN_OR_RETURN(
        task->effective_curve,
        CurveFromIndex(t.effective_curve, config_.true_curve, curve_table));
    task->outcome = t.outcome;
    task->awaiting_acceptance = t.awaiting_acceptance;
    task->current_posted_time = t.current_posted_time;
    task->exposure_generation = t.exposure_generation;
    task->reprice_price = t.reprice_price;
    task->reprice_rate = t.reprice_rate;
    HTUNE_RETURN_IF_ERROR(audit.AddTask(*task));
    task->RebuildTransient();
  }
  // Completed outcomes come in completion order, as CaptureState writes
  // them.
  if (state.completion_order.size() != state.completed.size()) {
    return InvalidArgumentError(
        "RestoreState: completion order does not match completed set");
  }
  for (size_t i = 0; i < state.completed.size(); ++i) {
    if (state.completion_order[i] != state.completed[i].id ||
        !store.AddCompletedForRestore(state.completed[i])) {
      return InvalidArgumentError(
          "RestoreState: completed outcomes must be distinct posted tasks "
          "in completion order");
    }
  }
  // A completion or abandon settles a processing task's in-flight
  // repetition; an expiry may be stale (ApplyEvent skips it).
  std::vector<MarketEvent> events;
  events.reserve(state.events.size());
  for (const MarketState::Event& event : state.events) {
    const auto kind = static_cast<MarketEvent::Kind>(event.kind);
    if (event.kind > static_cast<uint8_t>(MarketEvent::Kind::kExpiry)) {
      return InvalidArgumentError("RestoreState: unknown event kind");
    }
    if (kind != MarketEvent::Kind::kExpiry) {
      HTUNE_RETURN_IF_ERROR(audit.AddSettle(store.FindOpen(event.task)));
    }
    events.push_back({event.time, event.sequence, event.task, kind,
                      event.generation});
  }
  HTUNE_RETURN_IF_ERROR(audit.Finish());

  now_ = state.now;
  next_arrival_time_ = state.next_arrival_time;
  next_worker_ = state.next_worker;
  next_task_ = state.next_task;
  event_sequence_ = state.event_sequence;
  total_spent_ = state.total_spent;
  rng_.RestoreState(state.rng);
  queue_.Assign(std::move(events));
  tasks_ = std::move(store);
  // Rebuild the on-hold index (not serialized: it is derivable state).
  tasks_.ForEachOpenInIdOrder([&](TaskId id, const SimulatorTask& task) {
    if (task.awaiting_acceptance) {
      tasks_.AddOnHold(id,
                       task.rep_rates[task.outcome.repetitions.size()] /
                           config_.worker_arrival_rate);
    }
  });
  trace_ = state.trace;
  return OkStatus();
}

}  // namespace htune
