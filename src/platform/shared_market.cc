#include "platform/shared_market.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "durability/records.h"
#include "durability/serialize.h"
#include "durability/snapshot.h"
#include "market/task_store.h"

namespace htune {

namespace {

/// Snapshot header: version bumps on any layout change (no cross-version
/// decoding — platform snapshots live inside one service journal whose
/// writer and reader always ship together).
constexpr uint32_t kSharedMarketStateVersion = 1;

/// Safety horizon for RunToCompletion, in worker arrivals. Far above any
/// legitimate run (the 1k-job bench stays under ten million); only an
/// impossible configuration (all weights zero forever) can reach it.
constexpr uint64_t kMaxArrivalsPerRun = 500'000'000;

/// One weight unit, and units per unit of curve rate (the grid of the
/// determinism contract). Multiplying by either is exact.
constexpr double kUnitWeight = 0x1p-20;
constexpr double kUnitsPerWeight = 0x1p20;

/// Checks a repetition price entering the market. Its weight must round
/// to a whole number of units that the int64 sums can hold, and to 0 only
/// for a zero rate, so a curve rate outside {0} and [half a unit,
/// kMaxSharedWeight] (NaN included) is refused before the price can be
/// posted.
Status CheckRepPrice(const PriceRateCurve& curve, int price) {
  if (price < 1) {
    return InvalidArgumentError(
        "SharedMarket: repetition prices must be >= 1, got " +
        std::to_string(price));
  }
  const double weight = curve.Rate(static_cast<double>(price));
  if (!(weight == 0.0 ||
        (weight >= 0.5 * kUnitWeight && weight <= kMaxSharedWeight))) {
    return InvalidArgumentError(
        "SharedMarket: curve rate " + std::to_string(weight) + " at price " +
        std::to_string(price) + " is neither 0 nor in [2^-21, 2^20]");
  }
  return OkStatus();
}


}  // namespace

struct SharedMarket::SharedJob {
  uint64_t id = 0;
  Random rng;
  /// Every task the job posted: open ones by id, completed outcomes in
  /// completion order.
  TaskStore<OpenTask> tasks;
  long spent = 0;
  /// Per posted task, at index id - 1: the weight units of the current
  /// price while the task is on hold, 0 while it is processed or once it
  /// completed. Its size is the number of ids handed out.
  std::vector<int64_t> hold;  // HTUNE_TRANSIENT: rebuilt from tasks on restore
  /// Block sums over `hold`: sums[0][i] sums hold[8i, 8i + 8), and each
  /// further level sums the one below in blocks of eight, up to a top
  /// level of at most eight entries. A selection scans one block per
  /// level, so it reads a cache line or two per level where a binary tree
  /// reads a node per bit of the id.
  std::vector<std::vector<int64_t>> sums;  // HTUNE_TRANSIENT: BuildSums
  /// Sum of `hold`.
  int64_t total = 0;  // HTUNE_TRANSIENT: BuildSums on restore
  std::vector<TraceEvent> trace;

  static constexpr size_t kBlock = 8;

  explicit SharedJob(uint64_t job_id, uint64_t seed)
      : id(job_id), rng(seed) {}

  /// The id the next posted task gets.
  TaskId NextTask() const { return hold.size() + 1; }

  /// The job's total weight; exact while the total is below 2^53 units.
  double Weight() const { return static_cast<double>(total) * kUnitWeight; }

  /// The highest level: `hold` itself until it passes kBlock entries.
  const std::vector<int64_t>& Top() const {
    return sums.empty() ? hold : sums.back();
  }

  /// The sums of `level` in blocks of kBlock.
  static std::vector<int64_t> BlockSums(const std::vector<int64_t>& level) {
    std::vector<int64_t> blocks((level.size() + kBlock - 1) / kBlock, 0);
    for (size_t i = 0; i < level.size(); ++i) {
      blocks[i / kBlock] += level[i];
    }
    return blocks;
  }

  /// Adds an entry holding `units` behind the last one, in O(log n).
  void Append(int64_t units) {
    size_t i = hold.size();
    hold.push_back(units);
    for (std::vector<int64_t>& level : sums) {
      i /= kBlock;
      if (i == level.size()) {
        level.push_back(units);
      } else {
        level[i] += units;
      }
    }
    if (Top().size() > kBlock) {
      sums.push_back(BlockSums(Top()));
    }
    total += units;
  }

  void SetHold(TaskId task, int64_t units) {
    size_t i = task - 1;
    const int64_t delta = units - hold[i];
    hold[i] = units;
    for (std::vector<int64_t>& level : sums) {
      i /= kBlock;
      level[i] += delta;
    }
    total += delta;
  }

  /// Rebuilds `sums` and `total` from `hold` in O(n).
  void BuildSums() {
    sums.clear();
    while (Top().size() > kBlock) {
      sums.push_back(BlockSums(Top()));
    }
    total = 0;
    for (const int64_t units : hold) {
      total += units;
    }
  }

  /// The first task id whose prefix sum of `hold` exceeds `target` (>= 0),
  /// or NextTask() if none does: from the top level down, the block entry
  /// whose running sum first exceeds what is left of `target`. Weights
  /// are non-negative, so prefixes ascend and a 0 entry is never first.
  TaskId FirstAbove(int64_t target) const {
    size_t block = 0;
    for (size_t level = sums.size() + 1; level-- > 0;) {
      const std::vector<int64_t>& entries =
          level == 0 ? hold : sums[level - 1];
      size_t i = block * kBlock;
      const size_t end = std::min(i + kBlock, entries.size());
      while (i < end && entries[i] <= target) {
        target -= entries[i];
        ++i;
      }
      if (i == end) {
        return NextTask();  // only at the top: target >= total
      }
      block = i;
    }
    return block + 1;
  }
};

Status ValidateSharedMarketConfig(const SharedMarketConfig& config) {
  if (!(config.worker_arrival_rate > 0.0) ||
      !std::isfinite(config.worker_arrival_rate)) {
    return InvalidArgumentError(
        "SharedMarketConfig: worker_arrival_rate must be positive and "
        "finite");
  }
  if (std::isnan(config.worker_error_prob) || config.worker_error_prob < 0.0 ||
      config.worker_error_prob > 1.0) {
    return InvalidArgumentError(
        "SharedMarketConfig: worker_error_prob must lie in [0, 1]");
  }
  if (config.curve == nullptr) {
    return InvalidArgumentError(
        "SharedMarketConfig: a shared price-rate curve is required");
  }
  return OkStatus();
}

SharedMarket::SharedMarket(const SharedMarketConfig& config)
    : config_(config),
      stream_(config.worker_arrival_rate, config.seed) {
  HTUNE_CHECK(ValidateSharedMarketConfig(config).ok());
}

SharedMarket::~SharedMarket() = default;

SharedMarket::SharedJob* SharedMarket::FindJob(uint64_t job_id) {
  for (SharedJob& job : jobs_) {
    if (job.id == job_id) {
      return &job;
    }
  }
  return nullptr;
}

const SharedMarket::SharedJob* SharedMarket::FindJob(uint64_t job_id) const {
  for (const SharedJob& job : jobs_) {
    if (job.id == job_id) {
      return &job;
    }
  }
  return nullptr;
}

Status SharedMarket::AddJob(uint64_t job_id, uint64_t seed) {
  if (!jobs_.empty() && jobs_.back().id >= job_id) {
    return InvalidArgumentError(
        "SharedMarket: job ids must be added in strictly ascending order "
        "(got " + std::to_string(job_id) + " after " +
        std::to_string(jobs_.back().id) + ")");
  }
  jobs_.emplace_back(SharedJob(job_id, seed));
  return OkStatus();
}

int64_t SharedMarket::WeightUnits(int price) const {
  return static_cast<int64_t>(std::llround(
      config_.curve->Rate(static_cast<double>(price)) * kUnitsPerWeight));
}

void SharedMarket::Record(SharedJob& job, const TraceEvent& event) {
  if (config_.record_trace) {
    job.trace.push_back(event);
  }
}

StatusOr<TaskId> SharedMarket::PostTask(uint64_t job_id,
                                        const std::vector<int>& rep_prices,
                                        double processing_rate,
                                        int true_answer, int num_options) {
  SharedJob* job = FindJob(job_id);
  if (job == nullptr) {
    return NotFoundError("SharedMarket: unknown job " +
                         std::to_string(job_id));
  }
  if (rep_prices.empty()) {
    return InvalidArgumentError("SharedMarket: a task needs >= 1 repetition");
  }
  for (const int price : rep_prices) {
    HTUNE_RETURN_IF_ERROR(CheckRepPrice(*config_.curve, price));
  }
  if (!(processing_rate > 0.0) || !std::isfinite(processing_rate)) {
    return InvalidArgumentError(
        "SharedMarket: processing_rate must be positive and finite");
  }
  if (num_options < 2 || true_answer < 0 || true_answer >= num_options) {
    return InvalidArgumentError(
        "SharedMarket: true_answer must name one of >= 2 options");
  }
  if (open_tasks_ + 1 >= kMaxOpenSharedTasks) {
    return FailedPreconditionError(
        "SharedMarket: a market holds fewer than " +
        std::to_string(kMaxOpenSharedTasks) + " open tasks");
  }
  const TaskId id = job->NextTask();
  OpenTask& task = job->tasks.Insert(id);
  task.processing_rate = processing_rate;
  task.true_answer = true_answer;
  task.num_options = num_options;
  task.rep_prices = rep_prices;
  task.outcome.id = id;
  task.outcome.posted_time = now_;
  task.Expose(now_);
  job->Append(WeightUnits(rep_prices.front()));
  ++open_tasks_;
  ++counts_.tasks_posted;
  return id;
}

Status SharedMarket::Reprice(uint64_t job_id, TaskId task_id, int new_price) {
  SharedJob* job = FindJob(job_id);
  if (job == nullptr) {
    return NotFoundError("SharedMarket: unknown job " +
                         std::to_string(job_id));
  }
  if (new_price < 1) {
    return InvalidArgumentError("SharedMarket: reprice below 1 unit");
  }
  HTUNE_RETURN_IF_ERROR(CheckRepPrice(*config_.curve, new_price));
  HTUNE_ASSIGN_OR_RETURN(OpenTask* const task,
                         job->tasks.GetOpen(task_id, "SharedMarket"));
  // The current exposure and everything after it re-post at the new
  // price. An accepted (in-flight) repetition keeps its terms: it pays, and
  // CurrentPrice reports, its accepted price. Starting at CurrentSlot still
  // rewrites its rep_prices entry, which nothing reads again; snapshots
  // (and so the pinned transcripts) carry those bytes, so the range stays.
  for (size_t i = task->CurrentSlot(); i < task->rep_prices.size(); ++i) {
    task->rep_prices[i] = new_price;
  }
  task->SyncCurrentPrice();
  if (task->awaiting_acceptance) {
    job->SetHold(task_id, WeightUnits(new_price));
  }
  ++counts_.reprices;
  return OkStatus();
}

double SharedMarket::TotalPostedWeight() const {
  double total = 0.0;
  for (const SharedJob& job : jobs_) {
    total += job.Weight();
  }
  return total;
}

void SharedMarket::StepArrival() {
  const SharedArrivalStream::Draw draw = stream_.StepDraw();
  now_ = draw.time;
  ++counts_.worker_arrivals;

  // W over per-job totals, left to right in job order — the outer level
  // of the hierarchical candidate walk.
  const double total = TotalPostedWeight();
  const double threshold =
      draw.selector *
      (total > config_.worker_arrival_rate ? total
                                           : config_.worker_arrival_rate);
  if (threshold >= total || total <= 0.0) {
    return;  // the worker walks away (unsaturated headroom)
  }

  // Select the job by cumulative total, then the task inside it by
  // cumulative weight. Float rounding in threshold - cumulative can push
  // the local coordinate onto (not inside) the job's total, so both steps
  // fall back to the last live candidate — a deterministic tie-break.
  SharedJob* selected_job = nullptr;
  double local = 0.0;
  double cumulative = 0.0;
  SharedJob* last_live = nullptr;
  for (SharedJob& job : jobs_) {
    const double weight = job.Weight();
    if (weight <= 0.0) {
      continue;
    }
    last_live = &job;
    if (threshold < cumulative + weight) {
      selected_job = &job;
      local = threshold - cumulative;
      break;
    }
    cumulative += weight;
  }
  if (selected_job == nullptr) {
    selected_job = last_live;
    local = selected_job->Weight();
  }

  // The selected task is the first whose prefix, read as a weight,
  // exceeds `local`. Prefixes are whole units, and scaling by 2^20 is
  // exact, so that is the first prefix above floor(local * 2^20); `local`
  // is non-negative, so the cast floors. The fallback is the first task
  // reaching the job's total: the last on-hold task with a weight.
  SharedJob& job = *selected_job;
  TaskId selected =
      job.FirstAbove(static_cast<int64_t>(local * kUnitsPerWeight));
  if (selected == job.NextTask()) {
    selected = job.FirstAbove(job.total - 1);
  }
  HTUNE_CHECK(job.hold[selected - 1] > 0);

  // Acceptance: the worker takes this repetition. Answer decided now from
  // the job's private stream (DrawAnswer's draws, then the processing
  // Exponential — a fixed draw order).
  OpenTask& task = *job.tasks.FindOpen(selected);
  const int rep_index =
      task.Accept(now_, draw.worker, job.rng, config_.worker_error_prob);
  job.SetHold(selected, 0);
  ++counts_.acceptances;
  Record(job, {now_, TraceEventKind::kTaskAccepted, draw.worker, selected,
               rep_index});

  const double processing = job.rng.Exponential(task.processing_rate);
  queue_.Push({now_ + processing, event_sequence_++, selected,
                MarketEvent::Kind::kCompletion, job.id});
}

void SharedMarket::ApplyCompletion(const MarketEvent& event) {
  now_ = event.time;
  ++counts_.completions;
  SharedJob* job = FindJob(event.generation);
  HTUNE_CHECK(job != nullptr);
  OpenTask* task = job->tasks.FindOpen(event.task);
  HTUNE_CHECK(task != nullptr);

  job->spent += task->FinishRepetition(now_);
  const int rep_index = static_cast<int>(task->outcome.repetitions.size());
  Record(*job, {now_, TraceEventKind::kRepetitionCompleted,
                task->outcome.repetitions.back().worker, event.task,
                rep_index});

  if (task->AllAccepted()) {
    Record(*job, {now_, TraceEventKind::kTaskCompleted, 0, event.task,
                  rep_index});
    // The task's hold is already 0 (processing) and stays 0.
    job->tasks.Complete(event.task);
    --open_tasks_;
  } else {
    task->Expose(now_);
    job->SetHold(event.task, WeightUnits(task->CurrentPrice()));
  }
}

size_t SharedMarket::RunUntil(double deadline) {
  while (open_tasks_ > 0) {
    const double arrival = stream_.NextArrivalTime();
    if (!queue_.empty() && queue_.Min().time <= arrival) {
      if (queue_.Min().time > deadline) {
        break;
      }
      const MarketEvent event = queue_.Pop();
      ApplyCompletion(event);
    } else {
      if (arrival > deadline) {
        break;
      }
      StepArrival();
    }
  }
  return open_tasks_;
}

Status SharedMarket::RunToCompletion() {
  if (open_tasks_ == 0) {
    return FailedPreconditionError("SharedMarket: no open tasks to run");
  }
  const uint64_t start_arrivals = counts_.worker_arrivals;
  while (open_tasks_ > 0) {
    if (counts_.worker_arrivals - start_arrivals > kMaxArrivalsPerRun) {
      return InternalError(
          "SharedMarket: safety horizon exceeded (" +
          std::to_string(kMaxArrivalsPerRun) +
          " arrivals without completing the open tasks)");
    }
    const double arrival = stream_.NextArrivalTime();
    if (!queue_.empty() && queue_.Min().time <= arrival) {
      const MarketEvent event = queue_.Pop();
      ApplyCompletion(event);
    } else {
      StepArrival();
    }
  }
  return OkStatus();
}

const std::vector<TaskOutcome>& SharedMarket::CompletedOutcomes(
    uint64_t job_id) const {
  const SharedJob* job = FindJob(job_id);
  HTUNE_CHECK(job != nullptr);
  return job->tasks.completed();
}

long SharedMarket::TotalSpent(uint64_t job_id) const {
  const SharedJob* job = FindJob(job_id);
  HTUNE_CHECK(job != nullptr);
  return job->spent;
}

const std::vector<TraceEvent>& SharedMarket::Trace(uint64_t job_id) const {
  const SharedJob* job = FindJob(job_id);
  HTUNE_CHECK(job != nullptr);
  return job->trace;
}

size_t SharedMarket::OpenTaskCount(uint64_t job_id) const {
  const SharedJob* job = FindJob(job_id);
  HTUNE_CHECK(job != nullptr);
  return job->tasks.open_count();
}

std::vector<TaskId> SharedMarket::OpenTaskIds(uint64_t job_id) const {
  const SharedJob* job = FindJob(job_id);
  HTUNE_CHECK(job != nullptr);
  std::vector<TaskId> ids;
  ids.reserve(job->tasks.open_count());
  job->tasks.ForEachOpenInIdOrder(
      [&ids](TaskId id, const OpenTask&) { ids.push_back(id); });
  return ids;
}

std::vector<SharedMarket::OnHoldTask> SharedMarket::OnHoldTasks(
    uint64_t job_id) const {
  const SharedJob* job = FindJob(job_id);
  HTUNE_CHECK(job != nullptr);
  std::vector<OnHoldTask> on_hold;
  on_hold.reserve(job->tasks.open_count());
  job->tasks.ForEachOpenInIdOrder([&on_hold](TaskId id, const OpenTask& task) {
    if (task.awaiting_acceptance) {
      on_hold.push_back({id, task.current_posted_time, task.CurrentPrice()});
    }
  });
  return on_hold;
}

StatusOr<double> SharedMarket::OnHoldSince(uint64_t job_id,
                                           TaskId task_id) const {
  const SharedJob* job = FindJob(job_id);
  if (job == nullptr) {
    return NotFoundError("SharedMarket: unknown job " +
                         std::to_string(job_id));
  }
  HTUNE_ASSIGN_OR_RETURN(const OpenTask* const task,
                         job->tasks.GetOpen(task_id, "SharedMarket"));
  if (!task->awaiting_acceptance) {
    return FailedPreconditionError(
        "SharedMarket: task " + std::to_string(task_id) +
        " is being processed, not on hold");
  }
  return task->current_posted_time;
}

StatusOr<int> SharedMarket::CurrentPrice(uint64_t job_id,
                                         TaskId task_id) const {
  const SharedJob* job = FindJob(job_id);
  if (job == nullptr) {
    return NotFoundError("SharedMarket: unknown job " +
                         std::to_string(job_id));
  }
  HTUNE_ASSIGN_OR_RETURN(const OpenTask* const task,
                         job->tasks.GetOpen(task_id, "SharedMarket"));
  return task->CurrentPrice();
}

std::string SharedMarket::CaptureState() const {
  Encoder e;
  e.PutU32(kSharedMarketStateVersion);
  const SharedStreamState stream = stream_.CaptureState();
  e.PutDouble(stream.now);
  e.PutDouble(stream.next_arrival_time);
  e.PutU64(stream.arrivals);
  EncodeRngState(stream.rng, e);
  e.PutDouble(now_);
  e.PutU64(event_sequence_);

  const std::vector<MarketEvent> events = queue_.SortedSnapshot();
  e.PutU64(events.size());
  for (const MarketEvent& event : events) {
    EncodeEvent({event.time, event.sequence, event.task,
                 static_cast<uint8_t>(event.kind), event.generation},
                e);
  }

  e.PutU64(jobs_.size());
  for (const SharedJob& job : jobs_) {
    e.PutU64(job.id);
    EncodeRngState(job.rng.SaveState(), e);
    PutFields(e, job.NextTask(), int64_t{job.spent},
              uint64_t{job.tasks.open_count()});
    job.tasks.ForEachOpenInIdOrder([&e](TaskId id, const OpenTask& task) {
      PutFields(e, id, task.rep_prices, task.processing_rate,
                task.true_answer, task.num_options, task.awaiting_acceptance,
                task.current_posted_time);
      EncodeTaskOutcome(task.outcome, e);
    });
    e.PutU64(job.tasks.completed().size());
    for (const TaskOutcome& outcome : job.tasks.completed()) {
      EncodeTaskOutcome(outcome, e);
    }
    EncodeTraceEvents(job.trace, e);
  }
  return e.Release();
}

Status SharedMarket::RestoreState(std::string_view bytes) {
  Decoder d(bytes);
  uint32_t version = 0;
  HTUNE_RETURN_IF_ERROR(d.GetU32(&version));
  if (version != kSharedMarketStateVersion) {
    return InvalidArgumentError(
        "SharedMarket: unsupported snapshot version " +
        std::to_string(version));
  }
  SharedStreamState stream;
  HTUNE_RETURN_IF_ERROR(d.GetDouble(&stream.now));
  HTUNE_RETURN_IF_ERROR(d.GetDouble(&stream.next_arrival_time));
  HTUNE_RETURN_IF_ERROR(d.GetU64(&stream.arrivals));
  HTUNE_RETURN_IF_ERROR(DecodeRngState(d, stream.rng));
  double restored_now = 0.0;
  uint64_t event_sequence = 0;
  HTUNE_RETURN_IF_ERROR(d.GetDouble(&restored_now));
  HTUNE_RETURN_IF_ERROR(d.GetU64(&event_sequence));

  uint64_t event_count = 0;
  HTUNE_RETURN_IF_ERROR(d.GetU64(&event_count));
  if (event_count > d.remaining()) {
    return InvalidArgumentError("SharedMarket: corrupt event count");
  }
  std::vector<MarketState::Event> events(static_cast<size_t>(event_count));
  for (MarketState::Event& event : events) {
    HTUNE_RETURN_IF_ERROR(DecodeEvent(d, event));
  }

  uint64_t job_count = 0;
  HTUNE_RETURN_IF_ERROR(d.GetU64(&job_count));
  if (job_count > d.remaining()) {
    return InvalidArgumentError("SharedMarket: corrupt job count");
  }
  std::vector<SharedJob> jobs;
  jobs.reserve(static_cast<size_t>(job_count));
  size_t open_tasks = 0;
  RestoreAudit audit("SharedMarket");
  for (uint64_t i = 0; i < job_count; ++i) {
    uint64_t job_id = 0;
    HTUNE_RETURN_IF_ERROR(d.GetU64(&job_id));
    if (!jobs.empty() && jobs.back().id >= job_id) {
      return InvalidArgumentError(
          "SharedMarket: snapshot jobs out of order");
    }
    SharedJob job(job_id, /*seed=*/0);
    Random::State rng;
    HTUNE_RETURN_IF_ERROR(DecodeRngState(d, rng));
    job.rng.RestoreState(rng);
    uint64_t next_task = 0;
    int64_t spent = 0;
    uint64_t task_count = 0;
    HTUNE_RETURN_IF_ERROR(GetFields(d, next_task, spent, task_count));
    job.spent = static_cast<long>(spent);
    // Every id below next_task was posted and is encoded below, open or
    // completed, so a count past the remaining bytes is corrupt.
    if (next_task == 0 || next_task - 1 > d.remaining()) {
      return InvalidArgumentError("SharedMarket: corrupt next task id");
    }
    job.tasks.PrepareForRestore(next_task);
    job.hold.assign(static_cast<size_t>(next_task - 1), 0);
    if (task_count >= kMaxOpenSharedTasks - open_tasks) {
      return InvalidArgumentError(
          "SharedMarket: a market holds fewer than " +
          std::to_string(kMaxOpenSharedTasks) + " open tasks");
    }
    if (task_count > d.remaining()) {
      return InvalidArgumentError("SharedMarket: corrupt open-task count");
    }
    TaskId last_id = 0;
    for (uint64_t j = 0; j < task_count; ++j) {
      TaskId id = 0;
      HTUNE_RETURN_IF_ERROR(d.GetU64(&id));
      // Capture writes open tasks in ascending id, and every id was handed
      // out before next_task.
      OpenTask* task = id > last_id ? job.tasks.InsertForRestore(id) : nullptr;
      if (task == nullptr) {
        return InvalidArgumentError(
            "SharedMarket: snapshot open-task ids must ascend below "
            "next_task");
      }
      last_id = id;
      HTUNE_RETURN_IF_ERROR(GetFields(
          d, task->rep_prices, task->processing_rate, task->true_answer,
          task->num_options, task->awaiting_acceptance,
          task->current_posted_time));
      HTUNE_RETURN_IF_ERROR(DecodeTaskOutcome(d, task->outcome));
      HTUNE_RETURN_IF_ERROR(audit.AddTask(*task));
      task->RebuildTransient();
      for (const int price : task->rep_prices) {
        HTUNE_RETURN_IF_ERROR(CheckRepPrice(*config_.curve, price));
      }
      // The hold units are derived state: recompute from the curve, the
      // same call a continuously-running engine made at the last change.
      if (task->awaiting_acceptance) {
        job.hold[id - 1] = WeightUnits(task->CurrentPrice());
      }
    }
    open_tasks += job.tasks.open_count();

    uint64_t completed_count = 0;
    HTUNE_RETURN_IF_ERROR(d.GetU64(&completed_count));
    if (completed_count > d.remaining()) {
      return InvalidArgumentError("SharedMarket: corrupt completed count");
    }
    for (uint64_t j = 0; j < completed_count; ++j) {
      TaskOutcome outcome;
      HTUNE_RETURN_IF_ERROR(DecodeTaskOutcome(d, outcome));
      if (!job.tasks.AddCompletedForRestore(std::move(outcome))) {
        return InvalidArgumentError(
            "SharedMarket: snapshot completed-task ids must be posted, "
            "distinct and not open");
      }
    }
    HTUNE_RETURN_IF_ERROR(DecodeTraceEvents(d, job.trace));
    job.BuildSums();
    jobs.push_back(std::move(job));
  }
  HTUNE_RETURN_IF_ERROR(d.ExpectDone());

  // Every pending event is a completion, the settle event of a processing
  // task of a job in the snapshot (its generation carries the job id).
  std::vector<MarketEvent> pending;
  pending.reserve(events.size());
  for (const MarketState::Event& event : events) {
    const auto job = std::lower_bound(
        jobs.begin(), jobs.end(), event.generation,
        [](const SharedJob& j, uint64_t id) { return j.id < id; });
    const bool completion =
        event.kind == static_cast<uint8_t>(MarketEvent::Kind::kCompletion);
    HTUNE_RETURN_IF_ERROR(audit.AddSettle(
        completion && job != jobs.end() && job->id == event.generation
            ? job->tasks.FindOpen(event.task)
            : nullptr));
    pending.push_back({event.time, event.sequence, event.task,
                       MarketEvent::Kind::kCompletion, event.generation});
  }
  HTUNE_RETURN_IF_ERROR(audit.Finish());

  stream_.RestoreState(stream);
  now_ = restored_now;
  event_sequence_ = event_sequence;
  queue_.Assign(std::move(pending));
  jobs_ = std::move(jobs);
  open_tasks_ = open_tasks;
  return OkStatus();
}

}  // namespace htune
