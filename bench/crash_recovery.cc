// Crash-recovery bench: measures the overhead of journaling a fault-
// tolerant run and the cost of recovering it after simulated kills at
// increasing points of progress. Writes a real file-backed journal (path =
// argv[1], default ./crash_recovery.journal) and leaves the completed
// journal on disk so `htune_cli inspect verify` can check it — CI does
// exactly that.
//
// Correctness is asserted, not just measured: every recovered run must
// reproduce the uninterrupted run's report and journal bytes exactly.

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/report.h"
#include "common/check.h"
#include "control/fault_tolerant_executor.h"
#include "durability/journal.h"
#include "market/fault_schedule.h"
#include "market/simulator.h"
#include "model/price_rate_curve.h"
#include "tuning/repetition_allocator.h"

namespace {

double Seconds(std::chrono::steady_clock::time_point begin,
               std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

struct Scenario {
  htune::TuningProblem problem;
  std::vector<htune::QuestionSpec> questions;
  htune::MarketConfig market;
  htune::FaultTolerantConfig config;
};

Scenario MakeScenario() {
  Scenario s;
  htune::TaskGroup g;
  g.name = "vote";
  g.num_tasks = 16;
  g.repetitions = 4;
  g.processing_rate = 5.0;
  g.curve = std::make_shared<htune::LinearCurve>(1.0, 1.0);
  s.problem.groups = {g};
  s.problem.budget = 420;
  s.questions.assign(static_cast<size_t>(s.problem.TotalTasks()),
                     htune::QuestionSpec{});

  s.market.worker_arrival_rate = 150.0;
  s.market.worker_error_prob = 0.15;
  s.market.abandon_prob = 0.15;
  s.market.abandon_hold_rate = 2.0;
  const auto outage = htune::FaultSchedule::Create({{0.6, 1.8, 0.05, -1.0}});
  HTUNE_CHECK(outage.ok());
  s.market.fault_schedule =
      std::make_shared<htune::FaultSchedule>(*outage);
  s.market.seed = 20260806;
  s.market.record_trace = true;

  s.config.review_interval = 0.2;
  s.config.straggler_quantile = 0.9;
  s.config.budget = 560;
  s.config.acceptance_timeout = 1.0;
  s.config.abandonment = {0.15, 2.0};
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  htune::bench::Banner(
      "crash_recovery",
      "DESIGN.md §7 durability: journal overhead and recovery cost of the "
      "fault-tolerant executor under simulated kills");
  const std::string path =
      argc > 1 ? argv[1] : std::string("crash_recovery.journal");

  const Scenario s = MakeScenario();
  const htune::RepetitionAllocator allocator;
  const htune::FaultTolerantExecutor executor(&allocator, s.config);

  // Plain (non-durable) run for the overhead baseline.
  const auto t0 = std::chrono::steady_clock::now();
  htune::MarketSimulator plain_market(s.market);
  const auto plain = executor.Run(plain_market, s.problem, s.questions);
  HTUNE_CHECK(plain.ok());
  const auto t1 = std::chrono::steady_clock::now();

  // Uninterrupted durable run with a real file journal.
  htune::FileJournalStorage storage(path);
  HTUNE_CHECK(storage.Truncate(0).ok());
  htune::DurabilityConfig durability;
  durability.storage = &storage;
  durability.snapshot_interval = 4;
  const auto t2 = std::chrono::steady_clock::now();
  const auto baseline =
      executor.RunDurable(s.market, s.problem, s.questions, durability);
  HTUNE_CHECK(baseline.ok());
  const auto t3 = std::chrono::steady_clock::now();
  HTUNE_CHECK(baseline->spent == plain->spent);
  HTUNE_CHECK(baseline->latency == plain->latency);

  const auto journal = storage.Load();
  HTUNE_CHECK(journal.ok());
  const auto contents = htune::ScanJournal(*journal);
  HTUNE_CHECK(contents.ok());
  size_t snapshots = 0;
  for (const htune::JournalRecord& r : contents->records) {
    if (r.type == htune::JournalRecordType::kSnapshot) ++snapshots;
  }
  std::printf(
      "\nscenario: %d tasks x %d reps, outage + abandonment market\n"
      "plain run      %8.1f ms\n"
      "durable run    %8.1f ms  (journal: %zu records, %zu snapshots, "
      "%zu bytes)\n",
      s.problem.groups[0].num_tasks, s.problem.groups[0].repetitions,
      Seconds(t0, t1) * 1e3, Seconds(t2, t3) * 1e3,
      contents->records.size(), snapshots, journal->size());

  // Kill at 10%..90% of journal progress, recover, verify equality.
  std::printf("\n-- recovery after a kill at p%% of journal progress --\n");
  std::printf("%8s %12s %14s %12s\n", "p", "torn bytes", "recovery ms",
              "identical");
  const std::string crash_path = path + ".crash";
  for (int pct = 10; pct <= 90; pct += 20) {
    const uint64_t torn =
        static_cast<uint64_t>(journal->size()) * pct / 100;
    htune::FileJournalStorage crashed(crash_path);
    HTUNE_CHECK(crashed.Truncate(0).ok());
    HTUNE_CHECK(crashed.Append(journal->substr(0, torn)).ok());
    const auto r0 = std::chrono::steady_clock::now();
    const auto recovered =
        [&] {
          htune::DurabilityConfig d;
          d.storage = &crashed;
          d.snapshot_interval = 4;
          return executor.RunDurable(s.market, s.problem, s.questions, d);
        }();
    const auto r1 = std::chrono::steady_clock::now();
    HTUNE_CHECK(recovered.ok());
    const auto final_bytes = crashed.Load();
    HTUNE_CHECK(final_bytes.ok());
    const bool identical = recovered->spent == baseline->spent &&
                           recovered->latency == baseline->latency &&
                           *final_bytes == *journal;
    std::printf("%7d%% %12llu %14.1f %12s\n", pct,
                static_cast<unsigned long long>(torn),
                Seconds(r0, r1) * 1e3, identical ? "yes" : "NO");
    HTUNE_CHECK(identical);
  }
  std::remove(crash_path.c_str());

  std::printf("\ncompleted journal left at %s (verify with htune_cli "
              "inspect verify %s)\n",
              path.c_str(), path.c_str());
  return 0;
}
