// Tests for the fleet supervisor (src/fleet): admission control and
// shedding, restart policy, watchdog hang detection, the fleet breaker,
// the poison-job quarantine triplet (journal regressed below its durable
// mark, truncated manifest tail / orphan journal, divergent replay), and
// whole-fleet kill/recover with no re-execution of finished jobs. The
// journal pre-flight cases run through both RunAll and RunAllShared (with a
// scripted gang driver), which share one dispatch path.

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "durability/journal.h"
#include "durability/manifest.h"
#include "fleet/supervisor.h"
#include "gtest/gtest.h"
#include "resilience/fault_injector.h"
#include "spec/fleet_spec.h"

namespace htune {
namespace {

// Small enough that a 1000-job fleet stays fast, big enough to journal a
// few dozen records per run.
constexpr char kTinySpec[] =
    "budget = 8\n"
    "arrival_rate = 80\n"
    "[group]\n"
    "tasks = 2\n"
    "repetitions = 2\n"
    "processing_rate = 4.0\n"
    "curve = linear 1.0 1.0\n";

FleetJobSpec TinyJob(const std::string& name, int64_t seed) {
  FleetJobSpec spec;
  spec.name = name;
  spec.spec_text = kTinySpec;
  spec.seed_override = seed;
  spec.snapshot_interval = 4;
  return spec;
}

/// A scripted gang driver: every job ends with `status` and no journal
/// growth (OK completes it with a result derived from its spec), except
/// the `drop` jobs, which get no outcome at all.
class ScriptedDriver : public SharedJobDriver {
 public:
  Status status = OkStatus();
  std::set<uint64_t> drop;
  int rounds = 0;

  StatusOr<std::vector<JobOutcome>> RunJobs(
      std::vector<JobRun> runs) override {
    ++rounds;
    std::vector<JobOutcome> outcomes;
    for (const JobRun& run : runs) {
      if (drop.count(run.job_id) != 0) {
        continue;
      }
      JobOutcome out;
      out.job_id = run.job_id;
      out.status = status;
      out.journal_bytes = run.start_valid_bytes;
      out.result.report_bytes = run.spec.name;
      out.result.trace_bytes = std::to_string(run.spec.seed_override);
      outcomes.push_back(std::move(out));
    }
    return outcomes;
  }
};

/// Which FleetSupervisor runner executes the dispatched jobs.
enum class Runner { kLanes, kShared };

void PrintTo(Runner runner, std::ostream* os) {
  *os << (runner == Runner::kLanes ? "Lanes" : "Shared");
}

StatusOr<FleetRunStats> RunFleet(FleetSupervisor* fleet, Runner runner) {
  if (runner == Runner::kLanes) {
    return fleet->RunAll();
  }
  ScriptedDriver driver;
  return fleet->RunAllShared(&driver);
}

/// Runs a clean one-job fleet and returns its terminal manifest entry and
/// journal bytes — the fault-free reference for bitwise comparisons.
struct Reference {
  ManifestJobEntry entry;
  std::string journal;
  FleetJobResult result;
};

Reference RunReference(const FleetJobSpec& job,
                       Runner runner = Runner::kLanes) {
  InMemoryFleetStorage provider;
  FleetSupervisor fleet(&provider, FleetConfig{});
  EXPECT_TRUE(fleet.Open().ok());
  const auto id = fleet.Submit(job);
  EXPECT_TRUE(id.ok());
  const auto stats = RunFleet(&fleet, runner);
  EXPECT_TRUE(stats.ok());
  Reference ref;
  ref.entry = fleet.jobs().at(*id);
  EXPECT_EQ(ref.entry.state, FleetJobState::kDone);
  ref.journal = provider.Find(FleetJobJournalPath(*id))->bytes();
  ref.result = fleet.results().at(*id);
  return ref;
}

TEST(FleetSupervisorTest, RunsMixedFleetToCompletionDeterministically) {
  auto run_once = [](InMemoryFleetStorage* provider) {
    FleetConfig config;
    config.max_running = 3;
    FleetSupervisor fleet(provider, config);
    EXPECT_TRUE(fleet.Open().ok());
    for (int i = 0; i < 5; ++i) {
      EXPECT_TRUE(
          fleet.Submit(TinyJob("ft#" + std::to_string(i), 100 + i)).ok());
    }
    FleetJobSpec retune = TinyJob("retune", 200);
    retune.controller = FleetController::kAdaptiveRetuner;
    EXPECT_TRUE(fleet.Submit(retune).ok());
    const auto stats = fleet.RunAll();
    EXPECT_TRUE(stats.ok());
    EXPECT_EQ(stats->completed, 6);
    EXPECT_EQ(stats->dispatched, 6);
    std::vector<std::string> artifacts;
    for (const auto& [id, entry] : fleet.jobs()) {
      EXPECT_EQ(entry.state, FleetJobState::kDone) << entry.detail;
      const FleetJobResult& result = fleet.results().at(id);
      EXPECT_FALSE(result.report_bytes.empty());
      artifacts.push_back(result.report_bytes + result.trace_bytes +
                          provider->Find(FleetJobJournalPath(id))->bytes());
    }
    return artifacts;
  };
  // Any lane interleaving must produce the same bytes: every job's
  // determinism is its own (seeded market, journaled decisions).
  InMemoryFleetStorage a, b;
  EXPECT_EQ(run_once(&a), run_once(&b));
}

TEST(FleetSupervisorTest, AdmissionControlRejectsAndSheds) {
  InMemoryFleetStorage provider;
  FleetConfig config;
  config.max_admitted = 2;
  FleetSupervisor fleet(&provider, config);
  ASSERT_TRUE(fleet.Open().ok());

  FleetJobSpec low = TinyJob("low", 1);
  low.priority = 0;
  ASSERT_TRUE(fleet.Submit(low).ok());
  ASSERT_TRUE(fleet.Submit(low).ok());

  // Backlog full, equal priority: rejected with a clean kResourceExhausted.
  const auto rejected = fleet.Submit(low);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);

  // Backlog full, higher priority: admitted by shedding the youngest
  // lowest-priority pending job.
  FleetJobSpec high = TinyJob("high", 2);
  high.priority = 5;
  const auto admitted = fleet.Submit(high);
  ASSERT_TRUE(admitted.ok());
  const auto jobs = fleet.jobs();
  EXPECT_EQ(jobs.at(1).state, FleetJobState::kPending);
  EXPECT_EQ(jobs.at(2).state, FleetJobState::kShed);
  EXPECT_NE(jobs.at(2).detail.find("shed"), std::string::npos);
  EXPECT_EQ(jobs.at(*admitted).state, FleetJobState::kPending);

  // Shed is terminal: RunAll leaves it alone and runs the rest.
  const auto stats = fleet.RunAll();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->completed, 2);
  EXPECT_EQ(fleet.jobs().at(2).state, FleetJobState::kShed);
}

TEST(FleetSupervisorTest, AdmissionCapExactTieNeverShedsAndNeverAdmits) {
  // Backlog exactly at max_admitted, all priorities equal: the newcomer
  // outranks nobody, so it must be rejected WITHOUT shedding anything —
  // the boundary where a bad tie-break can lose both the newcomer and a
  // victim, or admit past the cap.
  InMemoryFleetStorage provider;
  FleetConfig config;
  config.max_admitted = 3;
  FleetSupervisor fleet(&provider, config);
  ASSERT_TRUE(fleet.Open().ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(fleet.Submit(TinyJob("tie" + std::to_string(i), i)).ok());
  }
  const auto rejected = fleet.Submit(TinyJob("newcomer", 9));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  int pending = 0, shed = 0;
  for (const auto& [id, entry] : fleet.jobs()) {
    if (entry.state == FleetJobState::kPending) ++pending;
    if (entry.state == FleetJobState::kShed) ++shed;
  }
  EXPECT_EQ(pending, 3) << "a rejected submit must not cost a pending job";
  EXPECT_EQ(shed, 0);
}

TEST(FleetSupervisorTest, AdmissionCapExactShedKeepsBacklogAtCap) {
  // Backlog exactly at max_admitted and the newcomer outranks the victim:
  // exactly one job is shed and the pending count stays at the cap.
  InMemoryFleetStorage provider;
  FleetConfig config;
  config.max_admitted = 2;
  FleetSupervisor fleet(&provider, config);
  ASSERT_TRUE(fleet.Open().ok());
  FleetJobSpec low = TinyJob("low", 1);
  low.priority = 0;
  ASSERT_TRUE(fleet.Submit(low).ok());
  ASSERT_TRUE(fleet.Submit(low).ok());
  FleetJobSpec high = TinyJob("high", 2);
  high.priority = 3;
  ASSERT_TRUE(fleet.Submit(high).ok());
  int pending = 0, shed = 0;
  for (const auto& [id, entry] : fleet.jobs()) {
    if (entry.state == FleetJobState::kPending) ++pending;
    if (entry.state == FleetJobState::kShed) ++shed;
  }
  EXPECT_EQ(pending, config.max_admitted);
  EXPECT_EQ(shed, 1);
  // The youngest of the equal-priority victims went (id 2, not id 1).
  EXPECT_EQ(fleet.jobs().at(1).state, FleetJobState::kPending);
  EXPECT_EQ(fleet.jobs().at(2).state, FleetJobState::kShed);
}

TEST(FleetSupervisorTest, AdmissionCapPlusOneShedsEnoughVictims) {
  // A backlog already past the cap (the fleet was reopened with a smaller
  // max_admitted): admitting one newcomer must shed backlog - cap + 1
  // victims, not just one — shedding one would admit past the cap.
  InMemoryFleetStorage provider;
  {
    FleetSupervisor unbounded(&provider, FleetConfig{});
    ASSERT_TRUE(unbounded.Open().ok());
    for (int i = 0; i < 3; ++i) {
      FleetJobSpec job = TinyJob("old" + std::to_string(i), i);
      job.priority = 0;
      ASSERT_TRUE(unbounded.Submit(job).ok());
    }
  }
  FleetConfig config;
  config.max_admitted = 2;
  FleetSupervisor fleet(&provider, config);
  ASSERT_TRUE(fleet.Open().ok());

  // Equal priority: rejected outright, nothing shed even though the
  // backlog exceeds the cap.
  FleetJobSpec equal = TinyJob("equal", 7);
  equal.priority = 0;
  const auto rejected = fleet.Submit(equal);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  {
    int pending = 0;
    for (const auto& [id, entry] : fleet.jobs()) {
      if (entry.state == FleetJobState::kPending) ++pending;
    }
    EXPECT_EQ(pending, 3);
  }

  // Higher priority: admits by shedding backlog - cap + 1 = 2 victims,
  // youngest first, leaving pending exactly at the cap.
  FleetJobSpec high = TinyJob("high", 8);
  high.priority = 5;
  const auto admitted = fleet.Submit(high);
  ASSERT_TRUE(admitted.ok());
  const auto jobs = fleet.jobs();
  int pending = 0, shed = 0;
  for (const auto& [id, entry] : jobs) {
    if (entry.state == FleetJobState::kPending) ++pending;
    if (entry.state == FleetJobState::kShed) ++shed;
  }
  EXPECT_EQ(pending, config.max_admitted);
  EXPECT_EQ(shed, 2);
  EXPECT_EQ(jobs.at(1).state, FleetJobState::kPending);  // oldest survives
  EXPECT_EQ(jobs.at(2).state, FleetJobState::kShed);
  EXPECT_EQ(jobs.at(3).state, FleetJobState::kShed);
  EXPECT_EQ(jobs.at(*admitted).state, FleetJobState::kPending);
}

TEST(FleetSupervisorTest, TransientFaultRestartsThenMatchesReference) {
  const Reference ref = RunReference(TinyJob("job", 7));

  // The gate fails the first two market calls outright (exhausting the
  // 2-attempt market retry -> checkpoint-and-park), then heals forever.
  auto calls = std::make_shared<std::atomic<int>>(0);
  InMemoryFleetStorage provider;
  FleetConfig config;
  config.market_retry.max_attempts = 2;
  config.market_gate = [calls](uint64_t) -> FaultGate {
    return [calls](std::string_view) -> Status {
      if (calls->fetch_add(1) < 2) {
        return UnavailableError("injected outage");
      }
      return OkStatus();
    };
  };
  FleetSupervisor fleet(&provider, config);
  ASSERT_TRUE(fleet.Open().ok());
  const auto id = fleet.Submit(TinyJob("job", 7));
  ASSERT_TRUE(id.ok());
  const auto stats = fleet.RunAll();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->restarts, 1);
  const ManifestJobEntry entry = fleet.jobs().at(*id);
  EXPECT_EQ(entry.state, FleetJobState::kDone) << entry.detail;
  // The outage healed inside the restart budget; the durable run must end
  // bitwise identical to the fault-free reference.
  EXPECT_EQ(fleet.results().at(*id).report_bytes, ref.result.report_bytes);
  EXPECT_EQ(fleet.results().at(*id).trace_bytes, ref.result.trace_bytes);
  EXPECT_EQ(entry.detail, ref.entry.detail);
}

TEST(FleetSupervisorTest, WatchdogParksHungJobInsteadOfBurningRestarts) {
  InMemoryFleetStorage provider;
  FleetConfig config;
  config.restart.max_attempts = 50;  // the watchdog must fire first
  config.watchdog_stall_limit = 2;
  config.market_retry.max_attempts = 2;
  config.market_gate = [](uint64_t) -> FaultGate {
    return [](std::string_view) -> Status {
      return UnavailableError("permanent outage");
    };
  };
  FleetSupervisor fleet(&provider, config);
  ASSERT_TRUE(fleet.Open().ok());
  const auto id = fleet.Submit(TinyJob("hung", 7));
  ASSERT_TRUE(id.ok());
  const auto stats = fleet.RunAll();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->watchdog_parks, 1);
  EXPECT_LT(stats->restarts, 10);
  const ManifestJobEntry entry = fleet.jobs().at(*id);
  EXPECT_EQ(entry.state, FleetJobState::kParked);
  EXPECT_NE(entry.detail.find("watchdog"), std::string::npos)
      << entry.detail;
}

TEST(FleetSupervisorTest, RestartBudgetExhaustionParks) {
  InMemoryFleetStorage provider;
  FleetConfig config;
  config.restart.max_attempts = 3;
  config.watchdog_stall_limit = 100;  // restart budget must run out first
  config.market_retry.max_attempts = 2;
  config.market_gate = [](uint64_t) -> FaultGate {
    return [](std::string_view) -> Status {
      return UnavailableError("permanent outage");
    };
  };
  FleetSupervisor fleet(&provider, config);
  ASSERT_TRUE(fleet.Open().ok());
  const auto id = fleet.Submit(TinyJob("doomed", 7));
  ASSERT_TRUE(id.ok());
  const auto stats = fleet.RunAll();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->restarts, 2);
  EXPECT_EQ(stats->exhausted_parks, 1);
  const ManifestJobEntry entry = fleet.jobs().at(*id);
  EXPECT_EQ(entry.state, FleetJobState::kParked);
  EXPECT_NE(entry.detail.find("restart budget exhausted"),
            std::string::npos);

  // Operator retry: a resume_parked supervisor with the outage healed runs
  // the parked job to the reference result.
  const Reference ref = RunReference(TinyJob("doomed", 7));
  FleetConfig resume_config;
  resume_config.resume_parked = true;
  FleetSupervisor resumed(&provider, resume_config);
  ASSERT_TRUE(resumed.Recover().ok());
  const auto resumed_stats = resumed.RunAll();
  ASSERT_TRUE(resumed_stats.ok());
  const ManifestJobEntry after = resumed.jobs().at(*id);
  EXPECT_EQ(after.state, FleetJobState::kDone) << after.detail;
  EXPECT_EQ(after.detail, ref.entry.detail);
}

TEST(FleetSupervisorTest, OpenBreakerParksInsteadOfDispatching) {
  InMemoryFleetStorage provider;
  FleetConfig config;
  config.max_running = 1;  // serial dispatch: failures accumulate in order
  config.restart.max_attempts = 1;
  config.breaker.failure_threshold = 2;
  config.breaker.open_cooldown = 1e9;  // never half-opens within this run
  config.market_retry.max_attempts = 2;
  config.market_gate = [](uint64_t) -> FaultGate {
    return [](std::string_view) -> Status {
      return UnavailableError("systemic outage");
    };
  };
  FleetSupervisor fleet(&provider, config);
  ASSERT_TRUE(fleet.Open().ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(fleet.Submit(TinyJob("job#" + std::to_string(i), i)).ok());
  }
  const auto stats = fleet.RunAll();
  ASSERT_TRUE(stats.ok());
  // Two failed runs trip the breaker; the remaining ready jobs are parked
  // without dispatch rather than burning their restart budgets.
  EXPECT_GE(stats->breaker_parks, 1);
  EXPECT_EQ(stats->completed, 0);
  int breaker_parked = 0;
  for (const auto& [id, entry] : fleet.jobs()) {
    EXPECT_EQ(entry.state, FleetJobState::kParked);
    if (entry.detail.find("breaker") != std::string::npos) {
      ++breaker_parked;
    }
  }
  EXPECT_EQ(breaker_parked, stats->breaker_parks);
}

/// Journal pre-flight cases, run through both runners.
class FleetSupervisorRunnerTest : public ::testing::TestWithParam<Runner> {};

INSTANTIATE_TEST_SUITE_P(BothRunners, FleetSupervisorRunnerTest,
                         ::testing::Values(Runner::kLanes, Runner::kShared));

TEST_P(FleetSupervisorRunnerTest, QuarantinesJournalRegressedBelowDurableMark) {
  const FleetJobSpec job = TinyJob("victim", 7);
  const Reference ref = RunReference(job);
  ASSERT_GT(ref.entry.journal_bytes, 64u);

  // Craft a fleet whose manifest proves `journal_bytes` of durable journal,
  // then hand it a journal with a bit flipped inside that prefix — the
  // mid-stream corruption plain torn-tail recovery would silently truncate.
  InMemoryFleetStorage provider;
  {
    const auto storage = provider.Storage(FleetManifestFileName());
    ASSERT_TRUE(storage.ok());
    auto manifest = FleetManifest::Open(*storage);
    ASSERT_TRUE(manifest.ok());
    ASSERT_TRUE(manifest->AppendJob(1, job).ok());
    ASSERT_TRUE(manifest
                    ->AppendState(1, FleetJobState::kRunning, 0,
                                  ref.entry.journal_bytes, "")
                    .ok());
    ASSERT_TRUE(provider.Storage(FleetJobJournalPath(1)).ok());
    provider.Find(FleetJobJournalPath(1))->bytes() = ref.journal;
    provider.Find(FleetJobJournalPath(1))
        ->bytes()[ref.journal.size() / 2] ^= 0x10;
  }
  // A healthy sibling proves quarantine is surgical.
  FleetSupervisor fleet(&provider, FleetConfig{});
  ASSERT_TRUE(fleet.Recover().ok());
  const auto sibling = fleet.Submit(TinyJob("sibling", 8));
  ASSERT_TRUE(sibling.ok());
  const auto stats = RunFleet(&fleet, GetParam());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->quarantined, 1);
  const auto jobs = fleet.jobs();
  EXPECT_EQ(jobs.at(1).state, FleetJobState::kQuarantined);
  EXPECT_NE(jobs.at(1).detail.find("regressed below durable mark"),
            std::string::npos)
      << jobs.at(1).detail;
  EXPECT_EQ(jobs.at(*sibling).state, FleetJobState::kDone);
  EXPECT_EQ(jobs.at(*sibling).detail,
            RunReference(TinyJob("sibling", 8), GetParam()).entry.detail);

  // Control: the same crafted fleet without the bit flip resumes cleanly
  // to the reference result.
  InMemoryFleetStorage clean;
  {
    const auto storage = clean.Storage(FleetManifestFileName());
    ASSERT_TRUE(storage.ok());
    auto manifest = FleetManifest::Open(*storage);
    ASSERT_TRUE(manifest.ok());
    ASSERT_TRUE(manifest->AppendJob(1, job).ok());
    ASSERT_TRUE(manifest
                    ->AppendState(1, FleetJobState::kRunning, 0,
                                  ref.entry.journal_bytes, "")
                    .ok());
    ASSERT_TRUE(clean.Storage(FleetJobJournalPath(1)).ok());
    clean.Find(FleetJobJournalPath(1))->bytes() = ref.journal;
  }
  FleetSupervisor resumed(&clean, FleetConfig{});
  ASSERT_TRUE(resumed.Recover().ok());
  const auto clean_stats = RunFleet(&resumed, GetParam());
  ASSERT_TRUE(clean_stats.ok());
  EXPECT_EQ(resumed.jobs().at(1).state, FleetJobState::kDone);
  EXPECT_EQ(resumed.jobs().at(1).detail,
            RunReference(job, GetParam()).entry.detail);
}

TEST_P(FleetSupervisorRunnerTest, QuarantinesCorruptJournalHeader) {
  const Reference ref = RunReference(TinyJob("victim", 7));
  InMemoryFleetStorage provider;
  {
    const auto storage = provider.Storage(FleetManifestFileName());
    ASSERT_TRUE(storage.ok());
    auto manifest = FleetManifest::Open(*storage);
    ASSERT_TRUE(manifest.ok());
    ASSERT_TRUE(manifest->AppendJob(1, TinyJob("victim", 7)).ok());
    ASSERT_TRUE(
        manifest->AppendState(1, FleetJobState::kRunning, 0, 8, "").ok());
    ASSERT_TRUE(provider.Storage(FleetJobJournalPath(1)).ok());
    provider.Find(FleetJobJournalPath(1))->bytes() = ref.journal;
    provider.Find(FleetJobJournalPath(1))->bytes()[0] ^= 0xFF;  // magic
  }
  FleetSupervisor fleet(&provider, FleetConfig{});
  ASSERT_TRUE(fleet.Recover().ok());
  const auto stats = RunFleet(&fleet, GetParam());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->quarantined, 1);
  EXPECT_EQ(fleet.jobs().at(1).state, FleetJobState::kQuarantined);
  EXPECT_NE(fleet.jobs().at(1).detail.find("failed validation"),
            std::string::npos)
      << fleet.jobs().at(1).detail;
}

TEST(FleetSupervisorTest, RunAllSharedQuarantinesJobTheDriverDropped) {
  InMemoryFleetStorage provider;
  FleetSupervisor fleet(&provider, FleetConfig{});
  ASSERT_TRUE(fleet.Open().ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(fleet.Submit(TinyJob("gang#" + std::to_string(i), i)).ok());
  }
  ScriptedDriver driver;
  driver.drop = {2};
  const auto stats = fleet.RunAllShared(&driver);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(driver.rounds, 1);
  EXPECT_EQ(stats->dispatched, 3);
  EXPECT_EQ(stats->completed, 2);
  EXPECT_EQ(stats->quarantined, 1);
  const auto jobs = fleet.jobs();
  EXPECT_EQ(jobs.at(2).state, FleetJobState::kQuarantined);
  EXPECT_NE(jobs.at(2).detail.find("returned no outcome"), std::string::npos)
      << jobs.at(2).detail;
  EXPECT_EQ(fleet.results().count(2), 0u);
  // The driver's bug is one job's poison, not the gang's.
  EXPECT_EQ(jobs.at(1).state, FleetJobState::kDone) << jobs.at(1).detail;
  EXPECT_EQ(jobs.at(3).state, FleetJobState::kDone) << jobs.at(3).detail;
}

TEST(FleetSupervisorTest, RunAllSharedWatchdogParksGangWithNoProgress) {
  InMemoryFleetStorage provider;
  FleetConfig config;
  config.restart.max_attempts = 50;  // the watchdog must fire first
  config.watchdog_stall_limit = 2;
  FleetSupervisor fleet(&provider, config);
  ASSERT_TRUE(fleet.Open().ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(fleet.Submit(TinyJob("hung#" + std::to_string(i), i)).ok());
  }
  ScriptedDriver driver;
  driver.status = UnavailableError("shared market outage");
  const auto stats = fleet.RunAllShared(&driver);
  ASSERT_TRUE(stats.ok());
  // Round 1 fails every job without journal growth and restarts it; round
  // 2 fails it again and the watchdog parks the whole gang.
  EXPECT_EQ(driver.rounds, 2);
  EXPECT_EQ(stats->dispatched, 8);
  EXPECT_EQ(stats->restarts, 4);
  EXPECT_EQ(stats->watchdog_parks, 4);
  EXPECT_EQ(stats->completed, 0);
  for (const auto& [id, entry] : fleet.jobs()) {
    EXPECT_EQ(entry.state, FleetJobState::kParked);
    EXPECT_NE(entry.detail.find("watchdog"), std::string::npos)
        << entry.detail;
  }
}

TEST(FleetSupervisorTest, RunAllSharedBreakerParksTheNextRound) {
  InMemoryFleetStorage provider;
  FleetConfig config;
  config.restart.max_attempts = 50;
  config.watchdog_stall_limit = 100;  // the breaker must fire first
  config.breaker.failure_threshold = 2;
  config.breaker.open_cooldown = 1e9;  // never half-opens within this run
  FleetSupervisor fleet(&provider, config);
  ASSERT_TRUE(fleet.Open().ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(fleet.Submit(TinyJob("job#" + std::to_string(i), i)).ok());
  }
  ScriptedDriver driver;
  driver.status = UnavailableError("systemic outage");
  const auto stats = fleet.RunAllShared(&driver);
  ASSERT_TRUE(stats.ok());
  // The breaker is checked before every dispatch, but a gang's failures
  // reach it only when the round is folded: the whole first round runs
  // (where one lane would have stopped after two), and every restarted
  // job is parked at the next round's dispatch.
  EXPECT_EQ(driver.rounds, 1);
  EXPECT_EQ(stats->dispatched, 4);
  EXPECT_EQ(stats->restarts, 4);
  EXPECT_EQ(stats->breaker_parks, 4);
  for (const auto& [id, entry] : fleet.jobs()) {
    EXPECT_EQ(entry.state, FleetJobState::kParked);
    EXPECT_EQ(entry.detail, "parked: fleet breaker open");
  }
}

TEST(FleetSupervisorTest, QuarantinesDivergentReplay) {
  // A journal written under seed 7 attached to a job whose manifest spec
  // says seed 8: replay-by-re-execution must detect the divergence and
  // quarantine rather than emit a silently wrong result. Snapshots are
  // disabled on both sides so replay re-executes from the journal start —
  // a snapshot would legitimately carry the old market state forward.
  FleetJobSpec donor = TinyJob("victim", 7);
  donor.snapshot_interval = 1000000;
  const Reference ref = RunReference(donor);
  FleetJobSpec victim = TinyJob("victim", 8);
  victim.snapshot_interval = 1000000;
  InMemoryFleetStorage provider;
  {
    const auto storage = provider.Storage(FleetManifestFileName());
    ASSERT_TRUE(storage.ok());
    auto manifest = FleetManifest::Open(*storage);
    ASSERT_TRUE(manifest.ok());
    ASSERT_TRUE(manifest->AppendJob(1, victim).ok());
    ASSERT_TRUE(
        manifest->AppendState(1, FleetJobState::kRunning, 0, 8, "").ok());
    ASSERT_TRUE(provider.Storage(FleetJobJournalPath(1)).ok());
    provider.Find(FleetJobJournalPath(1))->bytes() = ref.journal;
  }
  FleetSupervisor fleet(&provider, FleetConfig{});
  ASSERT_TRUE(fleet.Recover().ok());
  const auto stats = fleet.RunAll();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->quarantined, 1);
  const ManifestJobEntry entry = fleet.jobs().at(1);
  EXPECT_EQ(entry.state, FleetJobState::kQuarantined);
  EXPECT_NE(entry.detail.find("divergent replay"), std::string::npos)
      << entry.detail;
}

TEST(FleetSupervisorTest, RecoverQuarantinesOrphanJournals) {
  InMemoryFleetStorage provider;
  {
    const auto storage = provider.Storage(FleetManifestFileName());
    ASSERT_TRUE(storage.ok());
    auto manifest = FleetManifest::Open(*storage);
    ASSERT_TRUE(manifest.ok());
    ASSERT_TRUE(manifest->AppendJob(1, TinyJob("known", 7)).ok());
    // Job 2's kJob record was lost to a torn manifest tail, but its journal
    // survived: the Submit ordering invariant (kJob flushed before the
    // journal exists) makes this journal proof of the truncation.
    ASSERT_TRUE(provider.Storage(FleetJobJournalPath(2)).ok());
    provider.Find(FleetJobJournalPath(2))->bytes() = "leftover journal";
  }
  FleetSupervisor fleet(&provider, FleetConfig{});
  ASSERT_TRUE(fleet.Recover().ok());
  ASSERT_EQ(fleet.orphans().size(), 1u);
  EXPECT_EQ(fleet.orphans()[0], 2u);
  const auto stats = fleet.RunAll();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(fleet.jobs().at(1).state, FleetJobState::kDone);

  // The quarantine is durable and the burned id is never reused: a new
  // submission must get id 3, not adopt the orphan's journal.
  FleetSupervisor reopened(&provider, FleetConfig{});
  ASSERT_TRUE(reopened.Recover().ok());
  const auto fresh = reopened.Submit(TinyJob("fresh", 9));
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(*fresh, 3u);
}

TEST(FleetSupervisorTest, KilledThousandJobFleetResumesWithoutRerunning) {
  constexpr int kJobs = 1000;
  InMemoryFleetStorage provider;
  FleetKillSwitch kill(400000);  // dies partway through the fleet
  std::mutex wrappers_mu;
  std::vector<std::unique_ptr<FleetKillStorage>> wrappers;

  FleetConfig chaos_config;
  chaos_config.max_running = 8;
  chaos_config.decorate_storage = [&](uint64_t, JournalStorage* inner) {
    std::lock_guard<std::mutex> lock(wrappers_mu);
    wrappers.push_back(kill.WrapStorage(inner));
    return wrappers.back().get();
  };
  {
    FleetSupervisor fleet(&provider, chaos_config);
    ASSERT_TRUE(fleet.Open().ok());
    for (int i = 0; i < kJobs; ++i) {
      ASSERT_TRUE(
          fleet.Submit(TinyJob("job#" + std::to_string(i), 5000 + i)).ok());
    }
    const auto stats = fleet.RunAll();
    ASSERT_FALSE(stats.ok());  // the injected kill
    ASSERT_EQ(stats.status().code(), StatusCode::kResourceExhausted);
    ASSERT_TRUE(kill.killed());
  }

  // Count what the manifest says survived the kill.
  int done_before = 0, interrupted = 0;
  {
    FleetSupervisor inspect(&provider, FleetConfig{});
    ASSERT_TRUE(inspect.Recover().ok());
    for (const auto& [id, entry] : inspect.jobs()) {
      if (entry.state == FleetJobState::kDone) {
        ++done_before;
      } else {
        ++interrupted;
      }
    }
  }
  ASSERT_GT(done_before, 0) << "kill budget too small: nothing finished";
  ASSERT_GT(interrupted, 0) << "kill budget too large: nothing interrupted";

  // Recover and finish. The manifest proves finished jobs are not re-run:
  // dispatches (minus restarts) cover exactly the interrupted jobs.
  FleetConfig resume_config;
  resume_config.max_running = 8;
  FleetSupervisor resumed(&provider, resume_config);
  ASSERT_TRUE(resumed.Recover().ok());
  EXPECT_TRUE(resumed.orphans().empty());
  const auto stats = resumed.RunAll();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->dispatched - stats->restarts, interrupted);
  EXPECT_EQ(stats->completed, interrupted);

  // Every job completed, bitwise identically to a fault-free fleet: equal
  // completion digests (report + trace CRC) job for job.
  InMemoryFleetStorage clean;
  FleetConfig clean_config;
  clean_config.max_running = 8;
  FleetSupervisor reference(&clean, clean_config);
  ASSERT_TRUE(reference.Open().ok());
  for (int i = 0; i < kJobs; ++i) {
    ASSERT_TRUE(
        reference.Submit(TinyJob("job#" + std::to_string(i), 5000 + i)).ok());
  }
  ASSERT_TRUE(reference.RunAll().ok());
  const auto recovered_jobs = resumed.jobs();
  const auto reference_jobs = reference.jobs();
  ASSERT_EQ(recovered_jobs.size(), reference_jobs.size());
  for (const auto& [id, entry] : recovered_jobs) {
    EXPECT_EQ(entry.state, FleetJobState::kDone) << id << ": " << entry.detail;
    EXPECT_EQ(entry.detail, reference_jobs.at(id).detail) << id;
  }
}

TEST(FleetConfigTest, ValidateRejectsBadKnobs) {
  FleetConfig config;
  EXPECT_TRUE(ValidateFleetConfig(config).ok());
  config.max_running = 0;
  EXPECT_FALSE(ValidateFleetConfig(config).ok());
  config = FleetConfig{};
  config.max_admitted = -1;
  EXPECT_FALSE(ValidateFleetConfig(config).ok());
  config = FleetConfig{};
  config.watchdog_stall_limit = 0;
  EXPECT_FALSE(ValidateFleetConfig(config).ok());
  config = FleetConfig{};
  config.restart.max_attempts = 0;
  EXPECT_FALSE(ValidateFleetConfig(config).ok());
  config = FleetConfig{};
  config.breaker.failure_threshold = 0;
  EXPECT_FALSE(ValidateFleetConfig(config).ok());
}

TEST(FleetSpecTest, ParsesFleetWithReplicasAndOverrides) {
  const std::string dir = testing::TempDir();
  const std::string job_path = dir + "/fleet_spec_test_job.spec";
  {
    std::FILE* f = std::fopen(job_path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs(kTinySpec, f);
    std::fclose(f);
  }
  const std::string text =
      "max_running = 6\n"
      "max_admitted = 12\n"
      "\n"
      "[job]\n"
      "spec = fleet_spec_test_job.spec\n"
      "name = tiny\n"
      "priority = 2\n"
      "count = 3\n"
      "seed = 40\n"
      "budget = 99\n"
      "controller = retune\n"
      "snapshot_interval = 2\n"
      "\n"
      "[job]\n"
      "spec = fleet_spec_test_job.spec\n";
  const auto fleet = ParseFleetSpec(text, dir);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  EXPECT_EQ(fleet->max_running, 6);
  EXPECT_EQ(fleet->max_admitted, 12);
  ASSERT_EQ(fleet->jobs.size(), 4u);
  EXPECT_EQ(fleet->jobs[0].name, "tiny#0");
  EXPECT_EQ(fleet->jobs[2].name, "tiny#2");
  EXPECT_EQ(fleet->jobs[0].seed_override, 40);
  EXPECT_EQ(fleet->jobs[1].seed_override, 41);
  EXPECT_EQ(fleet->jobs[0].ceiling, 99);
  EXPECT_EQ(fleet->jobs[0].priority, 2);
  EXPECT_EQ(fleet->jobs[0].controller, FleetController::kAdaptiveRetuner);
  EXPECT_EQ(fleet->jobs[0].snapshot_interval, 2);
  EXPECT_EQ(fleet->jobs[0].spec_text, kTinySpec);
  // Second section: defaults.
  EXPECT_EQ(fleet->jobs[3].name, "fleet_spec_test_job.spec");
  EXPECT_EQ(fleet->jobs[3].seed_override, -1);
  EXPECT_EQ(fleet->jobs[3].controller, FleetController::kFaultTolerant);
}

TEST(FleetSpecTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseFleetSpec("", "").ok());  // no jobs
  EXPECT_FALSE(ParseFleetSpec("[job]\n", "").ok());  // no spec path
  EXPECT_FALSE(ParseFleetSpec("bogus = 1\n", "").ok());
  EXPECT_FALSE(
      ParseFleetSpec("[job]\nspec = /nonexistent/path.spec\n", "").ok());
  EXPECT_FALSE(ParseFleetSpec("[job]\ncontroller = bogus\n", "").ok());
}

TEST(FleetSpecTest, ParsesSharedMarketSection) {
  const std::string dir = testing::TempDir();
  const std::string job_path = dir + "/fleet_spec_shared_job.spec";
  {
    std::FILE* f = std::fopen(job_path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs(kTinySpec, f);
    std::fclose(f);
  }
  const std::string text =
      "max_running = 2\n"
      "\n"
      "[shared_market]\n"
      "arrival_rate = 80.5\n"
      "worker_error_prob = 0.25\n"
      "curve = quadratic 0.5 1.0\n"
      "seed = 77\n"
      "review_interval = 2.5\n"
      "snapshot_interval = 3\n"
      "\n"
      "[job]\n"
      "spec = fleet_spec_shared_job.spec\n";
  const auto fleet = ParseFleetSpec(text, dir);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  EXPECT_TRUE(fleet->shared_market.present);
  EXPECT_EQ(fleet->shared_market.arrival_rate, 80.5);
  EXPECT_EQ(fleet->shared_market.worker_error_prob, 0.25);
  EXPECT_EQ(fleet->shared_market.curve, "quadratic 0.5 1.0");
  EXPECT_EQ(fleet->shared_market.seed, 77);
  EXPECT_EQ(fleet->shared_market.review_interval, 2.5);
  EXPECT_EQ(fleet->shared_market.snapshot_interval, 3);

  // Absent section: defaults, present == false.
  const auto isolated =
      ParseFleetSpec("[job]\nspec = fleet_spec_shared_job.spec\n", dir);
  ASSERT_TRUE(isolated.ok()) << isolated.status().ToString();
  EXPECT_FALSE(isolated->shared_market.present);
}

TEST(FleetSpecTest, RejectsBadSharedMarketKnobs) {
  const std::string dir = testing::TempDir();
  const std::string job_path = dir + "/fleet_spec_shared_job.spec";
  {
    std::FILE* f = std::fopen(job_path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs(kTinySpec, f);
    std::fclose(f);
  }
  const std::string tail = "[job]\nspec = fleet_spec_shared_job.spec\n";
  EXPECT_FALSE(
      ParseFleetSpec("[shared_market]\narrival_rate = 0\n" + tail, dir).ok());
  EXPECT_FALSE(
      ParseFleetSpec("[shared_market]\narrival_rate = nope\n" + tail, dir)
          .ok());
  EXPECT_FALSE(
      ParseFleetSpec("[shared_market]\nworker_error_prob = 1.5\n" + tail, dir)
          .ok());
  EXPECT_FALSE(
      ParseFleetSpec("[shared_market]\ncurve = bogus 1 2\n" + tail, dir).ok());
  EXPECT_FALSE(
      ParseFleetSpec("[shared_market]\nseed = -3\n" + tail, dir).ok());
  EXPECT_FALSE(
      ParseFleetSpec("[shared_market]\nreview_interval = 0\n" + tail, dir)
          .ok());
  EXPECT_FALSE(
      ParseFleetSpec("[shared_market]\nsnapshot_interval = 0\n" + tail, dir)
          .ok());
  EXPECT_FALSE(
      ParseFleetSpec("[shared_market]\nbogus = 1\n" + tail, dir).ok());
  EXPECT_FALSE(ParseFleetSpec(
                   "[shared_market]\n[shared_market]\n" + tail, dir)
                   .ok());  // duplicate section
}

}  // namespace
}  // namespace htune
