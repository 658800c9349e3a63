// Fleet-level tests of the shared-market platform: gang execution through
// FleetSupervisor::RunAllShared, durable exactly-once kRunEnd artifacts,
// whole-fleet kill-and-resume bitwise recovery, and the wire codec of the
// serving protocol.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "durability/journal.h"
#include "durability/manifest.h"
#include "control/dilution.h"
#include "durability/records.h"
#include "durability/serialize.h"
#include "fleet/supervisor.h"
#include "model/price_rate_curve.h"
#include "platform/service.h"
#include "platform/session.h"
#include "platform/wire.h"
#include "resilience/fault_injector.h"

namespace htune {
namespace {

std::string JobText(int tasks, int reps, long budget, uint64_t seed) {
  return "budget = " + std::to_string(budget) +
         "\nseed = " + std::to_string(seed) +
         "\n\n[group]\nname = g\ntasks = " + std::to_string(tasks) +
         "\nrepetitions = " + std::to_string(reps) +
         "\nprocessing_rate = 2.0\ncurve = linear 1.0 0.0\n";
}

FleetJobSpec MakeJob(const std::string& name, int tasks, int reps,
                     long budget, uint64_t seed) {
  FleetJobSpec job;
  job.name = name;
  job.spec_text = JobText(tasks, reps, budget, seed);
  return job;
}

SharedServiceConfig ServiceConfig() {
  SharedServiceConfig config;
  config.market.present = true;
  config.market.arrival_rate = 50.0;
  config.market.worker_error_prob = 0.0;
  config.market.curve = "linear 1.0 0.0";  // rate = price
  config.market.seed = 3;
  config.market.review_interval = 0.25;
  config.market.snapshot_interval = 1;
  return config;
}

StatusOr<JournalContents> JobJournal(InMemoryFleetStorage& provider,
                                     const std::string& path) {
  InMemoryJournalStorage* storage = provider.Find(path);
  if (storage == nullptr) {
    return NotFoundError("no storage at " + path);
  }
  return ScanJournal(storage->bytes());
}

TEST(SharedServiceTest, GangCompletesWithExactlyOnceRunEnds) {
  InMemoryFleetStorage provider;
  FleetSupervisor fleet(&provider, FleetConfig{});
  ASSERT_TRUE(fleet.Open().ok());
  std::vector<uint64_t> ids;
  for (int j = 0; j < 3; ++j) {
    const auto id = fleet.Submit(
        MakeJob("job" + std::to_string(j), 10, 2, 200,
                /*seed=*/100 + static_cast<uint64_t>(j)));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  SharedMarketService service(&provider, ServiceConfig());
  const auto stats = fleet.RunAllShared(&service);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->dispatched, 3);
  EXPECT_EQ(stats->completed, 3);
  EXPECT_EQ(stats->quarantined, 0);
  EXPECT_EQ(service.Counts().gangs, 1u);
  EXPECT_EQ(service.Counts().jobs_completed, 3u);

  const auto entries = fleet.jobs();
  for (const uint64_t id : ids) {
    ASSERT_TRUE(entries.count(id));
    EXPECT_EQ(entries.at(id).state, FleetJobState::kDone);

    const auto journal = JobJournal(provider, FleetJobJournalPath(id));
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    ASSERT_GE(journal->records.size(), 2u);
    EXPECT_EQ(journal->records.front().type, JournalRecordType::kRunStart);
    int run_ends = 0;
    for (const JournalRecord& record : journal->records) {
      if (record.type == JournalRecordType::kRunEnd) ++run_ends;
    }
    EXPECT_EQ(run_ends, 1);
    EXPECT_EQ(journal->records.back().type, JournalRecordType::kRunEnd);

    // The journaled artifacts are the in-memory results, bitwise.
    JobRunEndRecord run_end;
    ASSERT_TRUE(DecodeRecord(journal->records.back().payload, &run_end).ok());
    ASSERT_TRUE(fleet.results().count(id));
    EXPECT_EQ(run_end.report, fleet.results().at(id).report_bytes);
    EXPECT_EQ(run_end.trace, fleet.results().at(id).trace_bytes);

    SessionReport report;
    ASSERT_TRUE(DecodeSessionReport(run_end.report, &report).ok());
    EXPECT_EQ(report.job_id, id);
    EXPECT_EQ(report.tasks, 10u);
    EXPECT_EQ(report.repetitions, 20u);
    EXPECT_GT(report.spent, 0);
    EXPECT_GT(report.mean_processing_latency, 0.0);
  }

  // The service journal holds one generation and its snapshot cadence.
  const auto shared = JobJournal(provider, kSharedServiceJournalPath);
  ASSERT_TRUE(shared.ok()) << shared.status().ToString();
  ASSERT_FALSE(shared->records.empty());
  EXPECT_EQ(shared->records.front().type, JournalRecordType::kRunStart);
  int snapshots = 0;
  for (const JournalRecord& record : shared->records) {
    if (record.type == JournalRecordType::kSnapshot) ++snapshots;
  }
  EXPECT_GE(snapshots, 1);
  EXPECT_EQ(service.Counts().snapshots, static_cast<uint64_t>(snapshots));
}

TEST(SharedServiceTest, CompetitionInflatesOnHoldLatency) {
  // One job alone, then the same job against an identical twin. Posted
  // weight exceeds the arrival rate in both settings, so splitting one
  // worker stream two ways must roughly double the time a repetition
  // waits on hold.
  const auto run_fleet =
      [](int num_jobs) -> std::map<uint64_t, SessionReport> {
    InMemoryFleetStorage provider;
    FleetSupervisor fleet(&provider, FleetConfig{});
    EXPECT_TRUE(fleet.Open().ok());
    for (int j = 0; j < num_jobs; ++j) {
      EXPECT_TRUE(fleet
                      .Submit(MakeJob("job" + std::to_string(j), 20, 3, 300,
                                      /*seed=*/50 + static_cast<uint64_t>(j)))
                      .ok());
    }
    SharedMarketService service(&provider, ServiceConfig());
    const auto stats = fleet.RunAllShared(&service);
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    std::map<uint64_t, SessionReport> reports;
    for (const auto& [id, result] : fleet.results()) {
      SessionReport report;
      EXPECT_TRUE(DecodeSessionReport(result.report_bytes, &report).ok());
      reports[id] = report;
    }
    return reports;
  };

  const auto solo = run_fleet(1);
  const auto pair = run_fleet(2);
  ASSERT_EQ(solo.size(), 1u);
  ASSERT_EQ(pair.size(), 2u);
  const double solo_wait = solo.at(1).mean_on_hold_latency;
  ASSERT_GT(solo_wait, 0.0);
  for (const auto& [id, report] : pair) {
    EXPECT_GT(report.mean_on_hold_latency, 1.4 * solo_wait)
        << "job " << id << " did not feel the competition";
    EXPECT_LT(report.mean_on_hold_latency, 3.0 * solo_wait)
        << "job " << id << " slowed more than the split explains";
  }
}

TEST(SharedServiceTest, LaneCountNeverChangesSharedOutcomes) {
  // The gang runs inside one simulation whatever max_running says; the
  // durable artifacts must be bitwise identical across lane counts.
  const auto run_with_lanes =
      [](int lanes) -> std::map<std::string, std::string> {
    InMemoryFleetStorage provider;
    FleetConfig config;
    config.max_running = lanes;
    FleetSupervisor fleet(&provider, config);
    EXPECT_TRUE(fleet.Open().ok());
    std::vector<uint64_t> ids;
    for (int j = 0; j < 4; ++j) {
      const auto id =
          fleet.Submit(MakeJob("job" + std::to_string(j), 8, 2, 160,
                               /*seed=*/200 + static_cast<uint64_t>(j)));
      EXPECT_TRUE(id.ok());
      ids.push_back(*id);
    }
    SharedMarketService service(&provider, ServiceConfig());
    const auto stats = fleet.RunAllShared(&service);
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    std::map<std::string, std::string> bytes;
    for (const uint64_t id : ids) {
      InMemoryJournalStorage* storage =
          provider.Find(FleetJobJournalPath(id));
      EXPECT_NE(storage, nullptr);
      bytes[FleetJobJournalPath(id)] = storage->bytes();
    }
    return bytes;
  };

  const auto one = run_with_lanes(1);
  const auto four = run_with_lanes(4);
  const int hardware =
      static_cast<int>(std::thread::hardware_concurrency());
  const auto many = run_with_lanes(hardware > 0 ? hardware : 8);
  EXPECT_EQ(one, four);
  EXPECT_EQ(one, many);
}

/// Wraps every storage a fleet opens — manifest, job journals, and the
/// shared-service journal — with one FleetKillSwitch, so the injected
/// whole-process kill lands at a deterministic total write volume across
/// the entire serving stack.
class KillEverythingProvider : public FleetStorageProvider {
 public:
  KillEverythingProvider(FleetStorageProvider* inner, FleetKillSwitch* kill)
      : inner_(inner), kill_(kill) {}

  StatusOr<JournalStorage*> Storage(const std::string& path) override {
    const auto it = wrapped_.find(path);
    if (it != wrapped_.end()) {
      return it->second.get();
    }
    HTUNE_ASSIGN_OR_RETURN(JournalStorage * raw, inner_->Storage(path));
    auto wrapper = kill_->WrapStorage(raw);
    JournalStorage* result = wrapper.get();
    wrapped_[path] = std::move(wrapper);
    return result;
  }

  StatusOr<std::vector<std::string>> ListJournals() override {
    return inner_->ListJournals();
  }

 private:
  FleetStorageProvider* inner_;
  FleetKillSwitch* kill_;
  std::map<std::string, std::unique_ptr<FleetKillStorage>> wrapped_;
};

TEST(SharedServiceTest, WholeFleetKillAndResumeRecoversEveryJobBitwise) {
  const auto submit_all = [](FleetSupervisor& fleet) {
    for (int j = 0; j < 4; ++j) {
      ASSERT_TRUE(fleet
                      .Submit(MakeJob("job" + std::to_string(j), 15, 3, 225,
                                      /*seed=*/300 + static_cast<uint64_t>(j)))
                      .ok());
    }
  };

  // Uninterrupted baseline.
  InMemoryFleetStorage baseline_provider;
  std::map<uint64_t, FleetJobResult> baseline_results;
  uint64_t total_bytes = 0;
  {
    FleetSupervisor fleet(&baseline_provider, FleetConfig{});
    ASSERT_TRUE(fleet.Open().ok());
    submit_all(fleet);
    SharedMarketService service(&baseline_provider, ServiceConfig());
    const auto stats = fleet.RunAllShared(&service);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ASSERT_EQ(stats->completed, 4);
    baseline_results = fleet.results();
    std::vector<std::string> paths{FleetManifestFileName(),
                                   kSharedServiceJournalPath};
    for (uint64_t id = 1; id <= 4; ++id) {
      paths.push_back(FleetJobJournalPath(id));
    }
    for (const std::string& path : paths) {
      ASSERT_NE(baseline_provider.Find(path), nullptr) << path;
      total_bytes += baseline_provider.Find(path)->bytes().size();
    }
  }

  // The same fleet, killed at ~60% of the baseline write volume — inside
  // the competing simulation, after the generation opened.
  InMemoryFleetStorage provider;
  FleetKillSwitch kill(total_bytes * 6 / 10);
  {
    KillEverythingProvider chaos(&provider, &kill);
    FleetSupervisor fleet(&chaos, FleetConfig{});
    ASSERT_TRUE(fleet.Open().ok());
    submit_all(fleet);
    SharedMarketService service(&chaos, ServiceConfig());
    const auto stats = fleet.RunAllShared(&service);
    ASSERT_FALSE(stats.ok());
    EXPECT_EQ(stats.status().code(), StatusCode::kResourceExhausted);
    EXPECT_TRUE(kill.killed());
  }

  // Recovery: a fresh supervisor over the raw storages resumes every job
  // from the service snapshot to the bitwise-identical outcome.
  {
    FleetSupervisor fleet(&provider, FleetConfig{});
    ASSERT_TRUE(fleet.Recover().ok());
    EXPECT_TRUE(fleet.orphans().empty());
    SharedMarketService service(&provider, ServiceConfig());
    const auto stats = fleet.RunAllShared(&service);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(service.Counts().resumes, 1u);
    const auto entries = fleet.jobs();
    for (uint64_t id = 1; id <= 4; ++id) {
      ASSERT_TRUE(entries.count(id));
      EXPECT_EQ(entries.at(id).state, FleetJobState::kDone)
          << "job " << id << ": " << entries.at(id).detail;
      ASSERT_TRUE(fleet.results().count(id));
      ASSERT_TRUE(baseline_results.count(id));
      EXPECT_EQ(fleet.results().at(id).report_bytes,
                baseline_results.at(id).report_bytes)
          << "job " << id << " report diverged across kill+resume";
      EXPECT_EQ(fleet.results().at(id).trace_bytes,
                baseline_results.at(id).trace_bytes)
          << "job " << id << " trace diverged across kill+resume";
      // The durable artifact itself: byte-identical journals.
      EXPECT_EQ(provider.Find(FleetJobJournalPath(id))->bytes(),
                baseline_provider.Find(FleetJobJournalPath(id))->bytes())
          << "job " << id << " journal diverged across kill+resume";
    }
  }
}

TEST(SharedServiceTest, ReplayVerifiesJournaledRunEndBitwise) {
  // Driving the service directly (no supervisor) lets a finished gang be
  // re-run: the second pass must reproduce each journaled kRunEnd bitwise
  // without appending a duplicate, and a divergent replay (different
  // market seed) must be caught.
  InMemoryFleetStorage provider;
  const auto make_runs = [&]() {
    std::vector<SharedJobDriver::JobRun> runs;
    for (uint64_t id = 1; id <= 2; ++id) {
      SharedJobDriver::JobRun run;
      run.job_id = id;
      run.spec = MakeJob("job" + std::to_string(id), 6, 2, 120,
                         /*seed=*/400 + id);
      auto storage = provider.Storage(FleetJobJournalPath(id));
      EXPECT_TRUE(storage.ok());
      run.storage = *storage;
      runs.push_back(std::move(run));
    }
    return runs;
  };
  SharedServiceConfig config = ServiceConfig();
  config.market.snapshot_interval = 1000000;  // keep the journal end-free

  SharedMarketService first(&provider, config);
  const auto outcomes1 = first.RunJobs(make_runs());
  ASSERT_TRUE(outcomes1.ok()) << outcomes1.status().ToString();
  std::map<uint64_t, std::string> journal_bytes;
  for (const auto& outcome : *outcomes1) {
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    journal_bytes[outcome.job_id] =
        provider.Find(FleetJobJournalPath(outcome.job_id))->bytes();
  }

  SharedMarketService second(&provider, config);
  const auto outcomes2 = second.RunJobs(make_runs());
  ASSERT_TRUE(outcomes2.ok()) << outcomes2.status().ToString();
  for (const auto& outcome : *outcomes2) {
    EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    // Exactly-once: the verified replay appended nothing.
    EXPECT_EQ(provider.Find(FleetJobJournalPath(outcome.job_id))->bytes(),
              journal_bytes.at(outcome.job_id));
  }

  SharedServiceConfig divergent = config;
  divergent.market.seed = config.market.seed + 1;
  SharedMarketService third(&provider, divergent);
  const auto outcomes3 = third.RunJobs(make_runs());
  ASSERT_TRUE(outcomes3.ok()) << outcomes3.status().ToString();
  for (const auto& outcome : *outcomes3) {
    EXPECT_EQ(outcome.status.code(), StatusCode::kInternal);
    EXPECT_EQ(outcome.detail, "shared replay");
    EXPECT_EQ(provider.Find(FleetJobJournalPath(outcome.job_id))->bytes(),
              journal_bytes.at(outcome.job_id));
  }
}

// The three-lookup straggler review: per open task, OpenTaskIds, then
// OnHoldSince and CurrentPrice, repricing as it goes and re-reading the
// budget per straggler. The oracle JobSession::Review's one pass must
// match.
struct LegacyReviewer {
  uint64_t job_id = 0;
  JobSessionConfig config;
  std::vector<int> base_price;  // by task id - 1
  long budget = 0;
  uint64_t reviews = 0;
  uint64_t stragglers = 0;
  uint64_t escalations = 0;
  uint64_t capped = 0;    // stragglers held back by max_escalation
  uint64_t unfunded = 0;  // stragglers held back by the budget

  Status Review(SharedMarket& market, const PriceRateCurve& diluted,
                std::vector<std::pair<TaskId, int>>& escalated) {
    ++reviews;
    const double now = market.now();
    for (const TaskId task : market.OpenTaskIds(job_id)) {
      const auto since = market.OnHoldSince(job_id, task);
      if (!since.ok()) {
        continue;
      }
      const auto price = market.CurrentPrice(job_id, task);
      HTUNE_RETURN_IF_ERROR(price.status());
      const double rate = diluted.Rate(static_cast<double>(*price));
      if (rate <= 0.0 || now - *since <= config.straggler_factor / rate) {
        continue;
      }
      ++stragglers;
      const int base = base_price[static_cast<size_t>(task) - 1];
      const bool within_cap = *price - base < config.max_escalation;
      const bool within_budget = market.TotalSpent(job_id) < budget;
      capped += within_cap ? 0 : 1;
      unfunded += within_cap && !within_budget ? 1 : 0;
      if (within_cap && within_budget) {
        HTUNE_RETURN_IF_ERROR(market.Reprice(job_id, task, *price + 1));
        escalated.emplace_back(task, *price + 1);
        ++escalations;
      }
    }
    return OkStatus();
  }

  std::string Counters() const {
    Encoder e;
    e.PutU32(1);  // the session-counters layout version
    PutFields(e, reviews, stragglers, escalations);
    return e.Release();
  }
};

// Each open task's current price, in id order.
std::vector<std::pair<TaskId, int>> Prices(const SharedMarket& market,
                                           uint64_t job_id) {
  std::vector<std::pair<TaskId, int>> prices;
  for (const TaskId task : market.OpenTaskIds(job_id)) {
    prices.emplace_back(task, *market.CurrentPrice(job_id, task));
  }
  return prices;
}

// The one-pass review against the three-lookup oracle, side by side on two
// identical markets: three jobs whose groups plan different prices, a low
// straggler factor, an escalation cap of 2 and ceilings the escalations
// reach. After every epoch both markets capture the same bytes and each
// review escalated the same tasks in the same order (the one-pass side's
// list is its price changes in id order, the order its loop reprices in);
// at the end the session reports agree.
TEST(JobSessionReviewTest, OnePassReviewMatchesPerTaskLookups) {
  SharedMarketConfig market_config;
  market_config.worker_arrival_rate = 30.0;
  market_config.worker_error_prob = 0.05;
  market_config.curve = std::make_shared<LinearCurve>(1.0, 0.0);
  market_config.seed = 17;
  SharedMarket one_pass(market_config);
  SharedMarket lookups(market_config);

  JobSessionConfig session_config;
  session_config.straggler_factor = 1.0;
  session_config.max_escalation = 2;
  std::vector<JobSession> sessions;   // reviewed in one pass, on one_pass
  std::vector<JobSession> reference;  // posted and reported, on lookups
  std::vector<LegacyReviewer> legacy;
  for (uint64_t id = 1; id <= 3; ++id) {
    FleetJobSpec spec;
    spec.name = "job" + std::to_string(id);
    const int tasks = 20 + 10 * static_cast<int>(id);
    const long minimum = 3L * tasks + 2L * tasks;
    spec.spec_text =
        "budget = " + std::to_string(minimum * 8 / 3) +
        "\nseed = " + std::to_string(70 + id) +
        "\n\n[group]\nname = fast\ntasks = " + std::to_string(tasks) +
        "\nrepetitions = 3\nprocessing_rate = 4.0\ncurve = linear 1.0 0.0\n"
        "\n[group]\nname = slow\ntasks = " + std::to_string(tasks) +
        "\nrepetitions = 2\nprocessing_rate = 1.0\n"
        "curve = quadratic 0.02 0.5\n";
    // A ceiling a little above the plan's spend: escalations use it up.
    spec.ceiling = minimum * 8 / 3 + 10 * static_cast<int64_t>(id);
    session_config.job_id = id;
    auto session = JobSession::Create(spec, session_config);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    auto twin = JobSession::Create(spec, session_config);
    ASSERT_TRUE(twin.ok());
    ASSERT_TRUE(one_pass.AddJob(id, session->seed()).ok());
    ASSERT_TRUE(lookups.AddJob(id, twin->seed()).ok());
    ASSERT_TRUE(session->Post(one_pass).ok());
    ASSERT_TRUE(twin->Post(lookups).ok());

    LegacyReviewer reviewer;
    reviewer.job_id = id;
    reviewer.config = session_config;
    reviewer.budget = static_cast<long>(spec.ceiling);
    for (const int price : session->group_prices()) {
      reviewer.base_price.insert(reviewer.base_price.end(),
                                 static_cast<size_t>(tasks), price);
    }
    sessions.push_back(std::move(*session));
    reference.push_back(std::move(*twin));
    legacy.push_back(std::move(reviewer));
  }
  ASSERT_NE(sessions[0].group_prices()[0], sessions[0].group_prices()[1]);

  const double interval = 0.1;
  uint64_t epoch = 0;
  while (one_pass.OpenTaskCount() > 0) {
    ASSERT_LT(epoch, 100000u);
    ++epoch;
    one_pass.RunUntil(static_cast<double>(epoch) * interval);
    lookups.RunUntil(static_cast<double>(epoch) * interval);
    const auto diluted = DiluteCurveForSharedMarket(
        market_config.curve, market_config.worker_arrival_rate,
        one_pass.TotalPostedWeight());
    for (size_t j = 0; j < sessions.size(); ++j) {
      if (sessions[j].Done(one_pass)) {
        continue;
      }
      const uint64_t id = sessions[j].job_id();
      const auto before = Prices(one_pass, id);
      ASSERT_TRUE(sessions[j].Review(one_pass, *diluted).ok());
      std::vector<std::pair<TaskId, int>> escalated;
      for (const auto& [task, price] : before) {
        const int now_price = *one_pass.CurrentPrice(id, task);
        if (now_price != price) {
          escalated.emplace_back(task, now_price);
        }
      }
      std::vector<std::pair<TaskId, int>> expected;
      ASSERT_TRUE(legacy[j].Review(lookups, *diluted, expected).ok());
      ASSERT_EQ(escalated, expected) << "job " << id << " epoch " << epoch;
    }
    ASSERT_EQ(one_pass.CaptureState(), lookups.CaptureState())
        << "epoch " << epoch;
  }
  EXPECT_GE(epoch, 200u);

  uint64_t escalations = 0;
  uint64_t capped = 0;
  uint64_t unfunded = 0;
  for (size_t j = 0; j < sessions.size(); ++j) {
    ASSERT_TRUE(reference[j].RestoreCounters(legacy[j].Counters()).ok());
    EXPECT_EQ(EncodeSessionReport(sessions[j].Report(one_pass)),
              EncodeSessionReport(reference[j].Report(lookups)));
    escalations += legacy[j].escalations;
    capped += legacy[j].capped;
    unfunded += legacy[j].unfunded;
  }
  // Not vacuous: escalations happened, and both the cap and the budget
  // held some stragglers back.
  EXPECT_GT(escalations, 0u);
  EXPECT_GT(capped, 0u);
  EXPECT_GT(unfunded, 0u);
}

// Restore rebuilds a job's block sums from its tasks, where a running
// market built them one post at a time. With 700 tasks a job has three
// levels of sums above its per-task weights; at each checkpoint a market
// restored from the running one's snapshot, repriced alike on both sides
// of block boundaries, must select exactly what the running one selects.
TEST(SharedMarketBlockSumsTest, RestoredMarketSelectsAsTheRunningOne) {
  SharedMarketConfig config;
  config.worker_arrival_rate = 40.0;
  config.worker_error_prob = 0.1;
  config.curve = std::make_shared<LinearCurve>(1.0, 0.0);
  config.seed = 23;
  SharedMarket running(config);
  for (uint64_t id = 1; id <= 2; ++id) {
    ASSERT_TRUE(running.AddJob(id, 100 + id).ok());
    for (int t = 0; t < 700; ++t) {
      const int price = 1 + (t * 7 + static_cast<int>(id)) % 5;
      ASSERT_TRUE(running.PostTask(id, {price, price + 1}, 3.0).ok());
    }
  }
  double now = 0.0;
  for (int checkpoint = 0; running.OpenTaskCount() > 0; ++checkpoint) {
    ASSERT_LT(checkpoint, 1000);
    SharedMarket restored(config);
    ASSERT_TRUE(restored.RestoreState(running.CaptureState()).ok());
    for (const TaskId task : {8, 9, 64, 65, 512, 513, 700}) {
      EXPECT_EQ(running.Reprice(1, task, 6 + checkpoint % 3).code(),
                restored.Reprice(1, task, 6 + checkpoint % 3).code());
    }
    now += 5.0;
    running.RunUntil(now);
    restored.RunUntil(now);
    ASSERT_EQ(restored.CaptureState(), running.CaptureState()) << now;
  }
}

TEST(WireTest, RoundTripsEscapedValues) {
  const WireFields fields{{"cmd", "submit"},
                          {"spec_text", "budget = 5\n[group]\ttasks=1"},
                          {"quote", "say \"hi\" \\ done"},
                          {"count", "42"}};
  const std::string line = SerializeWireObject(fields);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const auto parsed = ParseWireObject(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, fields);
}

TEST(WireTest, ParsesScalarsAndUnicodeEscapes) {
  const auto parsed = ParseWireObject(
      " {\"a\": 12.5e3 , \"b\": true, \"c\": null, \"d\": \"\\u0041\\u00e9\"} ");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*FindWireField(*parsed, "a"), "12.5e3");
  EXPECT_EQ(*FindWireField(*parsed, "b"), "true");
  EXPECT_EQ(*FindWireField(*parsed, "c"), "null");
  EXPECT_EQ(*FindWireField(*parsed, "d"), "A\xC3\xA9");
  EXPECT_EQ(FindWireField(*parsed, "missing"), nullptr);
}

TEST(WireTest, RejectsMalformedMessages) {
  EXPECT_FALSE(ParseWireObject("").ok());
  EXPECT_FALSE(ParseWireObject("[1,2]").ok());
  EXPECT_FALSE(ParseWireObject("{\"a\":{\"nested\":1}}").ok());
  EXPECT_FALSE(ParseWireObject("{\"a\":[1]}").ok());
  EXPECT_FALSE(ParseWireObject("{\"a\":1,\"a\":2}").ok());
  EXPECT_FALSE(ParseWireObject("{\"a\":1} trailing").ok());
  EXPECT_FALSE(ParseWireObject("{\"a\":\"unterminated}").ok());
  EXPECT_FALSE(ParseWireObject("{\"a\":\"\\ud800\"}").ok());
  EXPECT_FALSE(ParseWireObject("{\"a\":bogus}").ok());
  EXPECT_FALSE(ParseWireObject("{\"a\" 1}").ok());
  EXPECT_TRUE(ParseWireObject("{}").ok());
}

}  // namespace
}  // namespace htune
