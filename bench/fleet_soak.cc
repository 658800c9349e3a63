// Fleet-soak bench: puts numbers on the fleet supervisor (DESIGN.md §12).
//
//   fleet_soak [--smoke] [--max-ratio=R] [--schedules=N] [--out=PATH]
//
// Two measurements:
//  1. Supervision overhead — the same fault-free job set runs under the
//     full FleetSupervisor (manifest, lifecycle transitions, watchdog
//     bookkeeping, admission, lanes) vs a bare loop that executes the
//     identical durable jobs on the identical lane count with none of the
//     supervision. The claim is that supervision is noise next to the jobs
//     themselves: the bench FAILS (exit 1) when the min-time ratio exceeds
//     --max-ratio (default 1.02, the <=2% budget). Trials alternate modes
//     and each mode scores its MINIMUM wall time.
//  2. Recovery latency — N seeded kill schedules over a multi-job fleet:
//     each fleet dies mid-flight at a FleetKillSwitch byte budget (every
//     fourth killed schedule additionally poisons one interrupted journal),
//     then a fresh supervisor Recover()+RunAll() finishes the fleet; the
//     wall time of that recovery is reported (and written as JSON for
//     tools/bench_report.py --fleet). Every non-poisoned job must land on
//     the fault-free reference digest — a divergence is a bench failure.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/report.h"
#include "common/parallel.h"
#include "control/fault_tolerant_executor.h"
#include "durability/crc32c.h"
#include "durability/journal.h"
#include "durability/manifest.h"
#include "durability/serialize.h"
#include "durability/snapshot.h"
#include "fleet/supervisor.h"
#include "resilience/fault_injector.h"
#include "rng/splitmix64.h"
#include "spec/fleet_spec.h"
#include "spec/job_spec.h"
#include "tuning/repetition_allocator.h"

namespace htune {
namespace {

std::string OverheadSpec(bool smoke) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "budget = %d\n"
                "arrival_rate = 100\n"
                "[group]\n"
                "tasks = %d\n"
                "repetitions = 3\n"
                "processing_rate = 3.0\n"
                "curve = linear 1.0 1.0\n",
                smoke ? 40 : 120, smoke ? 6 : 12);
  return buf;
}

constexpr char kRecoverySpec[] =
    "budget = 6\n"
    "arrival_rate = 80\n"
    "[group]\n"
    "tasks = 2\n"
    "repetitions = 1\n"
    "processing_rate = 4.0\n"
    "curve = linear 1.0 1.0\n";

FleetJobSpec MakeJob(const std::string& spec_text, int index) {
  FleetJobSpec spec;
  spec.name = "bench#" + std::to_string(index);
  spec.spec_text = spec_text;
  spec.seed_override = 100 + index;
  spec.snapshot_interval = 8;
  return spec;
}

// ------------------------------------------------------------ overhead leg

/// The unsupervised baseline for one job: exactly the work the supervisor's
/// run path does (parse, durable run, trace encode, digest) minus the
/// supervision itself.
uint32_t DirectRunOnce(const FleetJobSpec& spec) {
  const auto parsed = ParseJobSpec(spec.spec_text);
  if (!parsed.ok()) std::abort();
  const MarketConfig market = MarketConfigFor(*parsed, JobSeed(spec, *parsed));
  const std::vector<QuestionSpec> questions(
      static_cast<size_t>(parsed->problem.TotalTasks()), QuestionSpec{});
  const RepetitionAllocator allocator;
  FaultTolerantConfig config;
  config.abandonment.prob = parsed->abandon_prob;
  config.abandonment.hold_rate = parsed->abandon_hold_rate;
  const FaultTolerantExecutor executor(&allocator, config);
  InMemoryJournalStorage storage;
  DurabilityConfig durability;
  durability.storage = &storage;
  durability.snapshot_interval = spec.snapshot_interval;
  std::vector<TraceEvent> trace;
  const auto report = executor.RunDurable(market, parsed->problem, questions,
                                          durability, &trace);
  if (!report.ok()) std::abort();
  Encoder encoder;
  EncodeTraceEvents(trace, encoder);
  return Crc32c(encoder.Release()) ^ static_cast<uint32_t>(report->spent);
}

double TimeSupervisedMs(const std::vector<FleetJobSpec>& jobs, int lanes) {
  const auto start = std::chrono::steady_clock::now();
  InMemoryFleetStorage provider;
  FleetConfig config;
  config.max_running = lanes;
  FleetSupervisor fleet(&provider, config);
  if (!fleet.Open().ok()) std::abort();
  for (const FleetJobSpec& job : jobs) {
    if (!fleet.Submit(job).ok()) std::abort();
  }
  const auto stats = fleet.RunAll();
  if (!stats.ok() ||
      stats->completed != static_cast<int>(jobs.size())) {
    std::abort();
  }
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

double TimeDirectMs(const std::vector<FleetJobSpec>& jobs, int lanes) {
  const auto start = std::chrono::steady_clock::now();
  std::atomic<size_t> next{0};
  std::atomic<uint32_t> sink{0};
  ParallelFor(static_cast<size_t>(lanes), [&](size_t) {
    for (size_t i = next.fetch_add(1); i < jobs.size();
         i = next.fetch_add(1)) {
      sink.fetch_xor(DirectRunOnce(jobs[i]));
    }
  });
  const auto end = std::chrono::steady_clock::now();
  if (sink.load() == 0xdeadbeef) std::printf("(sink)\n");
  return std::chrono::duration<double, std::milli>(end - start).count();
}

// ------------------------------------------------------------ recovery leg

struct RecoveryStats {
  int schedules = 0;
  int kills = 0;
  int quarantines = 0;
  int poisoned = 0;
  int recovered_jobs = 0;
  std::vector<double> recovery_ms;
  bool correct = true;
};

void RunRecoverySchedule(int schedule, int fleet_jobs,
                         const std::map<uint64_t, std::string>& truth,
                         RecoveryStats* stats) {
  SplitMix64 rng(0x62656e6368ULL + static_cast<uint64_t>(schedule));
  InMemoryFleetStorage provider;
  ++stats->schedules;

  // Scaled to the fleet's total write volume so kills land mid-run for
  // any fleet size.
  const uint64_t kill_budget =
      4000 + rng.Next() % (1000u * static_cast<uint64_t>(fleet_jobs));
  FleetKillSwitch kill(kill_budget);
  std::vector<std::unique_ptr<JournalStorage>> wrappers;
  FleetConfig chaos;
  chaos.max_running = 8;
  chaos.decorate_storage = [&](uint64_t, JournalStorage* inner) {
    wrappers.push_back(kill.WrapStorage(inner));
    return wrappers.back().get();
  };
  bool killed = false;
  {
    FleetSupervisor fleet(&provider, chaos);
    if (!fleet.Open().ok()) std::abort();
    for (int i = 0; i < fleet_jobs; ++i) {
      if (!fleet.Submit(MakeJob(kRecoverySpec, i)).ok()) std::abort();
    }
    const auto run = fleet.RunAll();
    if (!run.ok()) {
      killed = true;
      ++stats->kills;
    }
  }

  uint64_t poisoned_id = 0;
  if (killed && schedule % 4 == 0) {
    const auto scan =
        ScanManifest(provider.Find(FleetManifestFileName())->bytes());
    if (!scan.ok()) std::abort();
    for (const auto& [id, entry] : scan->jobs) {
      if (entry.state == FleetJobState::kDone) continue;
      InMemoryJournalStorage* journal = provider.Find(FleetJobJournalPath(id));
      if (journal == nullptr || journal->bytes().empty()) continue;
      if (entry.journal_bytes >= 16 &&
          journal->bytes().size() >= entry.journal_bytes) {
        journal->bytes()[8 + rng.Next() % (entry.journal_bytes - 8)] ^=
            static_cast<char>(1u << (rng.Next() % 8));
      } else {
        journal->bytes()[0] ^= 0x55;
      }
      poisoned_id = id;
      ++stats->poisoned;
      break;
    }
  }

  FleetConfig clean;
  clean.max_running = 8;
  FleetSupervisor recovered(&provider, clean);
  const auto start = std::chrono::steady_clock::now();
  if (!recovered.Recover().ok()) std::abort();
  const auto run = recovered.RunAll();
  const auto end = std::chrono::steady_clock::now();
  if (!run.ok()) std::abort();
  stats->recovery_ms.push_back(
      std::chrono::duration<double, std::milli>(end - start).count());
  stats->quarantines += run->quarantined;
  stats->recovered_jobs += run->completed;
  for (const auto& [id, entry] : recovered.jobs()) {
    if (id == poisoned_id) {
      if (entry.state != FleetJobState::kQuarantined) {
        std::fprintf(stderr,
                     "schedule %d: poisoned job %llu not quarantined: %s\n",
                     schedule, static_cast<unsigned long long>(id),
                     entry.detail.c_str());
        stats->correct = false;
      }
      continue;
    }
    if (entry.state != FleetJobState::kDone ||
        entry.detail != truth.at(id)) {
      std::fprintf(stderr, "schedule %d: job %llu diverged: %s\n", schedule,
                   static_cast<unsigned long long>(id), entry.detail.c_str());
      stats->correct = false;
    }
  }
}

}  // namespace
}  // namespace htune

int main(int argc, char** argv) {
  bool smoke = false;
  double max_ratio = 1.02;
  int schedules = 25;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      schedules = 5;
    } else if (std::strncmp(argv[i], "--max-ratio=", 12) == 0) {
      max_ratio = std::atof(argv[i] + 12);
    } else if (std::strncmp(argv[i], "--schedules=", 12) == 0) {
      schedules = std::atoi(argv[i] + 12);
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    }
  }

  const int trials = smoke ? 3 : 5;
  const int overhead_jobs = smoke ? 8 : 32;
  const int lanes = smoke ? 4 : 8;
  const int fleet_jobs = smoke ? 16 : 64;

  htune::bench::Banner(
      "fleet soak (supervision overhead + whole-fleet recovery latency)",
      "DESIGN.md §12 fleet supervisor");

  // -------------------------------------------------------------- overhead
  const std::string spec_text = htune::OverheadSpec(smoke);
  std::vector<htune::FleetJobSpec> jobs;
  for (int i = 0; i < overhead_jobs; ++i) {
    jobs.push_back(htune::MakeJob(spec_text, i));
  }
  htune::TimeSupervisedMs(jobs, lanes);  // warm-up
  htune::TimeDirectMs(jobs, lanes);
  double best_sup = -1.0, best_dir = -1.0;
  for (int t = 0; t < trials; ++t) {
    const double sup = htune::TimeSupervisedMs(jobs, lanes);
    const double dir = htune::TimeDirectMs(jobs, lanes);
    if (best_sup < 0.0 || sup < best_sup) best_sup = sup;
    if (best_dir < 0.0 || dir < best_dir) best_dir = dir;
    std::printf("trial %d: supervised %.2f ms, direct %.2f ms (%d jobs, "
                "%d lanes)\n",
                t + 1, sup, dir, overhead_jobs, lanes);
  }
  const double ratio = best_sup / best_dir;
  std::printf("\nsupervision overhead: best-of-%d supervised %.2f ms / "
              "direct %.2f ms = ratio %.4f (max allowed %.2f)\n",
              trials, best_sup, best_dir, ratio, max_ratio);

  // --------------------------------------------------------------- recovery
  // Fault-free reference digests every killed schedule must recover to.
  std::map<uint64_t, std::string> truth;
  {
    htune::InMemoryFleetStorage provider;
    htune::FleetConfig config;
    config.max_running = 8;
    htune::FleetSupervisor fleet(&provider, config);
    if (!fleet.Open().ok()) return 2;
    for (int i = 0; i < fleet_jobs; ++i) {
      if (!fleet.Submit(htune::MakeJob(htune::kRecoverySpec, i)).ok()) {
        return 2;
      }
    }
    const auto run = fleet.RunAll();
    if (!run.ok() || run->completed != fleet_jobs) {
      std::fprintf(stderr, "reference fleet failed\n");
      return 2;
    }
    for (const auto& [id, entry] : fleet.jobs()) {
      truth[id] = entry.detail;
    }
  }

  htune::RecoveryStats stats;
  for (int s = 1; s <= schedules; ++s) {
    htune::RunRecoverySchedule(s, fleet_jobs, truth, &stats);
  }
  double rec_min = 0.0, rec_max = 0.0, rec_mean = 0.0;
  if (!stats.recovery_ms.empty()) {
    rec_min = *std::min_element(stats.recovery_ms.begin(),
                                stats.recovery_ms.end());
    rec_max = *std::max_element(stats.recovery_ms.begin(),
                                stats.recovery_ms.end());
    for (const double ms : stats.recovery_ms) rec_mean += ms;
    rec_mean /= static_cast<double>(stats.recovery_ms.size());
  }
  std::printf("recovery: %d schedules (%d-job fleets), %d kills, %d "
              "poisoned -> %d quarantined, %d jobs recovered\n",
              stats.schedules, fleet_jobs, stats.kills, stats.poisoned,
              stats.quarantines, stats.recovered_jobs);
  std::printf("whole-fleet recovery latency: min %.2f / mean %.2f / max "
              "%.2f ms over %zu recoveries\n",
              rec_min, rec_mean, rec_max, stats.recovery_ms.size());

  if (!out_path.empty()) {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 2;
    }
    std::fprintf(
        f,
        "{\n"
        "  \"schema_version\": 1,\n"
        "  \"smoke\": %s,\n"
        "  \"fleet_jobs\": %d,\n"
        "  \"schedules\": %d,\n"
        "  \"kills\": %d,\n"
        "  \"poisoned\": %d,\n"
        "  \"quarantines\": %d,\n"
        "  \"recovered_jobs\": %d,\n"
        "  \"supervision_overhead\": {\"supervised_ms\": %.4f, "
        "\"direct_ms\": %.4f, \"ratio\": %.6f, \"max_ratio\": %.4f},\n"
        "  \"recovery_latency_ms\": {\"count\": %zu, \"min\": %.4f, "
        "\"mean\": %.4f, \"max\": %.4f}\n"
        "}\n",
        smoke ? "true" : "false", fleet_jobs, stats.schedules, stats.kills,
        stats.poisoned, stats.quarantines, stats.recovered_jobs, best_sup,
        best_dir, ratio, max_ratio, stats.recovery_ms.size(), rec_min,
        rec_mean, rec_max);
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  }

  if (!stats.correct) {
    std::printf("FAIL: a recovered fleet diverged from the fault-free "
                "reference\n");
    return 1;
  }
  if (stats.quarantines != stats.poisoned) {
    std::printf("FAIL: quarantined %d jobs but poisoned %d\n",
                stats.quarantines, stats.poisoned);
    return 1;
  }
  if (ratio > max_ratio) {
    std::printf("FAIL: supervision overhead %.1f%% exceeds the %.1f%% "
                "budget\n",
                (ratio - 1.0) * 100.0, (max_ratio - 1.0) * 100.0);
    return 1;
  }
  std::printf("PASS: supervision overhead %.1f%% within budget; every "
              "killed fleet recovered bitwise\n",
              (ratio - 1.0) * 100.0);
  return 0;
}
