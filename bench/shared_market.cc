// Shared-market platform bench: one SharedMarket carrying a whole fleet of
// concurrent jobs, the paper's competition sanity check, and one gang shaped
// like serve_e2e's serve_large_jobs.
//
// Three sections, all exported through tools/bench_report.py --shared:
//
//  1. Throughput gate: >= 1000 jobs compete on ONE market (the platform
//     service's design target is many small jobs, so the gate is job count,
//     not tasks-per-job). Every posted task must complete, and the event
//     rate is reported for trend tracking.
//  2. Competition invariant: two identical saturating jobs each see ~half
//     the isolated acceptance rate (acceptance thinning conserves the
//     worker stream). observed_ratio is re-derived by the validator from
//     the exported rates, so it is computed here from the same doubles.
//  3. Large gang: 16 jobs of 2000-4000 tasks x 3 repetitions, reviewed
//     every 50 s, run through SharedMarketService::RunJobs on in-memory
//     journals (market, straggler review, trace encode, kRunEnd framing
//     and CRC; no file I/O). Reports the median wall time over several
//     runs and ns per trace event, with the host, CPU count, build type
//     and commit, plus a CRC-32C of every job's report and trace bytes so
//     two builds can show they computed the same gang. --gang-out writes
//     this section alone; --gang-baseline folds such a file (from the
//     parent build, same host) into --out as the section's baseline.
//
// Usage: shared_market [--smoke] [--out=PATH] [--gang-out=PATH]
//                      [--gang-baseline=PATH] [--commit=ID]

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "durability/crc32c.h"
#include "durability/manifest.h"
#include "durability/serialize.h"
#include "fleet/supervisor.h"
#include "model/price_rate_curve.h"
#include "platform/service.h"
#include "platform/shared_market.h"

namespace {

using htune::LinearCurve;
using htune::PriceRateCurve;
using htune::SharedMarket;
using htune::SharedMarketConfig;
using htune::TraceEvent;
using htune::TraceEventKind;

std::shared_ptr<const PriceRateCurve> UnitCurve() {
  return std::make_shared<LinearCurve>(1.0, 0.0);
}

size_t CountAcceptances(const std::vector<TraceEvent>& trace) {
  size_t n = 0;
  for (const TraceEvent& event : trace) {
    if (event.kind == TraceEventKind::kTaskAccepted) ++n;
  }
  return n;
}

struct ThroughputResult {
  int jobs = 0;
  uint64_t tasks = 0;
  uint64_t tasks_completed = 0;
  uint64_t total_events = 0;
  double wall_seconds = 0.0;
  double events_per_sec = 0.0;
  bool ok = false;
};

// N jobs x kTasksPerJob tasks x kRepsPerTask repetitions on one market.
// Total posted weight (price 5 per on-hold task) dwarfs the arrival rate,
// so every arrival is productive and the run length is repetitions/rate.
ThroughputResult RunThroughput(int jobs) {
  constexpr int kTasksPerJob = 4;
  constexpr int kRepsPerTask = 3;
  constexpr int kPrice = 5;
  constexpr double kProcessingRate = 2.0;

  SharedMarketConfig config;
  config.worker_arrival_rate = 500.0;
  config.worker_error_prob = 0.05;
  config.curve = UnitCurve();
  config.seed = 11;
  config.record_trace = false;  // throughput section: no trace overhead

  ThroughputResult result;
  result.jobs = jobs;

  const auto t0 = std::chrono::steady_clock::now();
  SharedMarket market(config);
  const std::vector<int> reps(kRepsPerTask, kPrice);
  for (int j = 0; j < jobs; ++j) {
    const uint64_t id = static_cast<uint64_t>(j) + 1;
    if (!market.AddJob(id, 1000 + id).ok()) return result;
    for (int t = 0; t < kTasksPerJob; ++t) {
      if (!market.PostTask(id, reps, kProcessingRate).ok()) return result;
    }
  }
  if (!market.RunToCompletion().ok()) return result;
  const auto t1 = std::chrono::steady_clock::now();

  for (int j = 0; j < jobs; ++j) {
    const uint64_t id = static_cast<uint64_t>(j) + 1;
    result.tasks_completed += market.CompletedOutcomes(id).size();
  }
  result.tasks = static_cast<uint64_t>(jobs) * kTasksPerJob;
  const htune::SharedMarketCounts& counts = market.Counts();
  result.total_events =
      counts.tasks_posted + counts.worker_arrivals + counts.completions;
  result.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  if (result.wall_seconds <= 0.0) result.wall_seconds = 1e-9;
  result.events_per_sec =
      static_cast<double>(result.total_events) / result.wall_seconds;
  result.ok = result.tasks_completed == result.tasks;
  return result;
}

struct CompetitionResult {
  double isolated_rate = 0.0;
  double shared_rate = 0.0;
  double expected_ratio = 0.5;
  double observed_ratio = 0.0;
  double tolerance = 0.05;
  bool ok = false;
};

// Mirrors SharedMarketTest.TwoIdenticalJobsEachSeeHalfTheIsolatedRate: a
// single saturating job (weight 200 > arrival rate 50) accepts nearly every
// arrival; adding an identical rival must halve its effective rate.
CompetitionResult RunCompetition(double window) {
  constexpr double kProcessingRate = 1e6;  // turnaround is negligible
  constexpr int kSaturatingPrice = 200;

  SharedMarketConfig config;
  config.worker_arrival_rate = 50.0;
  config.worker_error_prob = 0.0;
  config.curve = UnitCurve();
  config.seed = 7;

  // Enough repetitions that neither task completes inside the window.
  const std::vector<int> reps(
      static_cast<size_t>(window * config.worker_arrival_rate * 2.0) + 64,
      kSaturatingPrice);

  CompetitionResult result;

  SharedMarket isolated(config);
  if (!isolated.AddJob(1, 21).ok()) return result;
  if (!isolated.PostTask(1, reps, kProcessingRate).ok()) return result;
  isolated.RunUntil(window);
  result.isolated_rate =
      static_cast<double>(CountAcceptances(isolated.Trace(1))) / window;

  SharedMarket shared(config);
  if (!shared.AddJob(1, 21).ok()) return result;
  if (!shared.AddJob(2, 22).ok()) return result;
  if (!shared.PostTask(1, reps, kProcessingRate).ok()) return result;
  if (!shared.PostTask(2, reps, kProcessingRate).ok()) return result;
  shared.RunUntil(window);
  result.shared_rate =
      static_cast<double>(CountAcceptances(shared.Trace(1))) / window;

  if (result.isolated_rate <= 0.0) return result;
  result.observed_ratio = result.shared_rate / result.isolated_rate;
  const double error = result.observed_ratio - result.expected_ratio;
  result.ok = (error < 0 ? -error : error) <= result.tolerance;
  return result;
}

struct GangResult {
  int jobs = 0;
  uint64_t tasks = 0;
  int repetitions = 0;
  double review_interval = 0.0;
  int repeats = 0;
  uint64_t trace_events = 0;
  uint32_t outcome_crc32c = 0;
  double wall_seconds = 0.0;  // median over the repeats
  double ns_per_event = 0.0;
  std::string host;
  unsigned num_cpus = 0;
  std::string build_type = HTUNE_BUILD_TYPE;
  std::string commit;
  bool ok = false;
};

/// A serve_large_jobs gang: `jobs` jobs of one group each, task counts
/// spread evenly over [lo, hi] (their sum added to `total_tasks`), budgets
/// 1.5-2.5x the minimum and the ceiling serve_e2e submits (budget + 8x the
/// minimum).
std::vector<htune::FleetJobSpec> LargeGang(int jobs, int lo, int hi, int reps,
                                           uint64_t& total_tasks) {
  std::vector<htune::FleetJobSpec> specs;
  for (int j = 0; j < jobs; ++j) {
    const int tasks = lo + (hi - lo) * (2 * j + 1) / (2 * jobs);
    total_tasks += static_cast<uint64_t>(tasks);
    const double factor = 1.5 + ((7 * j) % jobs + 0.5) / jobs;
    const long minimum = static_cast<long>(tasks) * reps;
    const long budget = std::lround(static_cast<double>(minimum) * factor);
    htune::FleetJobSpec spec;
    spec.name = "large-j" + std::to_string(j);
    spec.spec_text = "budget = " + std::to_string(budget) +
                     "\nseed = " + std::to_string(1000 + j) +
                     "\n\n[group]\nname = g0\ntasks = " +
                     std::to_string(tasks) +
                     "\nrepetitions = " + std::to_string(reps) +
                     "\nprocessing_rate = 2\ncurve = linear 1.0 0.0\n";
    spec.ceiling = budget + 8 * minimum;
    specs.push_back(std::move(spec));
  }
  return specs;
}

GangResult RunLargeGang(bool smoke, const std::string& commit) {
  GangResult result;
  result.jobs = smoke ? 4 : 16;
  result.repetitions = 3;
  result.review_interval = 50.0;
  result.repeats = smoke ? 1 : 7;
  result.commit = commit;
  char host[256] = {};
  result.host = ::gethostname(host, sizeof(host) - 1) == 0 ? host : "unknown";
  result.num_cpus = std::thread::hardware_concurrency();
  const std::vector<htune::FleetJobSpec> specs =
      LargeGang(result.jobs, smoke ? 200 : 2000, smoke ? 400 : 4000,
                result.repetitions, result.tasks);

  htune::SharedServiceConfig config;
  config.market.present = true;
  config.market.arrival_rate = 200.0;
  config.market.worker_error_prob = 0.05;
  config.market.curve = "linear 1.0 0.0";
  config.market.seed = 42;
  config.market.review_interval = result.review_interval;
  config.market.snapshot_interval = 1000;

  std::vector<double> walls;
  for (int r = 0; r < result.repeats; ++r) {
    htune::InMemoryFleetStorage provider;
    std::vector<htune::SharedJobDriver::JobRun> runs;
    for (size_t j = 0; j < specs.size(); ++j) {
      htune::SharedJobDriver::JobRun run;
      run.job_id = j + 1;
      run.spec = specs[j];
      const auto storage =
          provider.Storage(htune::FleetJobJournalPath(run.job_id));
      if (!storage.ok()) return result;
      run.storage = *storage;
      runs.push_back(std::move(run));
    }
    htune::SharedMarketService service(&provider, config);
    const auto t0 = std::chrono::steady_clock::now();
    const auto outcomes = service.RunJobs(std::move(runs));
    const auto t1 = std::chrono::steady_clock::now();
    if (!outcomes.ok()) return result;
    walls.push_back(std::chrono::duration<double>(t1 - t0).count());

    uint64_t events = 0;
    uint32_t crc = 0;
    for (const auto& outcome : *outcomes) {
      const std::string& trace = outcome.result.trace_bytes;
      uint64_t count = 0;  // EncodeTraceEvents opens with the event count
      if (!outcome.status.ok() || !htune::Decoder(trace).GetU64(&count).ok()) {
        return result;
      }
      events += count;
      crc = htune::ExtendCrc32c(crc, outcome.result.report_bytes);
      crc = htune::ExtendCrc32c(crc, trace);
    }
    if (r > 0 && (events != result.trace_events ||
                  crc != result.outcome_crc32c)) {
      return result;  // the gang is deterministic; repeats must agree
    }
    result.trace_events = events;
    result.outcome_crc32c = crc;
  }
  std::sort(walls.begin(), walls.end());
  result.wall_seconds = walls[walls.size() / 2];
  result.ns_per_event =
      result.wall_seconds * 1e9 / static_cast<double>(result.trace_events);
  result.ok = result.trace_events > 0;
  return result;
}

/// The large-gang section as a JSON object whose closing brace sits at
/// `indent`; `baseline` (an object of the same shape, written with an
/// indent two deeper, or empty) is embedded verbatim.
std::string GangJson(const GangResult& g, const std::string& baseline,
                     const std::string& indent) {
  char crc[16];
  std::snprintf(crc, sizeof(crc), "0x%08x", g.outcome_crc32c);
  std::ostringstream out;
  out.precision(17);
  const std::string field = indent + "  ";
  out << "{\n"
      << field << "\"jobs\": " << g.jobs << ",\n"
      << field << "\"tasks\": " << g.tasks << ",\n"
      << field << "\"repetitions\": " << g.repetitions << ",\n"
      << field << "\"review_interval\": " << g.review_interval << ",\n"
      << field << "\"repeats\": " << g.repeats << ",\n"
      << field << "\"trace_events\": " << g.trace_events << ",\n"
      << field << "\"outcome_crc32c\": \"" << crc << "\",\n"
      << field << "\"wall_seconds\": " << g.wall_seconds << ",\n"
      << field << "\"ns_per_event\": " << g.ns_per_event << ",\n"
      << field << "\"host\": \"" << g.host << "\",\n"
      << field << "\"num_cpus\": " << g.num_cpus << ",\n"
      << field << "\"build_type\": \"" << g.build_type << "\",\n"
      << field << "\"commit\": \"" << g.commit << "\"";
  if (!baseline.empty()) {
    out << ",\n" << field << "\"baseline\": " << baseline;
  }
  out << "\n" << indent << "}";
  return out.str();
}

int WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 2;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

int WriteReport(const std::string& path, bool smoke, int min_jobs_for_gate,
                const ThroughputResult& t, const CompetitionResult& c,
                const std::string& gang) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 2;
  }
  std::fprintf(
      f,
      "{\n"
      "  \"schema_version\": 2,\n"
      "  \"smoke\": %s,\n"
      "  \"jobs\": %d,\n"
      "  \"min_jobs_for_gate\": %d,\n"
      "  \"tasks\": %llu,\n"
      "  \"tasks_completed\": %llu,\n"
      "  \"total_events\": %llu,\n"
      "  \"wall_seconds\": %.17g,\n"
      "  \"events_per_sec\": %.17g,\n"
      "  \"competition\": {\n"
      "    \"isolated_rate\": %.17g,\n"
      "    \"shared_rate\": %.17g,\n"
      "    \"expected_ratio\": %.17g,\n"
      "    \"observed_ratio\": %.17g,\n"
      "    \"tolerance\": %.17g\n"
      "  },\n"
      "  \"large_gang\": %s\n"
      "}\n",
      smoke ? "true" : "false", t.jobs, min_jobs_for_gate,
      static_cast<unsigned long long>(t.tasks),
      static_cast<unsigned long long>(t.tasks_completed),
      static_cast<unsigned long long>(t.total_events), t.wall_seconds,
      t.events_per_sec, c.isolated_rate, c.shared_rate, c.expected_ratio,
      c.observed_ratio, c.tolerance, gang.c_str());
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

void PrintGang(const GangResult& g) {
  std::printf("large gang: %d jobs, %llu tasks x %d reps, %llu trace events "
              "in %.3f s (median of %d): %.1f ns/event, outcome crc32c "
              "0x%08x\n",
              g.jobs, static_cast<unsigned long long>(g.tasks),
              g.repetitions, static_cast<unsigned long long>(g.trace_events),
              g.wall_seconds, g.repeats, g.ns_per_event, g.outcome_crc32c);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path, gang_out_path, gang_baseline_path;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--gang-out=", 0) == 0) {
      gang_out_path = arg.substr(11);
    } else if (arg.rfind("--gang-baseline=", 0) == 0) {
      gang_baseline_path = arg.substr(16);
    } else if (arg.rfind("--commit=", 0) == 0) {
      commit = arg.substr(9);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--out=PATH] [--gang-out=PATH] "
                   "[--gang-baseline=PATH] [--commit=ID]\n",
                   argv[0]);
      return 2;
    }
  }

  if (!gang_out_path.empty()) {
    const GangResult g = RunLargeGang(smoke, commit);
    if (!g.ok) {
      std::printf("FAIL: the large gang did not run to completion\n");
      return 1;
    }
    PrintGang(g);
    // Indented to sit as the baseline inside another export's large_gang.
    return WriteText(gang_out_path, GangJson(g, "", "    ") + "\n");
  }
  std::string gang_baseline;
  if (!gang_baseline_path.empty()) {
    std::ifstream in(gang_baseline_path);
    std::stringstream text;
    text << in.rdbuf();
    gang_baseline = text.str();
    const size_t first = gang_baseline.find('{');
    const size_t last = gang_baseline.rfind('}');
    if (!in || first == std::string::npos || last == std::string::npos) {
      std::fprintf(stderr, "cannot read gang baseline %s\n",
                   gang_baseline_path.c_str());
      return 2;
    }
    gang_baseline = gang_baseline.substr(first, last - first + 1);
  }

  constexpr int kMinJobsForGate = 1000;
  const int jobs = smoke ? 64 : 1200;
  const double window = smoke ? 50.0 : 400.0;

  std::printf("shared-market bench (%s): %d concurrent jobs on one market\n",
              smoke ? "smoke" : "full", jobs);

  const ThroughputResult t = RunThroughput(jobs);
  std::printf("throughput: %llu/%llu tasks completed, %llu events in "
              "%.3f s (%.0f events/s)\n",
              static_cast<unsigned long long>(t.tasks_completed),
              static_cast<unsigned long long>(t.tasks),
              static_cast<unsigned long long>(t.total_events), t.wall_seconds,
              t.events_per_sec);

  const CompetitionResult c = RunCompetition(window);
  std::printf("competition: isolated %.3f/s, shared %.3f/s, ratio %.4f "
              "(expected %.2f +/- %.2f)\n",
              c.isolated_rate, c.shared_rate, c.observed_ratio,
              c.expected_ratio, c.tolerance);

  const GangResult g = RunLargeGang(smoke, commit);
  PrintGang(g);

  if (!out_path.empty()) {
    const int status = WriteReport(out_path, smoke, kMinJobsForGate, t, c,
                                   GangJson(g, gang_baseline, "  "));
    if (status != 0) return status;
  }

  if (!t.ok) {
    std::printf("FAIL: %llu of %llu tasks never completed\n",
                static_cast<unsigned long long>(t.tasks - t.tasks_completed),
                static_cast<unsigned long long>(t.tasks));
    return 1;
  }
  if (!smoke && t.jobs < kMinJobsForGate) {
    std::printf("FAIL: %d jobs is below the %d-job gate\n", t.jobs,
                kMinJobsForGate);
    return 1;
  }
  if (!c.ok) {
    std::printf("FAIL: competition ratio %.4f outside %.2f +/- %.2f\n",
                c.observed_ratio, c.expected_ratio, c.tolerance);
    return 1;
  }
  if (!g.ok) {
    std::printf("FAIL: the large gang did not run to completion\n");
    return 1;
  }
  std::printf("PASS: %d jobs shared one market; competition halves the "
              "isolated rate; the large gang completed\n",
              t.jobs);
  return 0;
}
