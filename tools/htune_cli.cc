// htune_cli — plan and simulate crowdsourcing budget allocations from a
// job-spec file.
//
//   htune_cli plan <spec> [--allocator=ra|ra-exact|ha|ea|rep-even|task-even]
//   htune_cli deadline <spec> <deadline> [--objective=ph1|most-difficult]
//   htune_cli simulate <spec> [--allocator=...] [--runs=N]
//   htune_cli run-durable <spec> --journal=PATH [--budget=N]
//                                [--snapshot-interval=N]
//   htune_cli run-fleet <fleet-spec> --dir=PATH [--max-running=N]
//   htune_cli resume-fleet --dir=PATH [--max-running=N] [--resume-parked]
//   htune_cli serve <fleet-spec> --dir=PATH --socket=PATH [--max-running=N]
//   htune_cli submit-jobs <fleet-spec> --socket=PATH [--run] [--shutdown]
//   htune_cli scrape --socket=PATH [--out=PATH]
//   htune_cli inspect {dump,verify,ledger,manifest} <file>
//
// Every command accepts --metrics=PATH: after the command finishes, the
// observability registry (counters/gauges/histograms) and the span ring are
// exported as schema-versioned JSON to PATH, or as a human-readable table to
// stdout when PATH is "-". See DESIGN.md §8.
//
// The spec format is documented in src/spec/job_spec.h (and the paper
// mapping in DESIGN.md).

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "control/fault_tolerant_executor.h"
#include "control/market_metrics.h"
#include "crowddb/executor.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "durability/journal.h"
#include "market/simulator.h"
#include "market/trace_io.h"
#include "fleet/supervisor.h"
#include "platform/inspect.h"
#include "platform/server.h"
#include "platform/service.h"
#include "platform/wire.h"
#include "spec/fleet_spec.h"
#include "spec/job_spec.h"
#include "stats/descriptive.h"
#include "tuning/baselines.h"
#include "tuning/deadline_allocator.h"
#include "tuning/evaluator.h"
#include "tuning/even_allocator.h"
#include "tuning/heterogeneous_allocator.h"
#include "tuning/quantile.h"
#include "tuning/repetition_allocator.h"

namespace {

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage:\n"
      "  %s plan <spec> [--allocator=NAME]\n"
      "  %s deadline <spec> <deadline> [--objective=ph1|most-difficult]\n"
      "                               [--confidence=Q] (probabilistic: min\n"
      "                               cost with P(job done by deadline)>=Q)\n"
      "  %s simulate <spec> [--allocator=NAME] [--runs=N]\n"
      "  %s run-durable <spec> --journal=PATH [--budget=N]\n"
      "                               [--snapshot-interval=N] (fault-\n"
      "                               tolerant run journaled to PATH; re-run\n"
      "                               the same command after a crash to\n"
      "                               resume from the last snapshot)\n"
      "  %s run-fleet <fleet-spec> --dir=PATH [--max-running=N]\n"
      "                               (submit every job of the fleet spec\n"
      "                               and run them to completion; the fleet\n"
      "                               manifest and per-job journals live\n"
      "                               under PATH)\n"
      "  %s resume-fleet --dir=PATH [--max-running=N] [--resume-parked]\n"
      "                               (recover a killed fleet: finished jobs\n"
      "                               are not re-run, interrupted jobs\n"
      "                               resume from their journals)\n"
      "  %s serve <fleet-spec> --dir=PATH --socket=PATH [--max-running=N]\n"
      "                               (shared-market tuning service: jobs\n"
      "                               submitted over the socket compete for\n"
      "                               one worker stream; interrupted work\n"
      "                               resumes on startup)\n"
      "  %s submit-jobs <fleet-spec> --socket=PATH [--run] [--shutdown]\n"
      "  %s scrape --socket=PATH [--out=PATH]\n"
      "  %s inspect dump|verify|ledger|manifest <journal-or-manifest>\n"
      "allocators: ra (default), ra-exact, ha, ea, rep-even, task-even\n"
      "all but inspect accept --metrics=PATH (JSON; '-' prints a table)\n",
      argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0);
}

std::unique_ptr<htune::BudgetAllocator> MakeAllocator(
    const std::string& name) {
  if (name == "ra") return std::make_unique<htune::RepetitionAllocator>();
  if (name == "ra-exact") {
    return std::make_unique<htune::RepetitionAllocator>(
        htune::RepetitionAllocator::Mode::kExactDp);
  }
  if (name == "ha") return std::make_unique<htune::HeterogeneousAllocator>();
  if (name == "ea") return std::make_unique<htune::EvenAllocator>();
  if (name == "rep-even") return std::make_unique<htune::RepEvenAllocator>();
  if (name == "task-even") {
    return std::make_unique<htune::TaskEvenAllocator>();
  }
  return nullptr;
}

std::string FlagValue(int argc, char** argv, const std::string& flag,
                      const std::string& fallback) {
  const std::string prefix = flag + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return fallback;
}

/// The problem the tuners should solve: abandonment-corrected when the spec
/// declares a fault model, the spec's own problem otherwise.
htune::TuningProblem TunedProblem(const htune::JobSpec& spec) {
  return htune::ProblemWithAbandonment(
      spec.problem, {spec.abandon_prob, spec.abandon_hold_rate});
}

int Plan(const htune::JobSpec& spec, const std::string& allocator_name) {
  const auto allocator = MakeAllocator(allocator_name);
  if (allocator == nullptr) {
    std::fprintf(stderr, "unknown allocator '%s'\n", allocator_name.c_str());
    return 2;
  }
  const htune::TuningProblem problem = TunedProblem(spec);
  const auto alloc = allocator->Allocate(problem);
  if (!alloc.ok()) {
    std::fprintf(stderr, "%s\n", alloc.status().ToString().c_str());
    return 1;
  }
  std::printf("allocator : %s\n", allocator->Name().c_str());
  if (spec.abandon_prob > 0.0) {
    std::printf("fault model: abandon_prob %.3f, hold rate %.3f "
                "(rates renewal-corrected)\n",
                spec.abandon_prob, spec.abandon_hold_rate);
  }
  std::printf("allocation: %s\n", alloc->ToString().c_str());
  std::printf("cost      : %ld of %ld budget units\n", alloc->TotalCost(),
              problem.budget);
  std::printf("E[phase-1 latency of the job]: %.4f\n",
              htune::ExpectedPhase1Latency(problem, *alloc));
  const auto per_group =
      htune::ExpectedPhase1GroupLatencies(problem, *alloc);
  for (size_t g = 0; g < problem.groups.size(); ++g) {
    const htune::TaskGroup& group = problem.groups[g];
    std::printf(
        "  %-24s E[phase-1] %.4f + E[phase-2] %.4f per task\n",
        group.name.c_str(), per_group[g],
        group.repetitions / group.processing_rate);
  }
  return 0;
}

int Deadline(const htune::JobSpec& spec, double deadline,
             const std::string& objective_name, double confidence) {
  const htune::TuningProblem problem = TunedProblem(spec);
  htune::StatusOr<htune::DeadlinePlan> plan =
      htune::InvalidArgumentError("unset");
  std::string describes;
  if (confidence > 0.0) {
    plan = htune::SolveQuantileDeadline(problem, deadline, confidence);
    describes = "P(job done)";
  } else if (objective_name == "ph1") {
    plan = htune::SolveDeadline(problem, deadline,
                                htune::DeadlineObjective::kPhase1Sum);
    describes = "E[phase-1 sum]";
  } else if (objective_name == "most-difficult") {
    plan = htune::SolveDeadline(problem, deadline,
                                htune::DeadlineObjective::kMostDifficult);
    describes = "E[most difficult task]";
  } else {
    std::fprintf(stderr, "unknown objective '%s'\n", objective_name.c_str());
    return 2;
  }
  if (!plan.ok()) {
    std::fprintf(stderr, "%s\n", plan.status().ToString().c_str());
    return 1;
  }
  std::printf("cheapest plan meeting deadline %.4f:\n", deadline);
  for (size_t g = 0; g < spec.problem.groups.size(); ++g) {
    std::printf("  %-24s %d units per repetition\n",
                spec.problem.groups[g].name.c_str(), plan->prices[g]);
  }
  std::printf("cost %ld units, achieves %s = %.4f\n", plan->cost,
              describes.c_str(), plan->achieved);
  return 0;
}

int Simulate(const htune::JobSpec& spec, const std::string& allocator_name,
             int runs) {
  const auto allocator = MakeAllocator(allocator_name);
  if (allocator == nullptr) {
    std::fprintf(stderr, "unknown allocator '%s'\n", allocator_name.c_str());
    return 2;
  }
  // Tune against the corrected rates, but post with the raw curves: the
  // market applies abandonment itself.
  const auto alloc = allocator->Allocate(TunedProblem(spec));
  if (!alloc.ok()) {
    std::fprintf(stderr, "%s\n", alloc.status().ToString().c_str());
    return 1;
  }
  htune::RunningStats latency;
  for (int r = 0; r < runs; ++r) {
    htune::MarketConfig config =
        htune::MarketConfigFor(spec, spec.seed + static_cast<uint64_t>(r));
    config.record_trace = false;
    htune::MarketSimulator market(config);
    const std::vector<htune::QuestionSpec> questions(
        static_cast<size_t>(spec.problem.TotalTasks()));
    const auto run =
        htune::ExecuteJob(market, spec.problem, *alloc, questions);
    if (!run.ok()) {
      std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
      return 1;
    }
    latency.Add(run->latency);
    htune::PublishMarketMetrics(market);
    if (r == 0) {
      const auto summary =
          htune::SummarizeOutcomes(market.CompletedOutcomes());
      if (summary.ok()) {
        std::printf("first run: %s\n",
                    htune::SummaryToString(*summary).c_str());
      }
    }
  }
  std::printf("%s over %d runs: mean job latency %.4f (+/- %.4f se)\n",
              allocator->Name().c_str(), runs, latency.Mean(),
              latency.StdError());
  return 0;
}

int RunDurable(const htune::JobSpec& spec, const std::string& journal_path,
               long ceiling, int snapshot_interval) {
  if (journal_path.empty()) {
    std::fprintf(stderr, "run-durable requires --journal=PATH\n");
    return 2;
  }
  htune::FileJournalStorage storage(journal_path);
  const auto existing = htune::OpenJournal(storage);
  if (!existing.ok()) {
    std::fprintf(stderr, "%s\n", existing.status().ToString().c_str());
    return 1;
  }
  if (existing->records.empty()) {
    std::printf("journal %s: fresh run\n", journal_path.c_str());
  } else {
    std::printf("journal %s: resuming with %zu intact records%s\n",
                journal_path.c_str(), existing->records.size(),
                existing->truncated_tail ? " (torn tail dropped)" : "");
  }

  const htune::RepetitionAllocator allocator;
  htune::FaultTolerantConfig config;
  config.budget = ceiling;
  config.abandonment = {spec.abandon_prob, spec.abandon_hold_rate};
  const htune::FaultTolerantExecutor executor(&allocator, config);

  const htune::MarketConfig market = htune::MarketConfigFor(spec, spec.seed);

  htune::DurabilityConfig durability;
  durability.storage = &storage;
  durability.snapshot_interval = snapshot_interval;
  const std::vector<htune::QuestionSpec> questions(
      static_cast<size_t>(spec.problem.TotalTasks()));
  const auto report = executor.RunDurable(market, spec.problem, questions,
                                          durability);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "job latency %.4f, spent %ld units, %d reviews, %d stragglers, "
      "%d escalations%s\n",
      report->latency, report->spent, report->reviews, report->stragglers,
      report->escalations, report->degraded ? " (degraded)" : "");
  const auto final_journal = htune::OpenJournal(storage);
  if (final_journal.ok()) {
    std::printf("journal now holds %zu records (%llu bytes); verify with "
                "htune_cli inspect verify %s\n",
                final_journal->records.size(),
                static_cast<unsigned long long>(final_journal->valid_bytes),
                journal_path.c_str());
  }
  return 0;
}

void PrintFleetOutcome(const htune::FleetSupervisor& fleet,
                       const htune::FleetRunStats& stats) {
  std::printf(
      "fleet: %d dispatched, %d completed, %d restarts, %d quarantined, "
      "%d watchdog parks, %d exhausted parks, %d breaker parks\n",
      stats.dispatched, stats.completed, stats.restarts, stats.quarantined,
      stats.watchdog_parks, stats.exhausted_parks, stats.breaker_parks);
  for (const auto& [job_id, entry] : fleet.jobs()) {
    std::printf("  job %-6llu %-24s %-11s restarts %d  journal %llu B%s%s\n",
                static_cast<unsigned long long>(job_id),
                entry.spec.name.c_str(),
                std::string(htune::FleetJobStateToString(entry.state)).c_str(),
                entry.restarts,
                static_cast<unsigned long long>(entry.journal_bytes),
                entry.detail.empty() ? "" : "  ", entry.detail.c_str());
  }
}

/// Loads a fleet spec and its validated FleetConfig (a positive
/// `max_running_override` sets the lane count). Returns 0, or the exit code
/// after printing the error: 1 for an unloadable spec, 2 for a bad config.
int LoadFleetConfig(const std::string& fleet_spec_path,
                    int max_running_override, htune::FleetSpec* fleet_spec,
                    htune::FleetConfig* config) {
  auto loaded = htune::LoadFleetSpec(fleet_spec_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  *fleet_spec = std::move(*loaded);
  config->max_running = max_running_override > 0 ? max_running_override
                                                 : fleet_spec->max_running;
  config->max_admitted = fleet_spec->max_admitted;
  const htune::Status valid = htune::ValidateFleetConfig(*config);
  if (!valid.ok()) {
    std::fprintf(stderr, "%s\n", valid.ToString().c_str());
    return 2;
  }
  return 0;
}

int RunFleet(const std::string& fleet_spec_path, const std::string& dir,
             int max_running_override) {
  if (dir.empty()) {
    std::fprintf(stderr, "run-fleet requires --dir=PATH\n");
    return 2;
  }
  htune::FleetSpec fleet_spec;
  htune::FleetConfig config;
  const int loaded = LoadFleetConfig(fleet_spec_path, max_running_override,
                                     &fleet_spec, &config);
  if (loaded != 0) {
    return loaded;
  }
  htune::FileFleetStorage provider(dir);
  htune::FleetSupervisor fleet(&provider, config);
  const htune::Status opened = fleet.Open();
  if (!opened.ok()) {
    std::fprintf(stderr, "%s\n", opened.ToString().c_str());
    return 1;
  }
  for (const htune::FleetJobSpec& job : fleet_spec.jobs) {
    const auto id = fleet.Submit(job);
    if (!id.ok()) {
      std::fprintf(stderr, "submit %s: %s\n", job.name.c_str(),
                   id.status().ToString().c_str());
      if (id.status().code() != htune::StatusCode::kResourceExhausted) {
        return 1;  // admission shedding is expected; anything else is not
      }
    }
  }
  std::printf("fleet %s: %zu jobs submitted, %d lanes\n", dir.c_str(),
              fleet_spec.jobs.size(), config.max_running);
  const auto stats = fleet.RunAll();
  if (!stats.ok()) {
    std::fprintf(stderr, "fleet died: %s\n",
                 stats.status().ToString().c_str());
    std::fprintf(stderr, "resume with: htune_cli resume-fleet --dir=%s\n",
                 dir.c_str());
    return 1;
  }
  PrintFleetOutcome(fleet, *stats);
  return 0;
}

int ResumeFleet(const std::string& dir, int max_running_override,
                bool resume_parked) {
  if (dir.empty()) {
    std::fprintf(stderr, "resume-fleet requires --dir=PATH\n");
    return 2;
  }
  htune::FileFleetStorage provider(dir);
  htune::FleetConfig config;
  if (max_running_override > 0) {
    config.max_running = max_running_override;
  }
  config.resume_parked = resume_parked;
  htune::FleetSupervisor fleet(&provider, config);
  const htune::Status recovered = fleet.Recover();
  if (!recovered.ok()) {
    std::fprintf(stderr, "%s\n", recovered.ToString().c_str());
    return 1;
  }
  if (!fleet.orphans().empty()) {
    std::printf("quarantined %zu orphan journal(s) with no manifest entry\n",
                fleet.orphans().size());
  }
  const auto stats = fleet.RunAll();
  if (!stats.ok()) {
    std::fprintf(stderr, "fleet died again: %s\n",
                 stats.status().ToString().c_str());
    return 1;
  }
  PrintFleetOutcome(fleet, *stats);
  return 0;
}

std::string WireError(const std::string& message) {
  return htune::SerializeWireObject({{"ok", "false"}, {"error", message}});
}

/// htune_serve: a long-running shared-market tuning service. The fleet
/// spec provides the [shared_market] knobs and admission caps; jobs arrive
/// as submit requests over the Unix-domain socket (one flat JSON object
/// per line, see src/platform/wire.h). If the fleet directory already
/// holds interrupted work (a previous serve was killed mid-run), it is
/// resumed to completion before the socket opens, so a restart alone is
/// the whole recovery story.
int Serve(const std::string& fleet_spec_path, const std::string& dir,
          const std::string& socket_path, int max_running_override) {
  if (dir.empty() || socket_path.empty()) {
    std::fprintf(stderr, "serve requires --dir=PATH and --socket=PATH\n");
    return 2;
  }
  htune::FleetSpec fleet_spec;
  htune::FleetConfig config;
  const int loaded = LoadFleetConfig(fleet_spec_path, max_running_override,
                                     &fleet_spec, &config);
  if (loaded != 0) {
    return loaded;
  }
  htune::FileFleetStorage provider(dir);
  htune::FleetSupervisor fleet(&provider, config);
  const htune::Status recovered = fleet.Recover();
  if (!recovered.ok()) {
    std::fprintf(stderr, "%s\n", recovered.ToString().c_str());
    return 1;
  }
  htune::SharedServiceConfig service_config;
  service_config.market = fleet_spec.shared_market;
  htune::SharedMarketService service(&provider, service_config);
  // Convenience: a serve spec may carry [job] sections; they seed a fresh
  // directory exactly once (a recovered fleet already knows its jobs).
  if (fleet.jobs().empty()) {
    for (const htune::FleetJobSpec& job : fleet_spec.jobs) {
      const auto id = fleet.Submit(job);
      if (!id.ok() &&
          id.status().code() != htune::StatusCode::kResourceExhausted) {
        std::fprintf(stderr, "submit %s: %s\n", job.name.c_str(),
                     id.status().ToString().c_str());
        return 1;
      }
    }
  }
  bool runnable = false;
  for (const auto& [job_id, entry] : fleet.jobs()) {
    (void)job_id;
    if (entry.state == htune::FleetJobState::kPending ||
        entry.state == htune::FleetJobState::kRunning) {
      runnable = true;
    }
  }
  if (runnable) {
    std::printf("serve: running %s's pending/interrupted jobs before "
                "accepting requests\n", dir.c_str());
    const auto stats = fleet.RunAllShared(&service);
    if (!stats.ok()) {
      std::fprintf(stderr, "fleet died during startup run: %s\n",
                   stats.status().ToString().c_str());
      return 1;
    }
    PrintFleetOutcome(fleet, *stats);
  }
  htune::UnixLineServer server(socket_path);
  const htune::Status listening = server.Listen();
  if (!listening.ok()) {
    std::fprintf(stderr, "%s\n", listening.ToString().c_str());
    return 1;
  }
  std::printf("serving fleet %s on %s\n", dir.c_str(), socket_path.c_str());
  std::fflush(stdout);
  bool fleet_died = false;
  const auto handler = [&](const std::string& line,
                           bool* shutdown) -> std::string {
    const auto request = htune::ParseWireObject(line);
    if (!request.ok()) {
      return WireError(request.status().ToString());
    }
    const std::string* cmd = htune::FindWireField(*request, "cmd");
    if (cmd == nullptr) {
      return WireError("missing 'cmd' field");
    }
    if (*cmd == "submit") {
      const std::string* spec_text =
          htune::FindWireField(*request, "spec_text");
      if (spec_text == nullptr) {
        return WireError("submit needs a 'spec_text' field");
      }
      const auto parsed_job = htune::ParseJobSpec(*spec_text);
      if (!parsed_job.ok()) {
        return WireError(parsed_job.status().ToString());
      }
      htune::FleetJobSpec job;
      job.spec_text = *spec_text;
      const auto field = [&](const char* key, const std::string& fallback) {
        const std::string* value = htune::FindWireField(*request, key);
        return value == nullptr ? fallback : *value;
      };
      job.name = field("name", "wire-job");
      job.priority = std::atoi(field("priority", "0").c_str());
      job.ceiling = std::atol(field("ceiling", "-1").c_str());
      job.seed_override = std::atol(field("seed_override", "-1").c_str());
      job.snapshot_interval =
          std::atoi(field("snapshot_interval", "8").c_str());
      const auto id = fleet.Submit(job);
      if (!id.ok()) {
        return WireError(id.status().ToString());
      }
      return htune::SerializeWireObject(
          {{"ok", "true"}, {"job_id", std::to_string(*id)}});
    }
    if (*cmd == "run") {
      if (fleet_died) {
        return WireError("fleet is dead; restart the server to recover");
      }
      const auto stats = fleet.RunAllShared(&service);
      if (!stats.ok()) {
        fleet_died = true;
        return WireError(stats.status().ToString());
      }
      return htune::SerializeWireObject(
          {{"ok", "true"},
           {"dispatched", std::to_string(stats->dispatched)},
           {"completed", std::to_string(stats->completed)},
           {"restarts", std::to_string(stats->restarts)},
           {"quarantined", std::to_string(stats->quarantined)}});
    }
    if (*cmd == "status") {
      htune::WireFields fields{{"ok", "true"}};
      for (const auto& [job_id, entry] : fleet.jobs()) {
        fields.emplace_back(
            "job_" + std::to_string(job_id),
            std::string(htune::FleetJobStateToString(entry.state)) +
                (entry.detail.empty() ? "" : " " + entry.detail));
      }
      return htune::SerializeWireObject(fields);
    }
    if (*cmd == "scrape") {
      const htune::obs::MetricsSnapshot snapshot =
          htune::obs::GlobalMetrics().Snapshot();
      // Spans are not drained: a scrape must not consume state another
      // scrape (or the exit-time --metrics export) still wants.
      const auto json = htune::obs::MetricsToJson(snapshot, {});
      if (!json.ok()) {
        return WireError(json.status().ToString());
      }
      const auto& counts = service.Counts();
      return htune::SerializeWireObject(
          {{"ok", "true"},
           {"gangs", std::to_string(counts.gangs)},
           {"jobs_completed", std::to_string(counts.jobs_completed)},
           {"reviews", std::to_string(counts.reviews)},
           {"snapshots", std::to_string(counts.snapshots)},
           {"resumes", std::to_string(counts.resumes)},
           {"metrics", *json}});
    }
    if (*cmd == "shutdown") {
      *shutdown = true;
      return htune::SerializeWireObject({{"ok", "true"}});
    }
    return WireError("unknown cmd '" + *cmd + "'");
  };
  const htune::Status served = server.Serve(handler);
  if (!served.ok()) {
    std::fprintf(stderr, "%s\n", served.ToString().c_str());
    return 1;
  }
  std::printf("serve: clean shutdown\n");
  return 0;
}

/// Client side of serve: submit every job of a fleet spec over the socket,
/// optionally asking the server to run the fleet and/or shut down after.
int SubmitJobs(const std::string& fleet_spec_path,
               const std::string& socket_path, bool run_after,
               bool shutdown_after) {
  if (socket_path.empty()) {
    std::fprintf(stderr, "submit-jobs requires --socket=PATH\n");
    return 2;
  }
  const auto fleet_spec = htune::LoadFleetSpec(fleet_spec_path);
  if (!fleet_spec.ok()) {
    std::fprintf(stderr, "%s\n", fleet_spec.status().ToString().c_str());
    return 1;
  }
  const auto request = [&](const htune::WireFields& fields) -> int {
    const auto reply =
        htune::SendUnixRequest(socket_path,
                               htune::SerializeWireObject(fields));
    if (!reply.ok()) {
      std::fprintf(stderr, "%s\n", reply.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", reply->c_str());
    const auto parsed = htune::ParseWireObject(*reply);
    if (!parsed.ok()) {
      std::fprintf(stderr, "bad reply: %s\n",
                   parsed.status().ToString().c_str());
      return 1;
    }
    const std::string* ok = htune::FindWireField(*parsed, "ok");
    return ok != nullptr && *ok == "true" ? 0 : 1;
  };
  for (const htune::FleetJobSpec& job : fleet_spec->jobs) {
    const int rc = request(
        {{"cmd", "submit"},
         {"name", job.name},
         {"priority", std::to_string(job.priority)},
         {"ceiling", std::to_string(job.ceiling)},
         {"seed_override", std::to_string(job.seed_override)},
         {"snapshot_interval", std::to_string(job.snapshot_interval)},
         {"spec_text", job.spec_text}});
    if (rc != 0) {
      return rc;
    }
  }
  if (run_after) {
    const int rc = request({{"cmd", "run"}});
    if (rc != 0) {
      return rc;
    }
  }
  if (shutdown_after) {
    return request({{"cmd", "shutdown"}});
  }
  return 0;
}

/// One scrape round-trip: prints the server's metrics JSON to stdout (or
/// PATH) and the service counters to stderr.
int Scrape(const std::string& socket_path, const std::string& out_path) {
  if (socket_path.empty()) {
    std::fprintf(stderr, "scrape requires --socket=PATH\n");
    return 2;
  }
  const auto reply = htune::SendUnixRequest(
      socket_path, htune::SerializeWireObject({{"cmd", "scrape"}}));
  if (!reply.ok()) {
    std::fprintf(stderr, "%s\n", reply.status().ToString().c_str());
    return 1;
  }
  const auto parsed = htune::ParseWireObject(*reply);
  if (!parsed.ok()) {
    std::fprintf(stderr, "bad reply: %s\n",
                 parsed.status().ToString().c_str());
    return 1;
  }
  const std::string* ok = htune::FindWireField(*parsed, "ok");
  const std::string* metrics = htune::FindWireField(*parsed, "metrics");
  if (ok == nullptr || *ok != "true" || metrics == nullptr) {
    const std::string* error = htune::FindWireField(*parsed, "error");
    std::fprintf(stderr, "scrape failed: %s\n",
                 error != nullptr ? error->c_str() : reply->c_str());
    return 1;
  }
  for (const char* key :
       {"gangs", "jobs_completed", "reviews", "snapshots", "resumes"}) {
    const std::string* value = htune::FindWireField(*parsed, key);
    if (value != nullptr) {
      std::fprintf(stderr, "%s %s\n", key, value->c_str());
    }
  }
  if (out_path.empty() || out_path == "-") {
    std::printf("%s\n", metrics->c_str());
    return 0;
  }
  std::FILE* file = std::fopen(out_path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(file, "%s\n", metrics->c_str());
  std::fclose(file);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage(argv[0]);
    return 2;
  }
  const std::string command = argv[1];
  if (command == "inspect") {
    std::string report;
    const int exit_code =
        argc == 4 ? htune::InspectFile(argv[2], argv[3], &report) : 2;
    std::fputs(report.c_str(), stdout);
    if (exit_code == 2) {
      Usage(argv[0]);
    }
    return exit_code;
  }
  const std::string metrics_path = FlagValue(argc, argv, "--metrics", "");
  int exit_code = 2;
  bool known_command = true;
  if (command == "serve" || command == "submit-jobs" ||
      command == "scrape") {
    const std::string socket_path = FlagValue(argc, argv, "--socket", "");
    if (command == "scrape") {
      exit_code = Scrape(socket_path, FlagValue(argc, argv, "--out", ""));
    } else {
      if (argc < 3 || argv[2][0] == '-') {
        std::fprintf(stderr, "%s requires a fleet spec path\n",
                     command.c_str());
        Usage(argv[0]);
        return 2;
      }
      if (command == "serve") {
        const int max_running =
            std::atoi(FlagValue(argc, argv, "--max-running", "0").c_str());
        exit_code = Serve(argv[2], FlagValue(argc, argv, "--dir", ""),
                          socket_path, max_running);
      } else {
        bool run_after = false;
        bool shutdown_after = false;
        for (int i = 2; i < argc; ++i) {
          if (std::strcmp(argv[i], "--run") == 0) run_after = true;
          if (std::strcmp(argv[i], "--shutdown") == 0) shutdown_after = true;
        }
        exit_code =
            SubmitJobs(argv[2], socket_path, run_after, shutdown_after);
      }
    }
    if (!metrics_path.empty()) {
      const htune::Status status =
          htune::obs::WriteGlobalMetrics(metrics_path);
      if (!status.ok()) {
        std::fprintf(stderr, "--metrics: %s\n", status.ToString().c_str());
        if (exit_code == 0) exit_code = 1;
      }
    }
    return exit_code;
  }
  if (command == "run-fleet" || command == "resume-fleet") {
    // Fleet commands take a fleet directory, not a job spec.
    const std::string dir = FlagValue(argc, argv, "--dir", "");
    const int max_running =
        std::atoi(FlagValue(argc, argv, "--max-running", "0").c_str());
    if (command == "run-fleet") {
      if (argc < 3 || argv[2][0] == '-') {
        std::fprintf(stderr, "run-fleet requires a fleet spec path\n");
        Usage(argv[0]);
        return 2;
      }
      exit_code = RunFleet(argv[2], dir, max_running);
    } else {
      bool resume_parked = false;
      for (int i = 2; i < argc; ++i) {
        if (std::strcmp(argv[i], "--resume-parked") == 0) {
          resume_parked = true;
        }
      }
      exit_code = ResumeFleet(dir, max_running, resume_parked);
    }
    if (!metrics_path.empty()) {
      const htune::Status status =
          htune::obs::WriteGlobalMetrics(metrics_path);
      if (!status.ok()) {
        std::fprintf(stderr, "--metrics: %s\n", status.ToString().c_str());
        if (exit_code == 0) exit_code = 1;
      }
    }
    return exit_code;
  }
  if (argc < 3) {
    Usage(argv[0]);
    return 2;
  }
  const auto spec = htune::LoadJobSpec(argv[2]);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return 1;
  }
  const std::string allocator_name =
      FlagValue(argc, argv, "--allocator", "ra");
  if (command == "plan") {
    exit_code = Plan(*spec, allocator_name);
  } else if (command == "deadline") {
    if (argc < 4) {
      Usage(argv[0]);
      return 2;
    }
    const double deadline = std::atof(argv[3]);
    const double confidence =
        std::atof(FlagValue(argc, argv, "--confidence", "0").c_str());
    exit_code =
        Deadline(*spec, deadline,
                 FlagValue(argc, argv, "--objective", "ph1"), confidence);
  } else if (command == "simulate") {
    const int runs = std::atoi(FlagValue(argc, argv, "--runs", "20").c_str());
    if (runs < 1) {
      std::fprintf(stderr, "--runs must be >= 1\n");
      return 2;
    }
    exit_code = Simulate(*spec, allocator_name, runs);
  } else if (command == "run-durable") {
    const long ceiling =
        std::atol(FlagValue(argc, argv, "--budget", "0").c_str());
    const int snapshot_interval = std::atoi(
        FlagValue(argc, argv, "--snapshot-interval", "8").c_str());
    exit_code = RunDurable(*spec, FlagValue(argc, argv, "--journal", ""),
                           ceiling, snapshot_interval);
  } else {
    known_command = false;
  }
  if (!known_command) {
    Usage(argv[0]);
    return 2;
  }
  if (!metrics_path.empty()) {
    const htune::Status status = htune::obs::WriteGlobalMetrics(metrics_path);
    if (!status.ok()) {
      std::fprintf(stderr, "--metrics: %s\n", status.ToString().c_str());
      if (exit_code == 0) exit_code = 1;
    }
  }
  return exit_code;
}
