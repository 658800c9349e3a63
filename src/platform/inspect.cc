#include "platform/inspect.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <type_traits>
#include <vector>

#include "durability/journal.h"
#include "durability/ledger.h"
#include "durability/manifest.h"
#include "durability/records.h"
#include "durability/recovery.h"
#include "durability/snapshot.h"
#include "platform/service.h"
#include "platform/session.h"

namespace htune {

namespace {

enum class JournalKind { kController, kServeJob, kService, kUndecodable };

std::string JournalKindName(JournalKind kind) {
  constexpr const char* kNames[] = {"controller journal", "serve job journal",
                                    "service journal", "undecodable journal"};
  return kNames[static_cast<int>(kind)];
}

__attribute__((format(printf, 1, 2))) std::string Format(const char* format,
                                                         ...) {
  va_list args;
  va_start(args, format);
  va_list sizing;
  va_copy(sizing, args);
  const int size = std::vsnprintf(nullptr, 0, format, sizing);
  va_end(sizing);
  std::string text(size > 0 ? static_cast<size_t>(size) : 0, '\0');
  std::vsnprintf(text.data(), text.size() + 1, format, args);
  va_end(args);
  return text;
}

/// Joins `items` as "[a b c]", rendering each with `show`.
template <typename Items, typename Show>
std::string List(const Items& items, Show show, const char* separator = " ") {
  std::string text;
  for (const auto& item : items) {
    text += (text.empty() ? "" : separator) + show(item);
  }
  return "[" + text + "]";
}

template <typename T>
std::string Show(const T& value) {
  if constexpr (std::is_integral_v<T>) {
    return std::to_string(value);
  } else if constexpr (std::is_floating_point_v<T>) {
    return Format("%.6f", value);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return "'" + value + "'";
  } else if constexpr (std::is_same_v<T, std::vector<int>>) {
    return List(value, Show<int>, ",");
  } else {
    return List(value, [](const auto& pair) {
      return Show(pair.first) + ":" + Show(pair.second);
    });
  }
}

/// Decodes `payload` as `Record` and renders every field as name=value.
template <typename Record>
StatusOr<std::string> Describe(std::string_view payload) {
  Record record;
  HTUNE_RETURN_IF_ERROR(DecodeRecord(payload, &record));
  std::string text;
  std::apply(
      [&](const auto&... field) {
        ((text += (text.empty() ? "" : " ") + std::string(field.first) + "=" +
                  Show(record.*field.second)),
         ...);
      },
      Record::kFields);
  return text;
}

/// "[name=count ...]" over `counts`, naming each key with `name`.
template <typename Kind, typename Name>
std::string Tally(const std::map<Kind, int>& counts, Name name) {
  return List(counts, [&](const auto& entry) {
    return std::string(name(entry.first)) + "=" +
           std::to_string(entry.second);
  });
}

std::string TraceTally(const std::vector<TraceEvent>& trace) {
  std::map<TraceEventKind, int> counts;
  for (const TraceEvent& event : trace) {
    ++counts[event.kind];
  }
  return Tally(counts, TraceEventKindToString);
}

/// A market-state snapshot blob's summary (DecodeMarketState reads v2
/// only). Pending events are tallied by their MarketEvent::Kind value,
/// trace events by kind name.
StatusOr<std::string> DescribeMarketState(std::string_view blob) {
  HTUNE_ASSIGN_OR_RETURN(const MarketState state, DecodeMarketState(blob));
  std::map<int, int> queue;
  for (const MarketState::Event& event : state.events) {
    ++queue[event.kind];
  }
  return Format(
      "v2 now=%.6f tasks_created=%" PRIu64 " events_seen=%" PRIu64
      " spent=%ld open=%zu completed=%zu queue=%s trace=%s",
      state.now, state.next_task, state.event_sequence, state.total_spent,
      state.open_tasks.size(), state.completed.size(),
      Tally(queue, [](int kind) { return "kind" + std::to_string(kind); })
          .c_str(),
      TraceTally(state.trace).c_str());
}

/// A serve job's kRunEnd, decoded down to its session report and trace.
StatusOr<SessionReport> DecodeJobRunEnd(std::string_view payload,
                                        std::vector<TraceEvent>* trace) {
  JobRunEndRecord record;
  HTUNE_RETURN_IF_ERROR(DecodeRecord(payload, &record));
  SessionReport report;
  HTUNE_RETURN_IF_ERROR(DecodeSessionReport(record.report, &report));
  Decoder trace_decoder(record.trace);
  HTUNE_RETURN_IF_ERROR(DecodeTraceEvents(trace_decoder, *trace));
  HTUNE_RETURN_IF_ERROR(trace_decoder.ExpectDone());
  return report;
}

StatusOr<std::string> DescribeRecord(JournalKind kind,
                                     const JournalRecord& record) {
  const std::string_view payload = record.payload;
  const JournalRecordType type = record.type;
  if (kind == JournalKind::kController) {
    switch (type) {
      case JournalRecordType::kRunStart:
        return Describe<RunStartRecord>(payload);
      case JournalRecordType::kPost:
        return Describe<PostRecord>(payload);
      case JournalRecordType::kReprice:
        return Describe<RepriceRecord>(payload);
      case JournalRecordType::kPayment:
        return Describe<PaymentRecord>(payload);
      case JournalRecordType::kCompletion:
        return Describe<CompletionRecord>(payload);
      case JournalRecordType::kReviewEnd:
        return Describe<ReviewEndRecord>(payload);
      case JournalRecordType::kSnapshot: {
        std::string market;
        std::string executor;
        HTUNE_RETURN_IF_ERROR(
            DurableContext::DecodeSnapshotPayload(payload, &market, &executor));
        HTUNE_ASSIGN_OR_RETURN(const std::string summary,
                               DescribeMarketState(market));
        return Format("market_blob=%zuB (%s) executor_blob=%zuB",
                      market.size(), summary.c_str(), executor.size());
      }
      case JournalRecordType::kRunEnd:
        return Describe<RunEndRecord>(payload);
    }
  } else if (kind == JournalKind::kServeJob) {
    if (type == JournalRecordType::kRunStart) {
      return Describe<JobRunStartRecord>(payload);
    }
    if (type == JournalRecordType::kRunEnd) {
      std::vector<TraceEvent> trace;
      HTUNE_ASSIGN_OR_RETURN(const SessionReport report,
                             DecodeJobRunEnd(payload, &trace));
      return Format("job=%" PRIu64 " tasks=%" PRIu64 " repetitions=%" PRIu64
                    " spent=%" PRId64 " reviews=%" PRIu64
                    " escalations=%" PRIu64 " trace=%zu %s",
                    report.job_id, report.tasks, report.repetitions,
                    report.spent, report.reviews, report.escalations,
                    trace.size(), TraceTally(trace).c_str());
    }
  } else if (kind == JournalKind::kService) {
    if (type == JournalRecordType::kRunStart) {
      return Describe<GangFingerprintRecord>(payload);
    }
    if (type == JournalRecordType::kSnapshot) {
      ServiceSnapshotRecord snapshot;
      HTUNE_RETURN_IF_ERROR(DecodeRecord(payload, &snapshot));
      return Format("v%u epoch=%" PRIu64 " market_blob=%zuB sessions=%zu",
                    ServiceSnapshotRecord::kVersion, snapshot.review_epoch,
                    snapshot.market.size(), snapshot.sessions.size());
    }
  } else {
    return Format("%zu payload bytes", payload.size());
  }
  return InvalidArgumentError("no such record in a " + JournalKindName(kind));
}

/// Picks the layout of a scanned journal; `why` says why it is undecodable.
JournalKind Classify(std::string_view path, const JournalContents& contents,
                     std::string* why) {
  namespace fs = std::filesystem;
  RunStartRecord controller;
  JobRunStartRecord serve_job;
  if (fs::path(path).filename() ==
      fs::path(kSharedServiceJournalPath).filename()) {
    return JournalKind::kService;
  } else if (contents.records.empty() ||
             contents.records[0].type != JournalRecordType::kRunStart) {
    *why = "the first record is not RUN_START";
  } else if (DecodeRecord(contents.records[0].payload, &controller).ok()) {
    return JournalKind::kController;
  } else if (DecodeRecord(contents.records[0].payload, &serve_job).ok()) {
    return JournalKind::kServeJob;
  } else {
    *why = "RUN_START decodes as neither a controller {budget, tasks} nor a "
           "serve job {version, job id, name}";
  }
  return JournalKind::kUndecodable;
}

/// Byte offset where record `index` of `contents` starts.
uint64_t RecordOffset(const JournalContents& contents, size_t index) {
  return index == 0 ? EncodeJournalHeader(kJournalFormat).size()
                    : contents.records[index - 1].end_offset;
}

std::string TornTail(uint64_t valid_bytes, size_t total) {
  return Format("torn tail at offset %" PRIu64 ": %" PRIu64
                " bytes dropped on recovery",
                valid_bytes, total - valid_bytes);
}

/// A controller journal's payments replayed through a BudgetLedger.
struct LedgerAudit {
  BudgetLedger ledger;
  std::map<uint64_t, std::vector<PaymentRecord>> by_task;
  /// The run-end record's spend, when the journal has one.
  std::optional<int64_t> reported;
  /// Duplicate payments, slot gaps, conflicting terms, undecodable records.
  std::vector<std::string> errors;

  bool balanced() const {
    return !reported || *reported == ledger.TotalPaid();
  }
};

LedgerAudit AuditLedger(const JournalContents& contents) {
  LedgerAudit audit;
  for (size_t i = 0; i < contents.records.size(); ++i) {
    const JournalRecord& record = contents.records[i];
    RunEndRecord end;
    if (record.type == JournalRecordType::kRunEnd &&
        DecodeRecord(record.payload, &end).ok()) {
      audit.reported = end.spent;
    }
    if (record.type != JournalRecordType::kPayment) {
      continue;
    }
    const std::string at =
        Format("offset %" PRIu64 ": ", RecordOffset(contents, i));
    PaymentRecord payment;
    const Status decoded = DecodeRecord(record.payload, &payment);
    const StatusOr<bool> fresh =
        decoded.ok()
            ? audit.ledger.RecordPayment(payment.task, payment.slot,
                                         payment.price)
            : StatusOr<bool>(decoded);
    if (!fresh.ok()) {
      audit.errors.push_back(at + fresh.status().ToString());
    } else if (!*fresh) {
      audit.errors.push_back(at + Format("task %" PRIu64 " slot %d paid twice",
                                         payment.task, payment.slot));
    } else {
      audit.by_task[payment.task].push_back(payment);
    }
  }
  return audit;
}

/// `dump` (every record, decoded) or `verify` (a complete, intact run).
int DumpOrVerify(bool verify, JournalKind kind, const std::string& why,
                 const JournalContents& contents, size_t total,
                 std::string* out) {
  const std::vector<JournalRecord>& records = contents.records;
  std::vector<std::string> problems;
  if (kind == JournalKind::kUndecodable) {
    problems.push_back("undecodable journal: " + why);
  }
  std::string dump = Format("%s: %zu records, %" PRIu64 " valid bytes of %zu\n",
                            JournalKindName(kind).c_str(), records.size(),
                            contents.valid_bytes, total);
  for (size_t i = 0; i < records.size(); ++i) {
    const std::string type(JournalRecordTypeToString(records[i].type));
    const uint64_t offset = RecordOffset(contents, i);
    const StatusOr<std::string> text = DescribeRecord(kind, records[i]);
    if (!text.ok()) {
      problems.push_back(Format("offset %" PRIu64 ": %s record: %s", offset,
                                type.c_str(),
                                text.status().ToString().c_str()));
    }
    dump += Format("  %8" PRIu64 "  %-11s %s\n", offset, type.c_str(),
                   text.ok() ? text->c_str()
                             : ("<undecodable: " + text.status().ToString() +
                                ">")
                                   .c_str());
  }
  if (contents.truncated_tail) {
    dump += "  " + TornTail(contents.valid_bytes, total) + "\n";
  }
  if (!verify) {
    *out += dump;
    *out += kind == JournalKind::kUndecodable ? "FAIL: " + problems[0] + "\n"
                                              : "";
    return problems.empty() ? 0 : 1;
  }
  if (contents.truncated_tail) {
    problems.push_back(TornTail(contents.valid_bytes, total));
  }
  const bool ends_run =
      !records.empty() && records.back().type == JournalRecordType::kRunEnd;
  if (!ends_run && (kind == JournalKind::kController ||
                    kind == JournalKind::kServeJob)) {
    problems.push_back("last record is not RUN_END (incomplete run)");
  }
  std::string summary;
  if (kind == JournalKind::kController) {
    const LedgerAudit audit = AuditLedger(contents);
    problems.insert(problems.end(), audit.errors.begin(), audit.errors.end());
    if (!audit.balanced()) {
      problems.push_back(Format("ledger total %ld != run-end spent %" PRId64,
                                audit.ledger.TotalPaid(), *audit.reported));
    }
    summary = Format(", %zu payments totalling %ld, ledger balanced",
                     audit.ledger.Entries(), audit.ledger.TotalPaid());
  } else if (kind == JournalKind::kServeJob && ends_run) {
    JobRunStartRecord start;
    std::vector<TraceEvent> trace;
    const StatusOr<SessionReport> report =
        DecodeJobRunEnd(records.back().payload, &trace);
    if (DecodeRecord(records.front().payload, &start).ok() && report.ok() &&
        report->job_id != start.job_id) {
      problems.push_back(Format("session report names job %" PRIu64
                                " but RUN_START names job %" PRIu64,
                                report->job_id, start.job_id));
    }
    summary = Format(", job %" PRIu64 " '%s' finished", start.job_id,
                     start.name.c_str());
  } else if (kind == JournalKind::kService &&
             (records.empty() ||
              records.front().type != JournalRecordType::kRunStart)) {
    problems.push_back("first record is not a generation's RUN_START");
  }
  for (const std::string& problem : problems) {
    *out += "FAIL: " + problem + "\n";
  }
  if (!problems.empty()) {
    return 1;
  }
  *out += Format("OK: %s, %zu records%s\n", JournalKindName(kind).c_str(),
                 records.size(), summary.c_str());
  return 0;
}

int Ledger(JournalKind kind, const JournalContents& contents,
           std::string* out) {
  if (kind != JournalKind::kController) {
    *out += "FAIL: only a controller journal holds payment records; this "
            "is a " + JournalKindName(kind) + "\n";
    return 1;
  }
  const LedgerAudit audit = AuditLedger(contents);
  for (const auto& [task, payments] : audit.by_task) {
    *out += Format("task %" PRIu64 ": ", task) +
            List(payments,
                 [](const PaymentRecord& payment) {
                   return Format("slot %d: %d", payment.slot, payment.price);
                 },
                 ", ") +
            "\n";
  }
  *out += Format("total paid %ld across %zu payments\n",
                 audit.ledger.TotalPaid(), audit.ledger.Entries());
  if (audit.reported) {
    *out += Format("run-end reports spent %" PRId64 ": %s\n", *audit.reported,
                   audit.balanced() ? "BALANCED" : "MISMATCH");
  }
  for (const std::string& error : audit.errors) {
    *out += "ERROR: " + error + "\n";
  }
  return audit.errors.empty() && audit.balanced() ? 0 : 1;
}

int Manifest(std::string_view bytes, std::string* out) {
  const StatusOr<ManifestContents> manifest = ScanManifest(bytes);
  if (!manifest.ok()) {
    *out += "FAIL: " + manifest.status().ToString() + "\n";
    return 1;
  }
  *out += Format("fleet manifest: %zu jobs, %" PRIu64 " valid bytes of %zu\n",
                 manifest->jobs.size(), manifest->valid_bytes, bytes.size());
  std::map<FleetJobState, int> totals;
  for (const auto& [job_id, entry] : manifest->jobs) {
    ++totals[entry.state];
    *out += Format("  job %6" PRIu64 "  %-11s restarts=%-3d journal_bytes=%-10"
                   PRIu64 " %s",
                   job_id,
                   std::string(FleetJobStateToString(entry.state)).c_str(),
                   entry.restarts, entry.journal_bytes,
                   entry.spec.name.c_str());
    *out += entry.detail.empty() ? "\n" : "  [" + entry.detail + "]\n";
  }
  *out += "totals: " + Tally(totals, FleetJobStateToString) + "\n";
  for (const uint64_t job_id : manifest->unknown_state_ids) {
    *out += Format("WARNING: state record for unknown job %" PRIu64
                   " (its kJob record was lost)\n",
                   job_id);
  }
  if (manifest->truncated_tail) {
    *out += TornTail(manifest->valid_bytes, bytes.size()) + "\n";
  }
  return manifest->truncated_tail || !manifest->unknown_state_ids.empty();
}

}  // namespace

int InspectFile(std::string_view verb, const std::string& path,
                std::string* out) {
  if (verb != "dump" && verb != "verify" && verb != "ledger" &&
      verb != "manifest") {
    *out += "unknown inspect verb '" + std::string(verb) + "'\n";
    return 2;
  }
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    *out += "FAIL: cannot read " + path + "\n";
    return 1;
  }
  const std::string bytes{std::istreambuf_iterator<char>(file), {}};
  if (verb == "manifest") {
    return Manifest(bytes, out);
  }
  const StatusOr<JournalContents> contents = ScanJournal(bytes);
  if (!contents.ok()) {
    *out += "FAIL: " + contents.status().ToString() + "\n";
    return 1;
  }
  std::string why;
  const JournalKind kind = Classify(path, *contents, &why);
  if (verb == "ledger") {
    return Ledger(kind, *contents, out);
  }
  return DumpOrVerify(verb == "verify", kind, why, *contents, bytes.size(),
                      out);
}

}  // namespace htune
