#ifndef HTUNE_DURABILITY_RECORDS_H_
#define HTUNE_DURABILITY_RECORDS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "common/status.h"
#include "durability/serialize.h"

namespace htune {

/// Payload layouts of the work-journal records (journal.h frames them).
/// A layout is its record struct's `kFields`: the fields in on-disk order,
/// each a {name the inspector prints, member} pair. A record with a
/// `kVersion` opens its payload with that u32. EncodeRecord and
/// DecodeRecord derive from this one list, so the writers (the durable
/// controllers, the shared-market service) and every reader (recovery, the
/// inspector) share one definition per layout. DecodeRecord consumes the
/// payload exactly — trailing bytes or another version are errors — so a
/// payload decodes as at most one layout. On-disk format: never reorder
/// fields.

// --- Controller journals (FaultTolerantExecutor, AdaptiveRetuner) ---------

/// kRunStart: the job's budget and its atomic-task count.
struct RunStartRecord {
  int64_t budget = 0;
  uint64_t tasks = 0;
  static constexpr auto kFields =
      std::make_tuple(std::pair("budget", &RunStartRecord::budget),
                      std::pair("tasks", &RunStartRecord::tasks));
};

/// kPost: one task posted under its planned per-repetition prices.
struct PostRecord {
  uint64_t task = 0;
  uint64_t group = 0;
  std::vector<int> prices;
  static constexpr auto kFields =
      std::make_tuple(std::pair("task", &PostRecord::task),
                      std::pair("group", &PostRecord::group),
                      std::pair("prices", &PostRecord::prices));
};

/// kReprice: a task's new price and the slots it applies to (0 when the
/// controller does not track them).
struct RepriceRecord {
  uint64_t task = 0;
  int32_t price = 0;
  int64_t remaining_slots = 0;
  static constexpr auto kFields = std::make_tuple(
      std::pair("task", &RepriceRecord::task),
      std::pair("new_price", &RepriceRecord::price),
      std::pair("remaining_slots", &RepriceRecord::remaining_slots));
};

/// kPayment: one repetition slot paid; the budget ledger's unit.
struct PaymentRecord {
  uint64_t task = 0;
  int32_t slot = 0;
  int32_t price = 0;
  static constexpr auto kFields =
      std::make_tuple(std::pair("task", &PaymentRecord::task),
                      std::pair("slot", &PaymentRecord::slot),
                      std::pair("price", &PaymentRecord::price));
};

/// kCompletion: every repetition of a task finished.
struct CompletionRecord {
  uint64_t task = 0;
  double completed_time = 0.0;
  static constexpr auto kFields = std::make_tuple(
      std::pair("task", &CompletionRecord::task),
      std::pair("completed_time", &CompletionRecord::completed_time));
};

/// kReviewEnd: a review round ended, with the run's spend so far.
struct ReviewEndRecord {
  int32_t review = 0;
  double now = 0.0;
  int64_t spent = 0;
  static constexpr auto kFields =
      std::make_tuple(std::pair("review", &ReviewEndRecord::review),
                      std::pair("now", &ReviewEndRecord::now),
                      std::pair("spent", &ReviewEndRecord::spent));
};

/// kRunEnd: the run's total spend and job latency.
struct RunEndRecord {
  int64_t spent = 0;
  double latency = 0.0;
  static constexpr auto kFields =
      std::make_tuple(std::pair("spent", &RunEndRecord::spent),
                      std::pair("latency", &RunEndRecord::latency));
};

// --- Shared-market service journals (platform/service.h) ------------------

/// A serve job journal's kRunStart: written when the job first enters a
/// shared run.
struct JobRunStartRecord {
  static constexpr uint32_t kVersion = 1;
  uint64_t job_id = 0;
  std::string name;
  static constexpr auto kFields =
      std::make_tuple(std::pair("job", &JobRunStartRecord::job_id),
                      std::pair("name", &JobRunStartRecord::name));
};

/// A serve job journal's kRunEnd: the canonical EncodeSessionReport bytes
/// and the job's EncodeTraceEvents bytes.
struct JobRunEndRecord {
  static constexpr uint32_t kVersion = 1;
  std::string report;
  std::string trace;
  static constexpr auto kFields =
      std::make_tuple(std::pair("report", &JobRunEndRecord::report),
                      std::pair("trace", &JobRunEndRecord::trace));
};

/// The service journal's kRunStart: the gang fingerprint naming one
/// generation — each competing job's (id, seed), in ascending id order.
struct GangFingerprintRecord {
  static constexpr uint32_t kVersion = 1;
  std::vector<std::pair<uint64_t, uint64_t>> jobs;
  static constexpr auto kFields =
      std::make_tuple(std::pair("jobs", &GangFingerprintRecord::jobs));
};

/// The service journal's kSnapshot: the review epoch, the SharedMarket
/// CaptureState blob, and each session's counters keyed by job id.
struct ServiceSnapshotRecord {
  static constexpr uint32_t kVersion = 1;
  uint64_t review_epoch = 0;
  std::string market;
  std::vector<std::pair<uint64_t, std::string>> sessions;
  static constexpr auto kFields = std::make_tuple(
      std::pair("epoch", &ServiceSnapshotRecord::review_epoch),
      std::pair("market", &ServiceSnapshotRecord::market),
      std::pair("sessions", &ServiceSnapshotRecord::sessions));
};

namespace record_codec {

// Exact types only: the deleted templates turn what would be a silent
// promotion (a uint16_t written as an int32_t, say) into a compile error.
template <typename T>
void Put(Encoder& e, const T& v) = delete;
template <typename T>
Status Get(Decoder& d, T& v) = delete;

inline void Put(Encoder& e, bool v) { e.PutBool(v); }
inline void Put(Encoder& e, uint8_t v) { e.PutU8(v); }
inline void Put(Encoder& e, int32_t v) { e.PutI32(v); }
inline void Put(Encoder& e, int64_t v) { e.PutI64(v); }
inline void Put(Encoder& e, uint64_t v) { e.PutU64(v); }
inline void Put(Encoder& e, double v) { e.PutDouble(v); }
inline void Put(Encoder& e, const std::string& v) { e.PutString(v); }
inline void Put(Encoder& e, const std::vector<int>& v) { e.PutI32Vector(v); }
inline void Put(Encoder& e, const std::vector<double>& v) {
  e.PutDoubleVector(v);
}
inline Status Get(Decoder& d, bool& v) { return d.GetBool(&v); }
inline Status Get(Decoder& d, uint8_t& v) { return d.GetU8(&v); }
inline Status Get(Decoder& d, int32_t& v) { return d.GetI32(&v); }
inline Status Get(Decoder& d, int64_t& v) { return d.GetI64(&v); }
inline Status Get(Decoder& d, uint64_t& v) { return d.GetU64(&v); }
inline Status Get(Decoder& d, double& v) { return d.GetDouble(&v); }
inline Status Get(Decoder& d, std::string& v) { return d.GetString(&v); }
inline Status Get(Decoder& d, std::vector<int>& v) {
  return d.GetI32Vector(&v);
}
inline Status Get(Decoder& d, std::vector<double>& v) {
  return d.GetDoubleVector(&v);
}

/// The bytes Put writes for a value.
template <typename T>
size_t Size(const T& v) = delete;
inline size_t Size(bool) { return 1; }
inline size_t Size(uint8_t) { return 1; }
inline size_t Size(int32_t) { return 4; }
inline size_t Size(int64_t) { return 8; }
inline size_t Size(uint64_t) { return 8; }
inline size_t Size(double) { return 8; }
inline size_t Size(const std::string& v) { return 8 + v.size(); }
inline size_t Size(const std::vector<int>& v) { return 8 + 4 * v.size(); }
inline size_t Size(const std::vector<double>& v) { return 8 + 8 * v.size(); }

/// A u64 count, then each pair's two fields.
template <typename A, typename B>
size_t Size(const std::vector<std::pair<A, B>>& pairs) {
  size_t size = 8;
  for (const auto& [a, b] : pairs) {
    size += Size(a) + Size(b);
  }
  return size;
}

template <typename A, typename B>
void Put(Encoder& e, const std::vector<std::pair<A, B>>& pairs) {
  e.PutU64(pairs.size());
  for (const auto& [a, b] : pairs) {
    Put(e, a);
    Put(e, b);
  }
}

template <typename A, typename B>
Status Get(Decoder& d, std::vector<std::pair<A, B>>& pairs) {
  uint64_t count = 0;
  HTUNE_RETURN_IF_ERROR(d.GetU64(&count));
  pairs.clear();
  // No reserve: a hostile count fails at the first missing byte.
  for (uint64_t i = 0; i < count; ++i) {
    auto& [a, b] = pairs.emplace_back();
    HTUNE_RETURN_IF_ERROR(Get(d, a));
    HTUNE_RETURN_IF_ERROR(Get(d, b));
  }
  return OkStatus();
}

}  // namespace record_codec

/// Each field in order, through the overloads above. Also the codec of the
/// controllers' snapshot blobs, whose frozen layouts interleave several
/// structs, so no one kFields list describes them.
template <typename... Fields>
void PutFields(Encoder& e, const Fields&... fields) {
  (record_codec::Put(e, fields), ...);
}

template <typename... Fields>
Status GetFields(Decoder& d, Fields&... fields) {
  Status status;
  (void)(... && (status = record_codec::Get(d, fields)).ok());
  return status;
}

/// The number of bytes EncodeRecord(record) returns.
template <typename Record>
size_t EncodedRecordSize(const Record& record) {
  size_t size = 0;
  if constexpr (requires { Record::kVersion; }) {
    size += 4;
  }
  std::apply(
      [&](const auto&... field) {
        size += (record_codec::Size(record.*field.second) + ... + 0);
      },
      Record::kFields);
  return size;
}

/// Appends EncodeRecord(record)'s bytes to `e`.
template <typename Record>
void PutRecord(Encoder& e, const Record& record) {
  if constexpr (requires { Record::kVersion; }) {
    e.PutU32(Record::kVersion);
  }
  std::apply(
      [&](const auto&... field) { PutFields(e, record.*field.second...); },
      Record::kFields);
}

template <typename Record>
std::string EncodeRecord(const Record& record) {
  Encoder e;
  e.Reserve(EncodedRecordSize(record));
  PutRecord(e, record);
  return e.Release();
}

template <typename Record>
Status DecodeRecord(std::string_view payload, Record* record) {
  Decoder d(payload);
  if constexpr (requires { Record::kVersion; }) {
    uint32_t version = 0;
    HTUNE_RETURN_IF_ERROR(d.GetU32(&version));
    if (version != Record::kVersion) {
      return InvalidArgumentError("record layout: unsupported v" +
                                  std::to_string(version));
    }
  }
  HTUNE_RETURN_IF_ERROR(std::apply(
      [&](const auto&... field) {
        return GetFields(d, record->*field.second...);
      },
      Record::kFields));
  return d.ExpectDone();
}

}  // namespace htune

#endif  // HTUNE_DURABILITY_RECORDS_H_
