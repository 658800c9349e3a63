// Unit tests for the resilience layer: retry/backoff/deadline policies,
// the circuit breaker's state machine under a deterministic clock, the
// seeded fault injector, the journal writer's retry-with-repair path
// (including the FileJournalStorage short-write regression), and the new
// FaultTolerantConfig resilience knobs.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "control/fault_tolerant_executor.h"
#include "durability/journal.h"
#include "resilience/circuit_breaker.h"
#include "resilience/fault_injector.h"
#include "resilience/policy.h"
#include "rng/splitmix64.h"

namespace htune {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------------
// RetryPolicy validation: one assertion per rejection path.

TEST(RetryPolicyTest, DefaultPolicyValidates) {
  EXPECT_TRUE(ValidateRetryPolicy(RetryPolicy{}).ok());
}

TEST(RetryPolicyTest, RejectsEachBadKnob) {
  RetryPolicy p;
  p.max_attempts = 0;
  EXPECT_EQ(ValidateRetryPolicy(p).code(), StatusCode::kInvalidArgument);
  p = RetryPolicy{};
  p.max_attempts = -3;
  EXPECT_FALSE(ValidateRetryPolicy(p).ok());
  p = RetryPolicy{};
  p.initial_backoff = -0.1;
  EXPECT_FALSE(ValidateRetryPolicy(p).ok());
  p = RetryPolicy{};
  p.initial_backoff = kNaN;
  EXPECT_FALSE(ValidateRetryPolicy(p).ok());
  p = RetryPolicy{};
  p.backoff_multiplier = 0.5;
  EXPECT_FALSE(ValidateRetryPolicy(p).ok());
  p = RetryPolicy{};
  p.backoff_multiplier = kInf;
  EXPECT_FALSE(ValidateRetryPolicy(p).ok());
  p = RetryPolicy{};
  p.max_backoff = p.initial_backoff / 2.0;  // inverted ceiling
  EXPECT_FALSE(ValidateRetryPolicy(p).ok());
  p = RetryPolicy{};
  p.jitter_fraction = -0.01;
  EXPECT_FALSE(ValidateRetryPolicy(p).ok());
  p = RetryPolicy{};
  p.jitter_fraction = 1.5;
  EXPECT_FALSE(ValidateRetryPolicy(p).ok());
  p = RetryPolicy{};
  p.jitter_fraction = kNaN;
  EXPECT_FALSE(ValidateRetryPolicy(p).ok());
}

TEST(BackoffTest, GrowsExponentiallyAndCapsWithoutJitter) {
  RetryPolicy p;
  p.initial_backoff = 0.1;
  p.backoff_multiplier = 2.0;
  p.max_backoff = 0.5;
  p.jitter_fraction = 0.0;
  SplitMix64 jitter(7);
  EXPECT_DOUBLE_EQ(BackoffFor(p, 1, jitter), 0.1);
  EXPECT_DOUBLE_EQ(BackoffFor(p, 2, jitter), 0.2);
  EXPECT_DOUBLE_EQ(BackoffFor(p, 3, jitter), 0.4);
  EXPECT_DOUBLE_EQ(BackoffFor(p, 4, jitter), 0.5);  // capped
  EXPECT_DOUBLE_EQ(BackoffFor(p, 9, jitter), 0.5);
}

TEST(BackoffTest, JitterIsBoundedAndDeterministic) {
  RetryPolicy p;
  p.initial_backoff = 0.1;
  p.jitter_fraction = 0.25;
  SplitMix64 a(42), b(42), c(43);
  std::vector<double> from_a, from_b, from_c;
  for (int attempt = 1; attempt <= 8; ++attempt) {
    const double d = BackoffFor(p, attempt, a);
    from_a.push_back(d);
    from_b.push_back(BackoffFor(p, attempt, b));
    from_c.push_back(BackoffFor(p, attempt, c));
    const double base =
        std::min(p.max_backoff,
                 p.initial_backoff * std::pow(p.backoff_multiplier,
                                              static_cast<double>(attempt - 1)));
    EXPECT_GE(d, base * (1.0 - p.jitter_fraction));
    EXPECT_LE(d, base * (1.0 + p.jitter_fraction));
  }
  EXPECT_EQ(from_a, from_b);  // same seed, same delays
  EXPECT_NE(from_a, from_c);  // different seed, different jitter
}

// ---------------------------------------------------------------------------
// RetryTransient semantics.

TEST(RetryTransientTest, SucceedsWithoutRetryOnFirstOk) {
  RetryPolicy p;
  SplitMix64 jitter(1);
  int calls = 0;
  const Status status = RetryTransient(p, jitter, [&]() -> Status {
    ++calls;
    return OkStatus();
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls, 1);
}

TEST(RetryTransientTest, RetriesTransientUntilSuccess) {
  RetryPolicy p;
  p.max_attempts = 4;
  SplitMix64 jitter(1);
  int calls = 0;
  double backoff = 0.0;
  const Status status = RetryTransient(
      p, jitter,
      [&]() -> Status {
        return ++calls < 3 ? UnavailableError("blip") : OkStatus();
      },
      /*repair=*/nullptr, &backoff);
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_GT(backoff, 0.0);  // two failures' worth of simulated delay
}

TEST(RetryTransientTest, ExhaustionReturnsLastTransient) {
  RetryPolicy p;
  p.max_attempts = 3;
  SplitMix64 jitter(1);
  int calls = 0;
  const Status status = RetryTransient(p, jitter, [&]() -> Status {
    ++calls;
    return UnavailableError("still down");
  });
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(calls, 3);
}

TEST(RetryTransientTest, PermanentErrorsAreNeverRetried) {
  RetryPolicy p;
  SplitMix64 jitter(1);
  int calls = 0;
  const Status status = RetryTransient(p, jitter, [&]() -> Status {
    ++calls;
    return InternalError("disk on fire");
  });
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_EQ(calls, 1);
}

TEST(RetryTransientTest, RepairRunsBetweenAttemptsAndCanAbort) {
  RetryPolicy p;
  p.max_attempts = 3;
  SplitMix64 jitter(1);
  int repairs = 0;
  Status status = RetryTransient(
      p, jitter, [&]() -> Status { return UnavailableError("blip"); },
      [&]() -> Status {
        ++repairs;
        return OkStatus();
      });
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(repairs, 2);  // between 1->2 and 2->3, not after the last

  status = RetryTransient(
      p, jitter, [&]() -> Status { return UnavailableError("blip"); },
      [&]() -> Status { return InternalError("repair failed"); });
  EXPECT_EQ(status.code(), StatusCode::kInternal);
}

// ---------------------------------------------------------------------------
// Deadline.

TEST(DeadlineTest, InfiniteNeverExpires) {
  const Deadline d = Deadline::Infinite();
  EXPECT_TRUE(d.infinite());
  EXPECT_FALSE(d.Expired(1e18));
  EXPECT_EQ(d.Remaining(1e18), kInf);
  EXPECT_TRUE(d.Check(1e18, "loop").ok());
}

TEST(DeadlineTest, NonPositiveOrNonFiniteMeansInfinite) {
  EXPECT_TRUE(Deadline::At(0.0).infinite());
  EXPECT_TRUE(Deadline::At(-2.0).infinite());
  EXPECT_TRUE(Deadline::At(kNaN).infinite());
  EXPECT_TRUE(Deadline::At(kInf).infinite());
}

TEST(DeadlineTest, ExpiresAtTheBoundary) {
  const Deadline d = Deadline::At(5.0);
  EXPECT_FALSE(d.infinite());
  EXPECT_FALSE(d.Expired(4.999));
  EXPECT_TRUE(d.Expired(5.0));
  EXPECT_TRUE(d.Expired(6.0));
  EXPECT_DOUBLE_EQ(d.Remaining(3.0), 2.0);
  EXPECT_DOUBLE_EQ(d.Remaining(7.0), 0.0);  // never negative
  EXPECT_TRUE(d.Check(4.0, "loop").ok());
  const Status expired = d.Check(5.5, "review loop");
  EXPECT_EQ(expired.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(expired.message().find("review loop"), std::string::npos);
}

// ---------------------------------------------------------------------------
// CircuitBreaker: satellite 3 — full state-transition coverage under a
// deterministic clock, including the half-open single-probe contract.

TEST(CircuitBreakerTest, ValidationRejectsBadKnobs) {
  EXPECT_TRUE(ValidateCircuitBreakerConfig(CircuitBreakerConfig{}).ok());
  CircuitBreakerConfig c;
  c.failure_threshold = 0;
  EXPECT_EQ(ValidateCircuitBreakerConfig(c).code(),
            StatusCode::kInvalidArgument);
  c = CircuitBreakerConfig{};
  c.open_cooldown = 0.0;
  EXPECT_FALSE(ValidateCircuitBreakerConfig(c).ok());
  c = CircuitBreakerConfig{};
  c.open_cooldown = kNaN;
  EXPECT_FALSE(ValidateCircuitBreakerConfig(c).ok());
  c = CircuitBreakerConfig{};
  c.open_cooldown = kInf;
  EXPECT_FALSE(ValidateCircuitBreakerConfig(c).ok());
  c = CircuitBreakerConfig{};
  c.half_open_successes = 0;
  EXPECT_FALSE(ValidateCircuitBreakerConfig(c).ok());
}

TEST(CircuitBreakerTest, OpensAfterThresholdConsecutiveFailures) {
  CircuitBreakerConfig config;
  config.failure_threshold = 3;
  config.open_cooldown = 1.0;
  CircuitBreaker breaker(config);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.RecordFailure(0.1);
  breaker.RecordFailure(0.2);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.AllowRequest(0.25));
  breaker.RecordFailure(0.3);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 1);
  EXPECT_FALSE(breaker.AllowRequest(0.4));  // short-circuit while cooling
  EXPECT_FALSE(breaker.AllowRequest(1.29));
}

TEST(CircuitBreakerTest, SuccessResetsTheConsecutiveCount) {
  CircuitBreakerConfig config;
  config.failure_threshold = 3;
  CircuitBreaker breaker(config);
  breaker.RecordFailure(0.1);
  breaker.RecordFailure(0.2);
  breaker.RecordSuccess(0.3);
  EXPECT_EQ(breaker.consecutive_failures(), 0);
  breaker.RecordFailure(0.4);
  breaker.RecordFailure(0.5);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, HalfOpenAdmitsExactlyOneProbe) {
  CircuitBreakerConfig config;
  config.failure_threshold = 1;
  config.open_cooldown = 1.0;
  CircuitBreaker breaker(config);
  breaker.RecordFailure(0.0);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.AllowRequest(0.5));
  // Cooldown over: the first request is the probe, concurrent/subsequent
  // requests stay short-circuited until the probe resolves.
  EXPECT_TRUE(breaker.AllowRequest(1.0));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.AllowRequest(1.0));
  EXPECT_FALSE(breaker.AllowRequest(1.5));
  breaker.RecordSuccess(1.6);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.AllowRequest(1.7));
}

TEST(CircuitBreakerTest, FailedProbeReopensWithAFreshCooldown) {
  CircuitBreakerConfig config;
  config.failure_threshold = 1;
  config.open_cooldown = 1.0;
  CircuitBreaker breaker(config);
  breaker.RecordFailure(0.0);
  EXPECT_TRUE(breaker.AllowRequest(1.0));  // probe admitted
  breaker.RecordFailure(1.0);              // probe failed
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 2);
  EXPECT_FALSE(breaker.AllowRequest(1.9));  // fresh cooldown from t=1.0
  EXPECT_TRUE(breaker.AllowRequest(2.0));
}

TEST(CircuitBreakerTest, HalfOpenCanRequireMultipleProbeSuccesses) {
  CircuitBreakerConfig config;
  config.failure_threshold = 1;
  config.open_cooldown = 1.0;
  config.half_open_successes = 2;
  CircuitBreaker breaker(config);
  breaker.RecordFailure(0.0);
  EXPECT_TRUE(breaker.AllowRequest(1.0));
  breaker.RecordSuccess(1.1);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(breaker.AllowRequest(1.2));  // second sequential probe
  breaker.RecordSuccess(1.3);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

// ---------------------------------------------------------------------------
// FaultInjector.

TEST(FaultInjectorTest, ValidationRejectsBadKnobs) {
  EXPECT_TRUE(ValidateFaultInjectorConfig(FaultInjectorConfig{}).ok());
  FaultInjectorConfig c;
  c.append_fault_prob = -0.1;
  EXPECT_EQ(ValidateFaultInjectorConfig(c).code(),
            StatusCode::kInvalidArgument);
  c = FaultInjectorConfig{};
  c.short_write_prob = 1.5;
  EXPECT_FALSE(ValidateFaultInjectorConfig(c).ok());
  c = FaultInjectorConfig{};
  c.flush_fault_prob = kNaN;
  EXPECT_FALSE(ValidateFaultInjectorConfig(c).ok());
  c = FaultInjectorConfig{};
  c.market_fault_prob = 2.0;
  EXPECT_FALSE(ValidateFaultInjectorConfig(c).ok());
  c = FaultInjectorConfig{};
  c.append_fault_prob = 0.7;
  c.short_write_prob = 0.7;  // sum > 1
  EXPECT_FALSE(ValidateFaultInjectorConfig(c).ok());
  c = FaultInjectorConfig{};
  c.max_consecutive_faults = -1;
  EXPECT_FALSE(ValidateFaultInjectorConfig(c).ok());
}

TEST(FaultInjectorTest, SameSeedInjectsTheSameSchedule) {
  FaultInjectorConfig config;
  config.seed = 99;
  config.append_fault_prob = 0.3;
  config.short_write_prob = 0.2;
  config.flush_fault_prob = 0.3;
  config.max_consecutive_faults = 2;
  auto run = [&](std::vector<bool>* outcomes) {
    InMemoryJournalStorage inner;
    FaultInjector injector(config);
    auto storage = injector.WrapStorage(&inner);
    for (int i = 0; i < 64; ++i) {
      outcomes->push_back(storage->Append("record").ok());
      outcomes->push_back(storage->Flush().ok());
    }
    return injector.stats();
  };
  std::vector<bool> a, b;
  const FaultInjectorStats stats_a = run(&a);
  const FaultInjectorStats stats_b = run(&b);
  EXPECT_EQ(a, b);
  EXPECT_EQ(stats_a.append_faults, stats_b.append_faults);
  EXPECT_EQ(stats_a.short_writes, stats_b.short_writes);
  EXPECT_EQ(stats_a.flush_faults, stats_b.flush_faults);
  EXPECT_GT(stats_a.append_faults + stats_a.short_writes, 0u);
  EXPECT_GT(stats_a.flush_faults, 0u);
}

TEST(FaultInjectorTest, ConsecutiveCapForcesACleanOperation) {
  FaultInjectorConfig config;
  config.append_fault_prob = 1.0;  // every draw wants to fail
  config.max_consecutive_faults = 2;
  InMemoryJournalStorage inner;
  FaultInjector injector(config);
  auto storage = injector.WrapStorage(&inner);
  int consecutive = 0, max_consecutive = 0;
  for (int i = 0; i < 32; ++i) {
    if (storage->Append("x").ok()) {
      consecutive = 0;
    } else {
      max_consecutive = std::max(max_consecutive, ++consecutive);
    }
  }
  EXPECT_EQ(max_consecutive, 2);
  EXPECT_EQ(inner.bytes().size(), 32u - injector.stats().append_faults);
}

TEST(FaultInjectorTest, ZeroCapDisablesInjectionEntirely) {
  FaultInjectorConfig config;
  config.append_fault_prob = 1.0;
  config.flush_fault_prob = 1.0;
  config.market_fault_prob = 1.0;
  config.max_consecutive_faults = 0;
  InMemoryJournalStorage inner;
  FaultInjector injector(config);
  auto storage = injector.WrapStorage(&inner);
  FaultGate gate = injector.MarketGate();
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(storage->Append("x").ok());
    EXPECT_TRUE(storage->Flush().ok());
    EXPECT_TRUE(gate("post").ok());
  }
  EXPECT_EQ(injector.stats().append_faults, 0u);
  EXPECT_EQ(injector.stats().market_faults, 0u);
}

TEST(FaultInjectorTest, ShortWritePersistsAStrictPrefix) {
  FaultInjectorConfig config;
  config.short_write_prob = 1.0;
  config.max_consecutive_faults = 1;
  InMemoryJournalStorage inner;
  FaultInjector injector(config);
  auto storage = injector.WrapStorage(&inner);
  const std::string record = "twelve bytes";
  const Status status = storage->Append(record);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(injector.stats().short_writes, 1u);
  EXPECT_LT(inner.bytes().size(), record.size());
  EXPECT_EQ(inner.bytes(), record.substr(0, inner.bytes().size()));
}

TEST(FaultInjectorTest, MarketGateInjectsAndCaps) {
  FaultInjectorConfig config;
  config.market_fault_prob = 1.0;
  config.max_consecutive_faults = 3;
  FaultInjector injector(config);
  FaultGate gate = injector.MarketGate();
  int consecutive = 0, max_consecutive = 0;
  for (int i = 0; i < 32; ++i) {
    const Status status = gate("post");
    if (status.ok()) {
      consecutive = 0;
    } else {
      EXPECT_EQ(status.code(), StatusCode::kUnavailable);
      max_consecutive = std::max(max_consecutive, ++consecutive);
    }
  }
  EXPECT_EQ(max_consecutive, 3);
  EXPECT_GT(injector.stats().market_faults, 0u);
}

// ---------------------------------------------------------------------------
// JournalWriter retry-with-repair: a bounded storm of injected append/flush
// faults and short writes must be healed transparently — the journal bytes
// end up identical to a fault-free writer's.

TEST(JournalWriterRetryTest, InjectedFaultsAreTransparentToTheJournal) {
  std::string clean_bytes;
  {
    InMemoryJournalStorage clean;
    JournalWriter writer(&clean, 0);
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(
          writer.Append(JournalRecordType::kPost, "payload-" +
                        std::to_string(i)).ok());
    }
    ASSERT_TRUE(writer.Flush().ok());
    clean_bytes = clean.bytes();
  }

  FaultInjectorConfig config;
  config.seed = 1234;
  config.append_fault_prob = 0.25;
  config.short_write_prob = 0.25;
  config.flush_fault_prob = 0.5;
  config.max_consecutive_faults = 2;  // < max_attempts below
  InMemoryJournalStorage inner;
  FaultInjector injector(config);
  auto storage = injector.WrapStorage(&inner);
  JournalWriter writer(storage.get(), 0);
  RetryPolicy policy;
  policy.max_attempts = 4;
  writer.EnableRetry(policy, /*jitter_seed=*/77);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(writer.Append(JournalRecordType::kPost,
                              "payload-" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(writer.Flush().ok());
  const FaultInjectorStats& stats = injector.stats();
  EXPECT_GT(stats.append_faults + stats.short_writes, 0u)
      << "storm too quiet to prove anything";
  EXPECT_GT(stats.flush_faults, 0u);
  EXPECT_EQ(inner.bytes(), clean_bytes);
  // And the healed journal scans as fully intact.
  const auto contents = ScanJournal(inner.bytes());
  ASSERT_TRUE(contents.ok());
  EXPECT_FALSE(contents->truncated_tail);
  EXPECT_EQ(contents->records.size(), 50u);
}

TEST(JournalWriterRetryTest, ExhaustedRetriesSurfaceTheTransient) {
  FaultInjectorConfig config;
  config.append_fault_prob = 1.0;
  config.max_consecutive_faults = 10;  // outlasts the retry budget
  InMemoryJournalStorage inner;
  FaultInjector injector(config);
  auto storage = injector.WrapStorage(&inner);
  JournalWriter writer(storage.get(), 0);
  RetryPolicy policy;
  policy.max_attempts = 3;
  writer.EnableRetry(policy, 77);
  const Status status = writer.Append(JournalRecordType::kPost, "payload");
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  // The repair between attempts kept the journal at the last good boundary.
  EXPECT_TRUE(inner.bytes().empty());
}

// ---------------------------------------------------------------------------
// Satellite 1: FileJournalStorage partial-write handling. The POSIX write
// path reports short writes explicitly, and the retry layer's
// truncate-to-last-good repair heals injected short writes on a REAL file:
// the bytes on disk afterwards are identical to a fault-free run's.

class TempFile {
 public:
  explicit TempFile(const std::string& tag) {
    path_ = ::testing::TempDir() + "htune_resilience_" + tag + "_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            ".journal";
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(FileJournalStorageTest, AppendLoadTruncateRoundTrip) {
  TempFile file("roundtrip");
  FileJournalStorage storage(file.path());
  const auto empty = storage.Load();
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());  // missing file reads as fresh
  ASSERT_TRUE(storage.Append("hello ").ok());
  ASSERT_TRUE(storage.Append("world").ok());
  ASSERT_TRUE(storage.Flush().ok());
  const auto loaded = storage.Load();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, "hello world");
  ASSERT_TRUE(storage.Truncate(5).ok());
  const auto truncated = storage.Load();
  ASSERT_TRUE(truncated.ok());
  EXPECT_EQ(*truncated, "hello");
  ASSERT_TRUE(storage.Truncate(100).ok());  // growing truncate is a no-op
  EXPECT_EQ(*storage.Load(), "hello");
}

TEST(FileJournalStorageTest, FlushOfAMissingJournalIsOk) {
  TempFile file("flush_missing");
  FileJournalStorage storage(file.path());
  EXPECT_TRUE(storage.Flush().ok());
}

TEST(FileJournalStorageTest, TruncateUnderARegularFileIsAnError) {
  // A path whose parent is a regular file fails stat with ENOTDIR, not
  // ENOENT: that is a broken path, not a journal that does not exist yet,
  // so even Truncate(0) must not report success.
  TempFile parent("truncate_notdir");
  FileJournalStorage parent_storage(parent.path());
  ASSERT_TRUE(parent_storage.Append("regular file").ok());
  FileJournalStorage storage(parent.path() + "/child.journal");
  const Status status = storage.Truncate(0);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("Not a directory"), std::string::npos)
      << status.message();
}

TEST(FileJournalStorageTest, ShortWritesOnAFileAreRepairedByRetry) {
  TempFile file("short_write");
  std::string clean_bytes;
  {
    TempFile clean_file("short_write_clean");
    FileJournalStorage clean(clean_file.path());
    JournalWriter writer(&clean, 0);
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(writer.Append(JournalRecordType::kPayment,
                                "slot-" + std::to_string(i)).ok());
    }
    const auto bytes = clean.Load();
    ASSERT_TRUE(bytes.ok());
    clean_bytes = *bytes;
  }

  FileJournalStorage inner(file.path());
  FaultInjectorConfig config;
  config.seed = 5150;
  config.short_write_prob = 0.4;
  config.max_consecutive_faults = 2;
  FaultInjector injector(config);
  auto storage = injector.WrapStorage(&inner);
  JournalWriter writer(storage.get(), 0);
  RetryPolicy policy;
  policy.max_attempts = 4;
  writer.EnableRetry(policy, 99);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(writer.Append(JournalRecordType::kPayment,
                              "slot-" + std::to_string(i)).ok());
  }
  EXPECT_GT(injector.stats().short_writes, 0u)
      << "schedule injected no short writes; bump the probability";
  const auto healed = inner.Load();
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(*healed, clean_bytes);
  const auto contents = ScanJournal(*healed);
  ASSERT_TRUE(contents.ok());
  EXPECT_FALSE(contents->truncated_tail);
  EXPECT_EQ(contents->records.size(), 20u);
}

TEST(FileJournalStorageTest, UnrepairedShortWriteLeavesAScannableTornTail) {
  // Without retry the short write surfaces as kUnavailable and the torn
  // frame stays on disk — and the CRC scan must then truncate it away
  // rather than trust it.
  TempFile file("torn_tail");
  FileJournalStorage inner(file.path());
  JournalWriter clean_writer(&inner, 0);
  ASSERT_TRUE(clean_writer.Append(JournalRecordType::kPost, "intact").ok());
  const auto before = inner.Load();
  ASSERT_TRUE(before.ok());

  FaultInjectorConfig config;
  config.short_write_prob = 1.0;
  config.max_consecutive_faults = 1;
  FaultInjector injector(config);
  auto storage = injector.WrapStorage(&inner);
  JournalWriter writer(storage.get(), before->size());
  const Status status = writer.Append(JournalRecordType::kPost, "torn");
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  const auto after = inner.Load();
  ASSERT_TRUE(after.ok());
  const auto contents = ScanJournal(*after);
  ASSERT_TRUE(contents.ok());
  EXPECT_TRUE(contents->truncated_tail);
  EXPECT_EQ(contents->records.size(), 1u);
  EXPECT_EQ(contents->valid_bytes, before->size());
}

// ---------------------------------------------------------------------------
// Satellite 2: ValidateFaultTolerantConfig's new resilience knobs, one
// rejection per path, and the existing knobs still validate.

TEST(FaultTolerantConfigResilienceTest, RejectsBadResilienceKnobs) {
  EXPECT_TRUE(ValidateFaultTolerantConfig(FaultTolerantConfig{}).ok());
  FaultTolerantConfig c;
  c.market_retry.max_attempts = 0;
  EXPECT_EQ(ValidateFaultTolerantConfig(c).code(),
            StatusCode::kInvalidArgument);
  c = FaultTolerantConfig{};
  c.market_retry.jitter_fraction = 2.0;
  EXPECT_FALSE(ValidateFaultTolerantConfig(c).ok());
  c = FaultTolerantConfig{};
  c.market_retry.backoff_multiplier = 0.0;
  EXPECT_FALSE(ValidateFaultTolerantConfig(c).ok());
  c = FaultTolerantConfig{};
  c.breaker.failure_threshold = 0;
  EXPECT_FALSE(ValidateFaultTolerantConfig(c).ok());
  c = FaultTolerantConfig{};
  c.breaker.open_cooldown = -1.0;
  EXPECT_FALSE(ValidateFaultTolerantConfig(c).ok());
  c = FaultTolerantConfig{};
  c.breaker.half_open_successes = -2;
  EXPECT_FALSE(ValidateFaultTolerantConfig(c).ok());
  c = FaultTolerantConfig{};
  c.time_deadline = -0.5;
  EXPECT_FALSE(ValidateFaultTolerantConfig(c).ok());
  c = FaultTolerantConfig{};
  c.time_deadline = kNaN;
  EXPECT_FALSE(ValidateFaultTolerantConfig(c).ok());
  c = FaultTolerantConfig{};
  c.time_deadline = kInf;
  EXPECT_FALSE(ValidateFaultTolerantConfig(c).ok());
}

TEST(FaultTolerantConfigResilienceTest, DurabilityConfigValidatesItsRetry) {
  InMemoryJournalStorage storage;
  DurabilityConfig config;
  config.storage = &storage;
  config.journal_retry.max_attempts = -1;
  EXPECT_EQ(DurableContext::Open(config).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace htune
