// Unit tests for the durability layer: CRC32C, the binary codec, journal
// framing and torn-tail recovery, the exactly-once budget ledger, the
// market snapshot codec, and MarketSimulator capture/restore determinism.

#include <bit>
#include <climits>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "durability/crc32c.h"
#include "durability/journal.h"
#include "durability/ledger.h"
#include "durability/records.h"
#include "durability/recovery.h"
#include "durability/serialize.h"
#include "durability/snapshot.h"
#include "market/simulator.h"
#include "model/price_rate_curve.h"

namespace htune {
namespace {

TEST(Crc32cTest, KnownVectors) {
  // The canonical CRC-32C check value (RFC 3720 / Castagnoli).
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0u);
  // iSCSI test vector: 32 zero bytes.
  EXPECT_EQ(Crc32c(std::string(32, '\0')), 0x8A9136AAu);
}

TEST(Crc32cTest, ExtendComposes) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= data.size(); ++split) {
    const uint32_t head = Crc32c(data.substr(0, split));
    EXPECT_EQ(ExtendCrc32c(head, data.substr(split)), Crc32c(data));
  }
}

// Bit-at-a-time CRC-32C straight from the definition (reflected
// polynomial 0x82F63B78), independent of any table.
uint32_t ReferenceCrc32c(std::string_view bytes) {
  uint32_t state = ~0u;
  for (const char c : bytes) {
    state ^= static_cast<uint8_t>(c);
    for (int bit = 0; bit < 8; ++bit) {
      state = (state >> 1) ^ (0x82F63B78u & (0u - (state & 1u)));
    }
  }
  return ~state;
}

std::string RandomBytes(size_t size, uint32_t seed) {
  std::mt19937 rng(seed);
  std::string bytes(size, '\0');
  for (char& c : bytes) {
    c = static_cast<char>(rng() & 0xFFu);
  }
  return bytes;
}

// Short buffers at every start offset (unaligned reads) and every split
// point: the eight-byte loop, its byte-wise tail and ExtendCrc32c's
// composition all agree with the reference.
TEST(Crc32cTest, MatchesBitwiseReferenceOnShortBuffers) {
  const std::string pool = RandomBytes(64 + 8, 17);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 64; ++length) {
      const std::string_view data =
          std::string_view(pool).substr(offset, length);
      const uint32_t expected = ReferenceCrc32c(data);
      ASSERT_EQ(Crc32c(data), expected) << offset << "+" << length;
      for (size_t split = 0; split <= length; ++split) {
        ASSERT_EQ(ExtendCrc32c(Crc32c(data.substr(0, split)),
                               data.substr(split)),
                  expected)
            << offset << "+" << length << " split " << split;
      }
    }
  }
}

TEST(Crc32cTest, MatchesBitwiseReferenceOnOneMebibyte) {
  constexpr size_t kSize = size_t{1} << 20;
  const std::string pool = RandomBytes(kSize + 8, 29);
  for (size_t offset = 0; offset < 8; ++offset) {
    const std::string_view data = std::string_view(pool).substr(offset, kSize);
    const uint32_t expected = ReferenceCrc32c(data);
    ASSERT_EQ(Crc32c(data), expected) << offset;
    for (const size_t split : {size_t{0}, size_t{1}, size_t{7}, size_t{9},
                               kSize / 2 + 3, kSize - 1, kSize}) {
      ASSERT_EQ(
          ExtendCrc32c(Crc32c(data.substr(0, split)), data.substr(split)),
          expected)
          << offset << " split " << split;
    }
  }
}

// The two implementations ExtendCrc32c picks between, called directly so
// one host checks both: the check value, then every length 0-4096 at every
// start offset 0-7 and across split points, each path continuing the
// other's running checksum.
TEST(Crc32cTest, BothPathsGiveTheCheckValue) {
  EXPECT_EQ(crc32c_internal::ExtendPortable(0, "123456789"), 0xE3069283u);
  if (!crc32c_internal::HardwareAvailable()) {
    GTEST_SKIP() << "no SSE4.2 crc32 instruction on this CPU";
  }
  EXPECT_EQ(crc32c_internal::ExtendHardware(0, "123456789"), 0xE3069283u);
}

TEST(Crc32cTest, HardwareAndPortablePathsAgree) {
  if (!crc32c_internal::HardwareAvailable()) {
    GTEST_SKIP() << "no SSE4.2 crc32 instruction on this CPU";
  }
  using crc32c_internal::ExtendHardware;
  using crc32c_internal::ExtendPortable;
  constexpr size_t kMaxLength = 4096;
  const std::string pool = RandomBytes(kMaxLength + 8, 41);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= kMaxLength; ++length) {
      const std::string_view data =
          std::string_view(pool).substr(offset, length);
      const uint32_t expected = ExtendPortable(0, data);
      ASSERT_EQ(ExtendHardware(0, data), expected) << offset << "+" << length;
      // Every split of the short buffers, a spread of them on long ones.
      std::vector<size_t> splits = {0, 1, 7, 8, 9, length / 2, length};
      if (length <= 64) {
        splits.clear();
        for (size_t split = 0; split <= length; ++split) {
          splits.push_back(split);
        }
      }
      for (const size_t split : splits) {
        if (split > length) continue;
        const std::string_view head = data.substr(0, split);
        const std::string_view tail = data.substr(split);
        ASSERT_EQ(ExtendHardware(ExtendPortable(0, head), tail), expected)
            << offset << "+" << length << " split " << split;
        ASSERT_EQ(ExtendPortable(ExtendHardware(0, head), tail), expected)
            << offset << "+" << length << " split " << split;
      }
    }
  }
}

// Every Put* writes the little-endian bytes spelled out by hand here, the
// on-disk format whatever the host's order.
TEST(SerializeTest, PutsWriteLittleEndianBytes) {
  const auto bytes = [](auto put) {
    Encoder e;
    put(e);
    return e.Release();
  };
  using namespace std::string_literals;
  EXPECT_EQ(bytes([](Encoder& e) { e.PutU8(0xAB); }), "\xAB"s);
  EXPECT_EQ(bytes([](Encoder& e) { e.PutBool(true); }), "\x01"s);
  EXPECT_EQ(bytes([](Encoder& e) { e.PutBool(false); }), "\x00"s);
  EXPECT_EQ(bytes([](Encoder& e) { e.PutU32(0x01020304u); }),
            "\x04\x03\x02\x01"s);
  EXPECT_EQ(bytes([](Encoder& e) { e.PutU64(0x0102030405060708ull); }),
            "\x08\x07\x06\x05\x04\x03\x02\x01"s);
  EXPECT_EQ(bytes([](Encoder& e) { e.PutU64(UINT64_MAX); }),
            std::string(8, '\xFF'));
  EXPECT_EQ(bytes([](Encoder& e) { e.PutI32(-2); }), "\xFE\xFF\xFF\xFF"s);
  EXPECT_EQ(bytes([](Encoder& e) { e.PutI32(INT32_MIN); }),
            "\x00\x00\x00\x80"s);
  EXPECT_EQ(bytes([](Encoder& e) { e.PutI64(-1); }), std::string(8, '\xFF'));
  EXPECT_EQ(bytes([](Encoder& e) { e.PutI64(INT64_MIN); }),
            "\x00\x00\x00\x00\x00\x00\x00\x80"s);
  EXPECT_EQ(bytes([](Encoder& e) { e.PutDouble(1.0); }),
            "\x00\x00\x00\x00\x00\x00\xF0\x3F"s);
  EXPECT_EQ(bytes([](Encoder& e) { e.PutDouble(-0.0); }),
            "\x00\x00\x00\x00\x00\x00\x00\x80"s);
  // A quiet NaN and a signalling one keep their payload bits.
  EXPECT_EQ(bytes([](Encoder& e) {
              e.PutDouble(std::bit_cast<double>(0x7FF8000000000123ull));
            }),
            "\x23\x01\x00\x00\x00\x00\xF8\x7F"s);
  EXPECT_EQ(bytes([](Encoder& e) {
              e.PutDouble(std::bit_cast<double>(0xFFF0000000ABCDEFull));
            }),
            "\xEF\xCD\xAB\x00\x00\x00\xF0\xFF"s);
  EXPECT_EQ(bytes([](Encoder& e) { e.PutString("ab"); }),
            "\x02\x00\x00\x00\x00\x00\x00\x00"
            "ab"s);
  EXPECT_EQ(bytes([](Encoder& e) { e.PutI32Vector({1, -1}); }),
            "\x02\x00\x00\x00\x00\x00\x00\x00"
            "\x01\x00\x00\x00\xFF\xFF\xFF\xFF"s);
  EXPECT_EQ(bytes([](Encoder& e) { e.PutDoubleVector({-2.0}); }),
            "\x01\x00\x00\x00\x00\x00\x00\x00"
            "\x00\x00\x00\x00\x00\x00\x00\xC0"s);
}

// A record framed in place is byte for byte the record framed after
// encoding, and EncodedRecordSize is the size EncodeRecord returns.
TEST(JournalTest, RecordFrameMatchesFramedPayload) {
  const JobRunEndRecord run_end{"report bytes", std::string(1000, '\x07')};
  EXPECT_EQ(EncodedRecordSize(run_end), EncodeRecord(run_end).size());
  EXPECT_EQ(EncodeRecordFrame(JournalRecordType::kRunEnd, run_end),
            EncodeJournalRecord(JournalRecordType::kRunEnd,
                                EncodeRecord(run_end)));
  ServiceSnapshotRecord snapshot;
  snapshot.review_epoch = 9;
  snapshot.market = "market blob";
  snapshot.sessions = {{1, "a"}, {2, "bc"}};
  EXPECT_EQ(EncodedRecordSize(snapshot), EncodeRecord(snapshot).size());
  EXPECT_EQ(EncodeRecordFrame(JournalRecordType::kSnapshot, snapshot),
            EncodeJournalRecord(JournalRecordType::kSnapshot,
                                EncodeRecord(snapshot)));
  const PostRecord post{4, 1, {3, 3, 5}};
  EXPECT_EQ(EncodedRecordSize(post), EncodeRecord(post).size());
  EXPECT_EQ(EncodeRecordFrame(JournalRecordType::kPost, post),
            EncodeJournalRecord(JournalRecordType::kPost, EncodeRecord(post)));
}

TEST(SerializeTest, RoundTripsEveryType) {
  Encoder encoder;
  encoder.PutU8(250);
  encoder.PutU32(0xDEADBEEFu);
  encoder.PutU64(0x0123456789ABCDEFull);
  encoder.PutI32(-42);
  encoder.PutI64(-1234567890123LL);
  encoder.PutBool(true);
  encoder.PutDouble(3.14159265358979);
  encoder.PutString("payload");
  encoder.PutI32Vector({1, -2, 3});
  encoder.PutDoubleVector({0.5, -0.25});

  Decoder decoder(encoder.bytes());
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  int32_t i32;
  int64_t i64;
  bool b;
  double d;
  std::string s;
  std::vector<int> iv;
  std::vector<double> dv;
  ASSERT_TRUE(decoder.GetU8(&u8).ok());
  ASSERT_TRUE(decoder.GetU32(&u32).ok());
  ASSERT_TRUE(decoder.GetU64(&u64).ok());
  ASSERT_TRUE(decoder.GetI32(&i32).ok());
  ASSERT_TRUE(decoder.GetI64(&i64).ok());
  ASSERT_TRUE(decoder.GetBool(&b).ok());
  ASSERT_TRUE(decoder.GetDouble(&d).ok());
  ASSERT_TRUE(decoder.GetString(&s).ok());
  ASSERT_TRUE(decoder.GetI32Vector(&iv).ok());
  ASSERT_TRUE(decoder.GetDoubleVector(&dv).ok());
  EXPECT_TRUE(decoder.Done());
  EXPECT_TRUE(decoder.ExpectDone().ok());
  EXPECT_EQ(u8, 250);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(i32, -42);
  EXPECT_EQ(i64, -1234567890123LL);
  EXPECT_TRUE(b);
  EXPECT_DOUBLE_EQ(d, 3.14159265358979);
  EXPECT_EQ(s, "payload");
  EXPECT_EQ(iv, (std::vector<int>{1, -2, 3}));
  EXPECT_EQ(dv, (std::vector<double>{0.5, -0.25}));
}

TEST(SerializeTest, TruncatedInputFailsCleanly) {
  Encoder encoder;
  encoder.PutDouble(1.5);
  encoder.PutString("hello");
  const std::string bytes = encoder.bytes();
  // Every strict prefix must fail on some accessor, never crash.
  for (size_t len = 0; len < bytes.size(); ++len) {
    Decoder decoder(std::string_view(bytes).substr(0, len));
    double d;
    std::string s;
    const Status status =
        !decoder.GetDouble(&d).ok()
            ? InvalidArgumentError("truncated double")
            : decoder.GetString(&s);
    EXPECT_FALSE(status.ok()) << "prefix length " << len;
  }
}

TEST(SerializeTest, HostileLengthIsRejectedBeforeAllocation) {
  Encoder encoder;
  encoder.PutU64(~0ull);  // a string length claiming 2^64-1 bytes
  Decoder decoder(encoder.bytes());
  std::string s;
  EXPECT_FALSE(decoder.GetString(&s).ok());
  Decoder decoder2(encoder.bytes());
  std::vector<double> dv;
  EXPECT_FALSE(decoder2.GetDoubleVector(&dv).ok());
}

std::string JournalWith(const std::vector<std::pair<JournalRecordType,
                                                    std::string>>& records) {
  InMemoryJournalStorage storage;
  JournalWriter writer(&storage, 0);
  for (const auto& [type, payload] : records) {
    EXPECT_TRUE(writer.Append(type, payload).ok());
  }
  return storage.bytes();
}

TEST(JournalTest, EmptyIsFresh) {
  const auto contents = ScanJournal("");
  ASSERT_TRUE(contents.ok());
  EXPECT_TRUE(contents->records.empty());
  EXPECT_FALSE(contents->truncated_tail);
  EXPECT_EQ(contents->valid_bytes, 0u);
}

TEST(JournalTest, RoundTripsRecords) {
  const std::string bytes = JournalWith({
      {JournalRecordType::kRunStart, "alpha"},
      {JournalRecordType::kPayment, std::string("\x00\x01", 2)},
      {JournalRecordType::kRunEnd, ""},
  });
  const auto contents = ScanJournal(bytes);
  ASSERT_TRUE(contents.ok());
  ASSERT_EQ(contents->records.size(), 3u);
  EXPECT_EQ(contents->records[0].type, JournalRecordType::kRunStart);
  EXPECT_EQ(contents->records[0].payload, "alpha");
  EXPECT_EQ(contents->records[1].payload, std::string("\x00\x01", 2));
  EXPECT_EQ(contents->records[2].type, JournalRecordType::kRunEnd);
  EXPECT_EQ(contents->records.back().end_offset, bytes.size());
  EXPECT_FALSE(contents->truncated_tail);
}

TEST(JournalTest, EveryTruncationRecoversTheValidPrefix) {
  const std::string bytes = JournalWith({
      {JournalRecordType::kRunStart, "alpha"},
      {JournalRecordType::kPost, "bravo-bravo"},
      {JournalRecordType::kRunEnd, "c"},
  });
  const auto full = ScanJournal(bytes);
  ASSERT_TRUE(full.ok());
  std::vector<uint64_t> boundaries = {8};  // header
  for (const JournalRecord& record : full->records) {
    boundaries.push_back(record.end_offset);
  }
  for (size_t len = 0; len <= bytes.size(); ++len) {
    const auto contents = ScanJournal(std::string_view(bytes).substr(0, len));
    ASSERT_TRUE(contents.ok()) << "truncated to " << len;
    // The scan keeps exactly the records whose frames fit entirely.
    size_t expect_records = 0;
    uint64_t expect_valid = len < 8 ? 0 : 8;
    for (size_t i = 1; i < boundaries.size(); ++i) {
      if (boundaries[i] <= len) {
        expect_records = i;
        expect_valid = boundaries[i];
      }
    }
    EXPECT_EQ(contents->records.size(), expect_records) << "len " << len;
    EXPECT_EQ(contents->valid_bytes, expect_valid) << "len " << len;
    EXPECT_EQ(contents->truncated_tail, len != expect_valid) << "len " << len;
  }
}

TEST(JournalTest, EveryBitFlipIsDetected) {
  const std::string bytes = JournalWith({
      {JournalRecordType::kRunStart, "seed"},
      {JournalRecordType::kPayment, "pay"},
  });
  const auto full = ScanJournal(bytes);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->records.size(), 2u);
  // Flip every bit of the second record's frame: the scan must either drop
  // that record (CRC/length/type detection) or report an error — it must
  // never return a record with altered bytes as valid.
  const uint64_t frame_start = full->records[0].end_offset;
  for (size_t byte = frame_start; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = bytes;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      const auto contents = ScanJournal(corrupt);
      ASSERT_TRUE(contents.ok());
      ASSERT_LE(contents->records.size(), 2u);
      if (contents->records.size() == 2) {
        // A surviving second record must be byte-identical to the original
        // (possible only if the flip landed past the frame—it cannot here).
        EXPECT_EQ(contents->records[1].payload, "pay")
            << "byte " << byte << " bit " << bit;
        ADD_FAILURE() << "bit flip inside the frame went undetected at byte "
                      << byte << " bit " << bit;
      } else {
        EXPECT_TRUE(contents->truncated_tail);
        EXPECT_EQ(contents->records.size(), 1u);
      }
    }
  }
}

TEST(JournalTest, BadMagicIsAnErrorNotATruncation) {
  std::string bytes = JournalWith({{JournalRecordType::kRunStart, "x"}});
  bytes[0] = 'X';
  EXPECT_FALSE(ScanJournal(bytes).ok());
}

TEST(JournalTest, OpenPhysicallyTruncatesTornTail) {
  InMemoryJournalStorage storage;
  JournalWriter writer(&storage, 0);
  ASSERT_TRUE(writer.Append(JournalRecordType::kRunStart, "alpha").ok());
  const size_t valid = storage.bytes().size();
  storage.bytes() += "torn-partial-frame";
  const auto contents = OpenJournal(storage);
  ASSERT_TRUE(contents.ok());
  EXPECT_TRUE(contents->truncated_tail);
  EXPECT_EQ(storage.bytes().size(), valid);
  // Appending after recovery lands on a clean boundary.
  JournalWriter resumed(&storage, contents->valid_bytes);
  ASSERT_TRUE(resumed.Append(JournalRecordType::kRunEnd, "omega").ok());
  const auto reread = ScanJournal(storage.bytes());
  ASSERT_TRUE(reread.ok());
  ASSERT_EQ(reread->records.size(), 2u);
  EXPECT_EQ(reread->records[1].payload, "omega");
}

TEST(JournalTest, CrashInjectionTearsExactlyAtBudget) {
  const std::string one = EncodeJournalRecord(JournalRecordType::kPost, "pp");
  InMemoryJournalStorage inner;
  // Budget covers the header and half of the first record.
  const uint64_t budget = 8 + one.size() / 2;
  CrashInjectingStorage crash(&inner, budget);
  JournalWriter writer(&crash, 0);
  const Status status = writer.Append(JournalRecordType::kPost, "pp");
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(crash.crashed());
  EXPECT_EQ(inner.bytes().size(), budget);  // torn prefix persisted
  EXPECT_FALSE(writer.Append(JournalRecordType::kPost, "pp").ok());
  // Recovery on the torn storage drops the partial frame.
  const auto contents = OpenJournal(inner);
  ASSERT_TRUE(contents.ok());
  EXPECT_TRUE(contents->records.empty());
  EXPECT_TRUE(contents->truncated_tail);
  EXPECT_EQ(inner.bytes().size(), 8u);
}

TEST(LedgerTest, ExactlyOnceSemantics) {
  BudgetLedger ledger;
  auto first = ledger.RecordPayment(7, 0, 3);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(*first);
  auto duplicate = ledger.RecordPayment(7, 0, 3);
  ASSERT_TRUE(duplicate.ok());
  EXPECT_FALSE(*duplicate);  // idempotent re-record
  EXPECT_FALSE(ledger.RecordPayment(7, 0, 4).ok());  // conflicting price
  EXPECT_FALSE(ledger.RecordPayment(7, 2, 3).ok());  // slot gap
  ASSERT_TRUE(ledger.RecordPayment(7, 1, 5).ok());
  EXPECT_EQ(ledger.PaymentsFor(7), 2);
  EXPECT_EQ(ledger.PaymentsFor(8), 0);
  EXPECT_EQ(ledger.TotalPaid(), 8);
  EXPECT_EQ(ledger.Entries(), 2u);
}

TEST(LedgerTest, EncodeDecodeRoundTrip) {
  BudgetLedger ledger;
  ASSERT_TRUE(ledger.RecordPayment(1, 0, 2).ok());
  ASSERT_TRUE(ledger.RecordPayment(1, 1, 4).ok());
  ASSERT_TRUE(ledger.RecordPayment(9, 0, 1).ok());
  const std::string bytes = ledger.Encode();
  const auto decoded = BudgetLedger::Decode(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->TotalPaid(), 7);
  EXPECT_EQ(decoded->PaymentsFor(1), 2);
  EXPECT_EQ(decoded->PaymentsFor(9), 1);
  EXPECT_EQ(decoded->Encode(), bytes);
  // Corrupted ledger bytes fail cleanly.
  for (size_t len = 0; len < bytes.size(); ++len) {
    BudgetLedger::Decode(std::string_view(bytes).substr(0, len)).ok();
  }
}

MarketConfig AbandonmentConfig() {
  MarketConfig config;
  config.worker_arrival_rate = 30.0;
  config.worker_error_prob = 0.2;
  config.abandon_prob = 0.25;
  config.abandon_hold_rate = 4.0;
  config.seed = 77;
  return config;
}

void PostSomeTasks(MarketSimulator& market, int count) {
  for (int i = 0; i < count; ++i) {
    TaskSpec spec;
    spec.price_per_repetition = 2;
    spec.repetitions = 3;
    spec.on_hold_rate = 3.0;
    spec.processing_rate = 2.0;
    spec.acceptance_timeout = 1.5;
    spec.num_options = 4;
    ASSERT_TRUE(market.PostTask(spec).ok());
  }
}

TEST(SnapshotTest, MarketStateCodecRoundTripsBitwise) {
  MarketSimulator market(AbandonmentConfig());
  PostSomeTasks(market, 6);
  market.RunUntil(0.8);  // capture mid-run, with events in flight
  const auto state = market.CaptureState({});
  ASSERT_TRUE(state.ok());
  const std::string bytes = EncodeMarketState(*state);
  const auto decoded = DecodeMarketState(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(EncodeMarketState(*decoded), bytes);
  // Hostile inputs: every truncation fails cleanly.
  for (size_t len = 0; len < bytes.size(); len += 7) {
    EXPECT_FALSE(DecodeMarketState(std::string_view(bytes).substr(0, len))
                     .ok());
  }
}

TEST(SnapshotTest, V2BlobCarriesMagicAndRejectsUnknownVersions) {
  MarketSimulator market(AbandonmentConfig());
  PostSomeTasks(market, 6);
  market.RunUntil(0.8);
  const auto state = market.CaptureState({});
  ASSERT_TRUE(state.ok());
  const std::string bytes = EncodeMarketState(*state);
  // The v2 header is a NaN-patterned magic u64 — a value the v1 format
  // (which opened with a finite clock double) can never begin with.
  ASSERT_GE(bytes.size(), 12u);
  Decoder decoder(bytes);
  uint64_t magic = 0;
  uint32_t version = 0;
  ASSERT_TRUE(decoder.GetU64(&magic).ok());
  ASSERT_TRUE(decoder.GetU32(&version).ok());
  EXPECT_EQ(magic, 0xFFF7485453563200ULL);
  EXPECT_EQ(version, 2u);
  // A future version must be rejected, not misparsed.
  Encoder forged;
  forged.PutU64(magic);
  forged.PutU32(3);
  const auto decoded = DecodeMarketState(std::move(forged).Release());
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("unsupported snapshot version"),
            std::string::npos);
}

TEST(SnapshotTest, HeaderlessBlobIsInvalidArgument) {
  // The pre-v2 format was the body with no magic/version header. It is
  // refused, not rerun: a headerless blob, or any blob whose first word is
  // not the magic, decodes to InvalidArgument.
  MarketSimulator market(AbandonmentConfig());
  PostSomeTasks(market, 6);
  market.RunUntil(0.8);
  const auto state = market.CaptureState({});
  ASSERT_TRUE(state.ok());
  const std::string bytes = EncodeMarketState(*state);
  for (const std::string& blob :
       {bytes.substr(12), std::string(), bytes.substr(0, 7),
        std::string(8, '\0') + bytes.substr(8)}) {
    const auto decoded = DecodeMarketState(blob);
    ASSERT_FALSE(decoded.ok()) << blob.size();
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(decoded.status().message().find("no v2 header"),
              std::string::npos)
        << decoded.status();
  }
}

// Completed outcomes restore in the order `completion_order` names, the
// completion order CaptureState writes; the id-sorted or otherwise permuted
// outcomes the pre-v2 format allowed are refused.
TEST(SnapshotTest, RestoreRequiresCompletedOutcomesInCompletionOrder) {
  MarketSimulator market(AbandonmentConfig());
  PostSomeTasks(market, 6);
  market.RunUntil(2.5);
  const auto state = market.CaptureState({});
  ASSERT_TRUE(state.ok());
  ASSERT_GE(state->completed.size(), 2u);
  auto restore = [](const MarketState& patched) {
    MarketSimulator restored(AbandonmentConfig());
    return restored.RestoreState(patched, {}).code();
  };
  EXPECT_EQ(restore(*state), StatusCode::kOk);
  MarketState swapped = *state;
  std::swap(swapped.completed[0], swapped.completed[1]);
  EXPECT_EQ(restore(swapped), StatusCode::kInvalidArgument);
  MarketState short_order = *state;
  short_order.completion_order.pop_back();
  EXPECT_EQ(restore(short_order), StatusCode::kInvalidArgument);
}

TEST(SnapshotTest, RestoredMarketContinuesBitwiseIdentically) {
  MarketSimulator original(AbandonmentConfig());
  PostSomeTasks(original, 6);
  original.RunUntil(0.8);
  const auto state = original.CaptureState({});
  ASSERT_TRUE(state.ok());

  MarketSimulator restored(AbandonmentConfig());
  ASSERT_TRUE(restored.RestoreState(*state, {}).ok());

  ASSERT_TRUE(original.RunToCompletion().ok());
  ASSERT_TRUE(restored.RunToCompletion().ok());
  EXPECT_EQ(original.TotalSpent(), restored.TotalSpent());
  EXPECT_EQ(original.now(), restored.now());
  EXPECT_EQ(original.workers_arrived(), restored.workers_arrived());
  const auto& trace_a = original.trace();
  const auto& trace_b = restored.trace();
  ASSERT_EQ(trace_a.size(), trace_b.size());
  for (size_t i = 0; i < trace_a.size(); ++i) {
    EXPECT_EQ(trace_a[i].time, trace_b[i].time) << "event " << i;
    EXPECT_EQ(trace_a[i].kind, trace_b[i].kind) << "event " << i;
    EXPECT_EQ(trace_a[i].worker, trace_b[i].worker) << "event " << i;
    EXPECT_EQ(trace_a[i].task, trace_b[i].task) << "event " << i;
    EXPECT_EQ(trace_a[i].repetition, trace_b[i].repetition) << "event " << i;
  }
}

// Every completion or abandon event settles the in-flight repetition of a
// processing task, one per such task, and a processing task has accepted a
// repetition; RunUntil relies on all three. A stale expiry stays legal.
TEST(SnapshotTest, RestoreRejectsEventsWithoutAProcessingTask) {
  MarketSimulator market(AbandonmentConfig());
  PostSomeTasks(market, 6);
  market.RunUntil(0.8);
  const auto state = market.CaptureState({});
  ASSERT_TRUE(state.ok());
  TaskId on_hold = 0;
  size_t busy = state->open_tasks.size();
  for (size_t i = 0; i < state->open_tasks.size(); ++i) {
    if (state->open_tasks[i].awaiting_acceptance) {
      on_hold = state->open_tasks[i].id;
    } else {
      busy = i;
    }
  }
  ASSERT_NE(on_hold, 0u);
  ASSERT_LT(busy, state->open_tasks.size());
  const TaskId busy_id = state->open_tasks[busy].id;
  const uint8_t expiry = static_cast<uint8_t>(MarketEvent::Kind::kExpiry);
  const uint8_t completion =
      static_cast<uint8_t>(MarketEvent::Kind::kCompletion);
  size_t busy_event = state->events.size();
  for (size_t i = 0; i < state->events.size(); ++i) {
    if (state->events[i].task == busy_id && state->events[i].kind != expiry) {
      busy_event = i;
    }
  }
  ASSERT_LT(busy_event, state->events.size());
  auto restore = [](const MarketState& patched) {
    MarketSimulator restored(AbandonmentConfig());
    return restored.RestoreState(patched, {}).code();
  };
  auto patched = [&](auto edit) {
    MarketState copy = *state;
    edit(copy);
    return restore(copy);
  };
  EXPECT_EQ(restore(*state), StatusCode::kOk);
  EXPECT_EQ(patched([&](MarketState& s) {
              s.events.push_back({9.0, s.event_sequence++, 999, expiry, 1});
            }),
            StatusCode::kOk);  // stale expiry of a task never posted
  EXPECT_EQ(patched([&](MarketState& s) {
              s.events.push_back(
                  {9.0, s.event_sequence++, on_hold, completion, 0});
            }),
            StatusCode::kInvalidArgument);  // names an on-hold task
  EXPECT_EQ(patched([&](MarketState& s) {
              s.events.push_back({9.0, s.event_sequence++, 999, completion, 0});
            }),
            StatusCode::kInvalidArgument);  // names no open task
  EXPECT_EQ(patched([&](MarketState& s) {
              s.events.erase(s.events.begin() +
                             static_cast<std::ptrdiff_t>(busy_event));
            }),
            StatusCode::kInvalidArgument);  // processing without an event
  EXPECT_EQ(
      patched([&](MarketState& s) { s.events[busy_event].kind = expiry; }),
      StatusCode::kInvalidArgument);  // its only event became an expiry
  EXPECT_EQ(patched([&](MarketState& s) {
              MarketState::Event twin = s.events[busy_event];
              twin.sequence = s.event_sequence++;
              s.events.push_back(twin);
            }),
            StatusCode::kInvalidArgument);  // two events for one task
  EXPECT_EQ(patched([&](MarketState& s) {
              s.open_tasks[busy].outcome.repetitions.clear();
            }),
            StatusCode::kInvalidArgument);  // processing, nothing accepted
}

TEST(SnapshotTest, CaptureRejectsUnknownCurves) {
  MarketConfig config;
  config.seed = 3;
  MarketSimulator market(config);
  TaskSpec spec;
  spec.price_per_repetition = 1;
  spec.repetitions = 1;
  spec.on_hold_rate = 2.0;
  spec.true_curve = std::make_shared<LinearCurve>(1.0, 1.0);
  ASSERT_TRUE(market.PostTask(spec).ok());
  EXPECT_FALSE(market.CaptureState({}).ok());  // curve not in the table
  EXPECT_TRUE(market.CaptureState({spec.true_curve}).ok());
}

TEST(RecoveryTest, SnapshotPayloadRoundTrip) {
  InMemoryJournalStorage storage;
  DurabilityConfig config;
  config.storage = &storage;
  auto context = DurableContext::Open(config);
  ASSERT_TRUE(context.ok());
  EXPECT_FALSE(context->has_snapshot());
  EXPECT_FALSE(context->replaying());
  ASSERT_TRUE(context->Emit(JournalRecordType::kRunStart, "rs").ok());
  ASSERT_TRUE(context->EmitSnapshot("market-blob", "executor-blob").ok());
  ASSERT_TRUE(context->Emit(JournalRecordType::kPayment, "pay0").ok());

  auto reopened = DurableContext::Open(config);
  ASSERT_TRUE(reopened.ok());
  ASSERT_TRUE(reopened->has_snapshot());
  EXPECT_EQ(reopened->market_snapshot(), "market-blob");
  EXPECT_EQ(reopened->executor_snapshot(), "executor-blob");
  // One record after the snapshot: replay must verify it bitwise.
  EXPECT_TRUE(reopened->replaying());
  EXPECT_FALSE(
      reopened->Emit(JournalRecordType::kPayment, "different").ok());
  auto reopened2 = DurableContext::Open(config);
  ASSERT_TRUE(reopened2.ok());
  EXPECT_TRUE(
      reopened2->Emit(JournalRecordType::kPayment, "pay0").ok());
  EXPECT_FALSE(reopened2->replaying());  // tail exhausted: append mode
  EXPECT_TRUE(reopened2->Emit(JournalRecordType::kRunEnd, "done").ok());
}

}  // namespace
}  // namespace htune
