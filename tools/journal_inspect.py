#!/usr/bin/env python3
"""Inspect an htune write-ahead journal or fleet manifest.

Usage:
  journal_inspect.py dump <journal>     # print every record, decoded
  journal_inspect.py verify <journal>   # exit 0 iff the journal is a
                                        # complete, uncorrupted run whose
                                        # payment ledger balances
  journal_inspect.py ledger <journal>   # print the per-task payment ledger
  journal_inspect.py manifest <file>    # dump a fleet manifest: every
                                        # record CRC-rechecked, then the
                                        # folded per-job fleet state

The binary format mirrors src/durability/journal.h:
  header:  b"HTWJ" magic + u32 LE format version
  record:  u32 LE payload length | u8 type | payload | u32 LE CRC-32C
The CRC covers length, type, and payload. Integers are little-endian;
doubles are IEEE-754 bit patterns. A fleet manifest (b"HTFM" magic, see
src/durability/manifest.h) shares the frame codec with job/state record
payloads. Snapshot records are decoded for both market-state codec
versions: v2 (8-byte NaN magic + u32 version, src/durability/snapshot.cc)
and the headerless v1. Pure stdlib — no third-party deps.
"""

import struct
import sys

MAGIC = b"HTWJ"
VERSION = 1
MANIFEST_MAGIC = b"HTFM"
MANIFEST_VERSION = 1
HEADER_SIZE = 8
FRAME_OVERHEAD = 9  # u32 len + u8 type + u32 crc

# Market-state snapshot codec (src/durability/snapshot.cc): v2 blobs open
# with this quiet-NaN magic + a u32 version; v1 blobs start directly with
# the `now` double.
SNAPSHOT_MAGIC = 0xFFF7485453563200
SNAPSHOT_VERSION = 2

RECORD_TYPES = {
    1: "run-start",
    2: "post",
    3: "reprice",
    4: "payment",
    5: "completion",
    6: "review-end",
    7: "snapshot",
    8: "run-end",
}

# TraceEventKind (src/market/events.h): the worker-visible trace events
# serialized inside market-state snapshots.
TRACE_EVENT_KINDS = {
    0: "worker-arrival",
    1: "task-accepted",
    2: "repetition-completed",
    3: "task-completed",
    4: "abandoned",
    5: "expired",
    6: "reposted",
}

# MarketEvent::Kind (src/market/event_queue.h): the pending calendar
# events serialized inside market-state snapshots.
EVENT_KINDS = {
    0: "completion",
    1: "abandon",
    2: "expiry",
}

# CRC-32C (Castagnoli), reflected, poly 0x82F63B78 — matches
# src/durability/crc32c.cc.
_CRC_TABLE = []
for _i in range(256):
    _c = _i
    for _ in range(8):
        _c = (_c >> 1) ^ 0x82F63B78 if _c & 1 else _c >> 1
    _CRC_TABLE.append(_c)


def crc32c(data: bytes) -> int:
    crc = 0xFFFFFFFF
    for byte in data:
        crc = _CRC_TABLE[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


class Cursor:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ValueError("truncated payload")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def i64(self) -> int:
        return struct.unpack("<q", self.take(8))[0]

    def i32(self) -> int:
        return struct.unpack("<i", self.take(4))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.take(8))[0]

    def string(self) -> bytes:
        return self.take(self.u64())

    def u8(self) -> int:
        return self.take(1)[0]

    def boolean(self) -> bool:
        return self.take(1)[0] != 0

    def i32_vector(self):
        return [self.i32() for _ in range(self.u64())]

    def f64_vector(self):
        return [self.f64() for _ in range(self.u64())]


def _decode_rep(c: Cursor) -> None:
    c.f64()  # posted_time
    c.f64()  # accepted_time
    c.f64()  # completed_time
    c.u64()  # worker
    c.i32()  # price
    c.i32()  # answer
    c.boolean()  # correct


def _decode_task_outcome(c: Cursor) -> None:
    c.u64()  # id
    c.f64()  # posted_time
    c.f64()  # completed_time
    for _ in range(c.u64()):
        _decode_rep(c)
    c.i32()  # abandoned_attempts
    c.i32()  # expired_posts
    c.i32()  # reposted_posts


def _decode_task(c: Cursor) -> None:
    c.u64()  # id
    c.i32()  # price_per_repetition
    c.i32()  # repetitions
    c.f64()  # on_hold_rate
    c.i32_vector()  # spec_prices
    c.f64_vector()  # spec_rates
    c.i32()  # spec_curve
    c.f64()  # processing_rate
    c.f64()  # acceptance_timeout
    c.i32()  # true_answer
    c.i32()  # num_options
    c.i32_vector()  # rep_prices
    c.f64_vector()  # rep_rates
    c.i32()  # effective_curve
    _decode_task_outcome(c)
    c.i32()  # next_repetition
    c.boolean()  # awaiting_acceptance
    c.f64()  # current_posted_time
    c.u64()  # exposure_generation
    c.i32()  # reprice_price
    c.f64()  # reprice_rate


def _kind_summary(kinds, table) -> str:
    counts = {}
    for kind in kinds:
        counts[kind] = counts.get(kind, 0) + 1
    return " ".join(f"{table.get(kind, f'kind-{kind}')}={counts[kind]}"
                    for kind in sorted(counts))


def describe_snapshot(market: bytes) -> str:
    """Version-sniffing summary of a market-state snapshot blob: the v2
    header when present (src/durability/snapshot.cc), else the headerless
    v1 layout. Both share the same body, which is decoded in full —
    pending calendar events and trace events are tallied per kind."""
    c = Cursor(market)
    try:
        version = 1
        if len(market) >= 8 and struct.unpack_from(
                "<Q", market)[0] == SNAPSHOT_MAGIC:
            c.u64()
            version = struct.unpack("<I", c.take(4))[0]
            if version != SNAPSHOT_VERSION:
                return f"v{version}: unsupported snapshot version"
        now = c.f64()
        c.f64()  # next_arrival_time
        c.u64()  # next_worker
        next_task = c.u64()
        event_sequence = c.u64()
        total_spent = c.i64()
        c.take(32)  # rng engine (4 xoshiro words)
        c.boolean()  # has_cached_normal
        c.f64()  # cached_normal
        event_kinds = []
        for _ in range(c.u64()):
            c.f64()  # time
            c.u64()  # sequence
            c.u64()  # task
            event_kinds.append(c.u8())
            c.u64()  # generation
        open_tasks = c.u64()
        for _ in range(open_tasks):
            _decode_task(c)
        completed = c.u64()
        for _ in range(completed):
            _decode_task_outcome(c)
        for _ in range(c.u64()):
            c.u64()  # completion_order entry
        trace_kinds = []
        for _ in range(c.u64()):
            c.f64()  # time
            trace_kinds.append(c.u8())
            c.u64()  # worker
            c.u64()  # task
            c.i32()  # repetition
        text = (f"v{version} now={now:.6f} tasks_created={next_task} "
                f"events_seen={event_sequence} spent={total_spent} "
                f"open={open_tasks} completed={completed} "
                f"queue=[{_kind_summary(event_kinds, EVENT_KINDS)}] "
                f"trace=[{_kind_summary(trace_kinds, TRACE_EVENT_KINDS)}]")
        if c.pos != len(market):
            text += f" <{len(market) - c.pos} trailing bytes>"
        return text
    except ValueError:
        return f"<malformed snapshot, {len(market)} bytes>"


def describe(rtype: int, payload: bytes) -> str:
    """Human rendering of one record payload; never raises on garbage."""
    c = Cursor(payload)
    try:
        if rtype == 1:
            return f"budget={c.i64()} tasks={c.u64()}"
        if rtype == 2:
            return (f"task={c.u64()} group={c.u64()} "
                    f"prices={c.i32_vector()}")
        if rtype == 3:
            return (f"task={c.u64()} new_price={c.i32()} "
                    f"remaining_slots={c.i64()}")
        if rtype == 4:
            return f"task={c.u64()} slot={c.i32()} price={c.i32()}"
        if rtype == 5:
            return f"task={c.u64()} completed_time={c.f64():.6f}"
        if rtype == 6:
            return (f"review={c.i32()} now={c.f64():.6f} "
                    f"spent={c.i64()}")
        if rtype == 7:
            market = c.string()
            executor = c.string()
            return (f"market_blob={len(market)}B "
                    f"({describe_snapshot(market)}) "
                    f"executor_blob={len(executor)}B")
        if rtype == 8:
            return f"spent={c.i64()} latency={c.f64():.6f}"
        return f"{len(payload)} payload bytes"
    except ValueError:
        return f"<malformed payload, {len(payload)} bytes>"


def scan(data: bytes, magic: bytes = MAGIC, version: int = VERSION,
         kind: str = "journal", record_types=None):
    """Walks the frames of a journal (or, given its magic, version and
    record types, a fleet manifest) like ScanJournal. Returns (records,
    valid_bytes, torn_reason), where records are (offset, type, payload)
    for the valid prefix: every record's CRC is rechecked, and a record of
    a type outside `record_types` (default RECORD_TYPES) ends the prefix."""
    if record_types is None:
        record_types = RECORD_TYPES
    if len(data) == 0:
        return [], 0, None
    if data[:min(len(data), 4)] != magic[:min(len(data), 4)]:
        raise ValueError(f"bad magic: not an htune {kind}")
    if len(data) < HEADER_SIZE:
        return [], 0, "torn header"
    found = struct.unpack("<I", data[4:8])[0]
    if found != version:
        raise ValueError(f"unsupported {kind} version {found}")
    records = []
    pos = HEADER_SIZE
    while pos < len(data):
        if pos + 5 > len(data):
            return records, pos, "torn frame header"
        length, rtype = struct.unpack_from("<IB", data, pos)
        end = pos + FRAME_OVERHEAD + length
        if end > len(data):
            return records, pos, "torn frame body"
        framed = data[pos:pos + 5 + length]
        (crc,) = struct.unpack_from("<I", data, pos + 5 + length)
        if crc32c(framed) != crc:
            return records, pos, "CRC mismatch"
        if rtype not in record_types:
            return records, pos, f"unknown record type {rtype}"
        records.append((pos, rtype, data[pos + 5:pos + 5 + length]))
        pos = end
    return records, pos, None


def build_ledger(records):
    """Returns ({(task, slot): price}, reported_spent_or_None, errors)."""
    ledger = {}
    errors = []
    reported = None
    for offset, rtype, payload in records:
        if rtype == 4:
            c = Cursor(payload)
            task, slot, price = c.u64(), c.i32(), c.i32()
            if (task, slot) in ledger:
                errors.append(
                    f"offset {offset}: task {task} slot {slot} paid twice")
            ledger[(task, slot)] = price
        elif rtype == 8:
            c = Cursor(payload)
            reported = c.i64()
    by_task = {}
    for (task, slot), _ in ledger.items():
        by_task.setdefault(task, []).append(slot)
    for task, slots in sorted(by_task.items()):
        expect = list(range(len(slots)))
        if sorted(slots) != expect:
            errors.append(f"task {task}: non-contiguous paid slots "
                          f"{sorted(slots)}")
    return ledger, reported, errors


def cmd_dump(data: bytes) -> int:
    records, valid, torn = scan(data)
    print(f"{len(records)} records, {valid} valid bytes of {len(data)}")
    for offset, rtype, payload in records:
        name = RECORD_TYPES.get(rtype, f"type-{rtype}")
        print(f"  {offset:8d}  {name:<12} {describe(rtype, payload)}")
    if torn:
        print(f"  TORN TAIL at offset {valid}: {torn} "
              f"({len(data) - valid} bytes dropped on recovery)")
    return 0


def cmd_ledger(data: bytes) -> int:
    records, _, _ = scan(data)
    ledger, reported, errors = build_ledger(records)
    total = sum(ledger.values())
    by_task = {}
    for (task, slot), price in sorted(ledger.items()):
        by_task.setdefault(task, []).append((slot, price))
    for task, slots in sorted(by_task.items()):
        paid = ", ".join(f"slot {s}: {p}" for s, p in slots)
        print(f"task {task}: {paid}")
    print(f"total paid {total} across {len(ledger)} payments")
    if reported is not None:
        print(f"run-end reports spent {reported}: "
              f"{'BALANCED' if reported == total else 'MISMATCH'}")
    for error in errors:
        print(f"ERROR: {error}")
    return 1 if errors else 0


def cmd_verify(data: bytes) -> int:
    records, valid, torn = scan(data)
    problems = []
    if torn:
        problems.append(f"torn tail at offset {valid}: {torn}")
    if not records:
        problems.append("no records")
    else:
        if records[0][1] != 1:
            problems.append("first record is not run-start")
        if records[-1][1] != 8:
            problems.append("last record is not run-end (incomplete run)")
    ledger, reported, errors = build_ledger(records)
    problems.extend(errors)
    total = sum(ledger.values())
    if reported is not None and reported != total:
        problems.append(
            f"ledger total {total} != run-end spent {reported}")
    snapshots = sum(1 for _, rtype, _ in records if rtype == 7)
    if problems:
        for p in problems:
            print(f"FAIL: {p}")
        return 1
    print(f"OK: {len(records)} records, {snapshots} snapshots, "
          f"{len(ledger)} payments totalling {total}, ledger balanced")
    return 0


MANIFEST_RECORD_TYPES = {1: "job", 2: "state"}

FLEET_JOB_STATES = {
    0: "PENDING",
    1: "RUNNING",
    2: "PARKED",
    3: "QUARANTINED",
    4: "DONE",
    5: "SHED",
}

FLEET_CONTROLLERS = {0: "ft", 1: "retune"}


def describe_manifest(rtype: int, payload: bytes) -> str:
    """Human rendering of one manifest record (src/durability/manifest.cc
    payload layout); never raises on garbage."""
    c = Cursor(payload)
    try:
        if rtype == 1:
            job_id = c.u64()
            name = c.string().decode("utf-8", "replace")
            priority = c.i32()
            spec_text = c.string()
            ceiling = c.i64()
            seed_override = c.i64()
            snapshot_interval = c.i32()
            controller = FLEET_CONTROLLERS.get(
                c.take(1)[0], "controller-?")
            return (f"job {job_id} '{name}' priority={priority} "
                    f"spec={len(spec_text)}B ceiling={ceiling} "
                    f"seed_override={seed_override} "
                    f"snapshot_interval={snapshot_interval} "
                    f"controller={controller}")
        if rtype == 2:
            job_id = c.u64()
            state = FLEET_JOB_STATES.get(c.take(1)[0], "state-?")
            restarts = c.i32()
            journal_bytes = c.u64()
            detail = c.string().decode("utf-8", "replace")
            text = (f"job {job_id} -> {state} restarts={restarts} "
                    f"journal_bytes={journal_bytes}")
            return text + (f" detail='{detail}'" if detail else "")
        return f"{len(payload)} payload bytes"
    except ValueError:
        return f"<malformed payload, {len(payload)} bytes>"


def cmd_manifest(data: bytes) -> int:
    records, valid, torn = scan(data, MANIFEST_MAGIC, MANIFEST_VERSION,
                                "fleet manifest", MANIFEST_RECORD_TYPES)
    print(f"{len(records)} records, {valid} valid bytes of {len(data)}")
    for offset, rtype, payload in records:
        name = MANIFEST_RECORD_TYPES.get(rtype, f"type-{rtype}")
        print(f"  {offset:8d}  {name:<6} {describe_manifest(rtype, payload)}")
    if torn:
        print(f"  TORN TAIL at offset {valid}: {torn} "
              f"({len(data) - valid} bytes dropped on recovery)")
    # Fold the record sequence into the fleet state a recovering supervisor
    # would see: last state record per job wins.
    jobs = {}
    unknown = []
    for _, rtype, payload in records:
        c = Cursor(payload)
        try:
            if rtype == 1:
                job_id = c.u64()
                name = c.string().decode("utf-8", "replace")
                jobs[job_id] = {"name": name, "state": "PENDING",
                                "restarts": 0, "journal_bytes": 0,
                                "detail": ""}
            elif rtype == 2:
                job_id = c.u64()
                state = FLEET_JOB_STATES.get(c.take(1)[0], "state-?")
                restarts = c.i32()
                journal_bytes = c.u64()
                detail = c.string().decode("utf-8", "replace")
                if job_id not in jobs:
                    unknown.append(job_id)
                    continue
                jobs[job_id].update(state=state, restarts=restarts,
                                    journal_bytes=journal_bytes,
                                    detail=detail)
        except ValueError:
            pass
    print(f"\nfleet state ({len(jobs)} jobs):")
    counts = {}
    for job_id, job in sorted(jobs.items()):
        counts[job["state"]] = counts.get(job["state"], 0) + 1
        line = (f"  job {job_id:6d}  {job['state']:<12} "
                f"restarts={job['restarts']:<3d} "
                f"journal_bytes={job['journal_bytes']:<10d} {job['name']}")
        if job["detail"]:
            line += f"  [{job['detail']}]"
        print(line)
    summary = " ".join(f"{state}={n}" for state, n in sorted(counts.items()))
    print(f"totals: {summary if summary else 'empty'}")
    for job_id in unknown:
        print(f"WARNING: state record for unknown job {job_id} "
              f"(lost kJob record — quarantined orphan?)")
    return 1 if torn or unknown else 0


def main(argv) -> int:
    if len(argv) != 3 or argv[1] not in ("dump", "verify", "ledger",
                                         "manifest"):
        print(__doc__, file=sys.stderr)
        return 2
    try:
        with open(argv[2], "rb") as f:
            data = f.read()
    except OSError as e:
        print(f"cannot read {argv[2]}: {e}", file=sys.stderr)
        return 1
    try:
        return {"dump": cmd_dump, "verify": cmd_verify,
                "ledger": cmd_ledger, "manifest": cmd_manifest}[argv[1]](data)
    except ValueError as e:
        print(f"FAIL: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
