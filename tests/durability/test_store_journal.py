"""Unit coverage for the durability building blocks: the record/body
codec, the :class:`Journal` write path (validate-before-persist,
baseline seeding, snapshot cadence), the :class:`FileDurableStore`
medium, and the queue's attach/dump/load surface."""

from __future__ import annotations

import json
import os
import zlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.tasks import TaskRequest
from repro.durability import (
    FileDurableStore,
    InMemoryDurableStore,
    Journal,
    JournalCorruption,
    decode_body,
    encode_body,
    load_state,
)
from repro.durability.codec import decode_record, encode_record
from repro.messaging.queue import TaskQueue
from repro.sim.clock import VirtualClock


def fresh_queue(clock=None, **kwargs):
    kwargs.setdefault("visibility_timeout_s", 1e9)
    kwargs.setdefault("max_deliveries", 3)
    return TaskQueue(clock or VirtualClock(), **kwargs)


# -- codec --------------------------------------------------------------------
def test_record_codec_round_trips():
    line = encode_record(7, "put", {"message_id": 7, "nested": {"a": [1, 2]}})
    assert decode_record(line) == (7, "put", {"message_id": 7, "nested": {"a": [1, 2]}})


_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=12,
)


@given(
    seq=st.integers(min_value=1, max_value=2**63),
    op=st.sampled_from(Journal.OPS),
    data=st.dictionaries(st.text(), _json_values, max_size=5),
)
def test_record_line_format_is_pinned(seq, op, data):
    """The on-disk line is the sorted-key compact envelope around the
    canonical ``rec`` array, with the CRC over that array's bytes."""
    canonical = json.dumps([seq, op, data], sort_keys=True, separators=(",", ":"))
    expected = json.dumps(
        {"crc": zlib.crc32(canonical.encode("utf-8")), "rec": [seq, op, data], "v": 1},
        sort_keys=True,
        separators=(",", ":"),
    )
    line = encode_record(seq, op, data)
    assert line == expected
    assert decode_record(line) == (seq, op, data)


def test_record_codec_rejects_stale_crc():
    line = encode_record(7, "put", {"message_id": 7})
    doc = json.loads(line)
    doc["rec"][2]["message_id"] = 8
    tampered = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    with pytest.raises(JournalCorruption, match="crc mismatch"):
        decode_record(tampered)


def test_body_codec_round_trips_requests():
    request = TaskRequest("noop", args=(1, "x"), kwargs={"k": 2.5})
    decoded = decode_body(encode_body(request))
    assert decoded.servable_name == "noop"
    assert decoded.args == (1, "x")
    assert decoded.kwargs == {"k": 2.5}


def test_body_codec_strips_trace_context():
    # Traces can hold live (unpicklable) tracer internals; the codec
    # must drop them rather than fail — they are observability state.
    request = TaskRequest("noop", args=(1,))
    request.trace = object()  # not picklable
    decoded = decode_body(encode_body(request))
    assert decoded.trace is None
    assert request.trace is not None  # the caller's request is untouched


def test_corrupt_body_fails_loud():
    with pytest.raises(JournalCorruption, match="undecodable message body"):
        decode_body("definitely-not-base64-zlib-pickle")


# -- journal write path -------------------------------------------------------
def test_append_validates_before_persisting():
    store = InMemoryDurableStore()
    journal = Journal(store)
    with pytest.raises(JournalCorruption):
        journal.append("ack", {"delivery_tag": 99})  # no such delivery
    assert store.read_journal() == []  # the bad record never hit the medium


def test_seed_baseline_noops_on_fresh_counters():
    journal = Journal(InMemoryDurableStore())
    seq = journal.seed_baseline(
        total_enqueued=0,
        total_acked=0,
        total_redelivered=0,
        topic_enqueued={},
        next_message_id=1,
        next_tag=1,
    )
    assert seq is None
    assert journal.last_seq == 0


def test_seed_baseline_records_history_and_rejects_reuse():
    store = InMemoryDurableStore()
    journal = Journal(store)
    seq = journal.seed_baseline(
        total_enqueued=5,
        total_acked=3,
        total_redelivered=1,
        topic_enqueued={"t": 5},
        next_message_id=6,
        next_tag=4,
    )
    assert seq == 1
    state, _ = load_state(store)
    assert state.total_enqueued == 5
    assert state.next_message_id == 6
    with pytest.raises(ValueError, match="fresh journal"):
        journal.seed_baseline(
            total_enqueued=0,
            total_acked=0,
            total_redelivered=0,
            topic_enqueued={},
            next_message_id=1,
            next_tag=1,
        )


def test_snapshot_cadence_truncates_covered_records():
    store = InMemoryDurableStore()
    journal = Journal(store, snapshot_every_records=3)
    queue = fresh_queue()
    queue.attach_journal(journal)
    for i in range(7):
        queue.put(f"m{i}", topic="t")
    assert journal.snapshots_taken == 2  # after records 3 and 6
    assert store.snapshots == 2
    assert len(store.read_journal()) == 1  # only record 7 remains
    state, report = load_state(store)
    assert report.snapshot_used
    assert report.records_replayed == 1
    assert state.fingerprint(decode_body) == queue.dump_state()


def test_snapshot_cadence_must_be_positive():
    with pytest.raises(ValueError):
        Journal(InMemoryDurableStore(), snapshot_every_records=0)


# -- file store ---------------------------------------------------------------
def test_file_store_persists_across_instances(tmp_path):
    directory = str(tmp_path / "wal")
    store = FileDurableStore(directory)
    journal = Journal(store, snapshot_every_records=4)
    queue = fresh_queue()
    queue.attach_journal(journal)
    for i in range(6):
        queue.put(f"m{i}", topic="t")

    reopened = FileDurableStore(directory)
    assert reopened.read_journal() == store.read_journal()
    assert reopened.read_snapshot() == store.read_snapshot()
    state, report = load_state(reopened)
    assert report.snapshot_used
    assert state.fingerprint(decode_body) == queue.dump_state()


def test_file_store_snapshot_keeps_foreign_records_and_drops_torn_lines(tmp_path):
    """Bytes this store did not write send truncation through the
    decoding scan: another writer's newer record survives, its torn
    line does not, and the store's own later appends land after it."""
    directory = str(tmp_path / "wal")
    store = FileDurableStore(directory)
    lines = {seq: encode_record(seq, "settle", {"task_uuid": f"task-{seq}"}) for seq in range(1, 7)}
    for seq in (1, 2, 3):
        store.append(seq, lines[seq])
    with open(os.path.join(directory, FileDurableStore.JOURNAL), "a", encoding="utf-8") as fh:
        fh.write(lines[4] + "\n")
        fh.write('{"crc":1,"rec":[5,"se')  # torn: no closing bytes, no newline

    store.write_snapshot("{}", 3)
    assert store.read_journal() == [lines[4]]

    store.append(5, lines[5])
    store.append(6, lines[6])
    store.write_snapshot("{}", 4)
    store.close()
    assert FileDurableStore(directory).read_journal() == [lines[5], lines[6]]


def test_file_store_appends_after_snapshots_reach_a_fresh_instance(tmp_path):
    """Truncation replaces the journal file; the appends that follow
    must go to the new file, not the replaced one."""
    directory = str(tmp_path / "wal")
    journal = Journal(FileDurableStore(directory), snapshot_every_records=4)
    queue = fresh_queue()
    queue.attach_journal(journal)
    for i in range(10):  # snapshots after records 4 and 8
        queue.put(f"m{i}", topic="t")
    assert journal.snapshots_taken == 2
    journal.store.close()

    reopened = FileDurableStore(directory)
    assert [decode_record(line)[0] for line in reopened.read_journal()] == [9, 10]
    state, report = load_state(reopened)
    assert report.snapshot_used
    assert report.records_replayed == 2
    assert state.fingerprint(decode_body) == queue.dump_state()


def test_file_store_empty_directory_reads_clean(tmp_path):
    store = FileDurableStore(str(tmp_path / "wal"))
    assert store.read_journal() == []
    assert store.read_snapshot() is None


# -- queue attach/dump/load surface -------------------------------------------
def test_attach_journal_rejects_double_attach():
    queue = fresh_queue()
    queue.attach_journal(Journal(InMemoryDurableStore()))
    with pytest.raises(ValueError, match="already has a journal"):
        queue.attach_journal(Journal(InMemoryDurableStore()))


def test_attach_journal_bootstrap_rejects_nonempty_queue():
    queue = fresh_queue()
    queue.put("m", topic="t")
    with pytest.raises(ValueError, match="no messages"):
        queue.attach_journal(Journal(InMemoryDurableStore()))


def test_dump_load_round_trip():
    clock = VirtualClock()
    queue = fresh_queue(clock)
    for i in range(5):
        clock.advance(0.5)
        queue.put(f"m{i}", topic="t")
    queue.ack(queue.claim("t").delivery_tag)
    for _ in range(3):  # burn the delivery budget -> dead letter
        queue.nack(queue.claim("t").delivery_tag, requeue=True)
    dump = queue.dump_state()
    assert dump["inflight"] == []  # nothing claimed at dump time

    restored = fresh_queue(clock)
    restored.load_state(dump)
    assert restored.dump_state() == dump
    assert restored.ready_count("t") == queue.ready_count("t")
    assert [m.body for m in restored.dead_letters] == [
        m.body for m in queue.dead_letters
    ]


def test_load_state_requires_fresh_queue():
    queue = fresh_queue()
    queue.put("m", topic="t")
    with pytest.raises(ValueError, match="fresh queue"):
        queue.load_state(
            {
                "ready": {},
                "dead": [],
                "total_enqueued": 0,
                "total_acked": 0,
                "total_redelivered": 0,
                "topic_enqueued": {},
                "next_message_id": 1,
                "next_tag": 1,
            }
        )
