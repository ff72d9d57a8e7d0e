import gc
import random
import threading

import pytest

from churnscope import (
    AllocFnKind,
    CostModel,
    CounterSnapshot,
    MarkerChurn,
    RecorderSealedError,
    SpanStateError,
    ThreadAffinityError,
    ThreadRecorder,
    TracingAllocator,
    begin_marker,
    end_marker,
    marker,
    span_churn,
)

from factories import snapshot_calls
from replay_oracle import replay, replay_record

MODEL = CostModel()


def make_recorder():
    return ThreadRecorder("t0", MODEL, ring_capacity=1 << 14)


def test_begin_on_fresh_recorder_snapshots_zero():
    rec = make_recorder()
    span = begin_marker(rec, "startup")
    assert span.start_snapshot.seq == 0
    assert span.start_snapshot.cost_nano == 0
    assert not span.closed


def test_overlapping_spans_have_independent_snapshots():
    rec = make_recorder()
    heap = TracingAllocator(rec)
    sync = begin_marker(rec, "sync")
    heap.malloc(64)
    cache = begin_marker(rec, "cache")
    assert sync.start_snapshot.seq == 0
    assert cache.start_snapshot.seq == 1
    heap.malloc(64)
    end_marker(sync)
    heap.malloc(64)
    end_marker(cache)
    assert sync.start_snapshot is None and cache.start_snapshot is None  # a closed span holds its record only
    events = rec.events()
    assert span_churn(sync) == replay_record(events, MODEL, sync, 0, 2, rec.ring_capacity)
    assert span_churn(cache) == replay_record(events, MODEL, cache, 1, 3, rec.ring_capacity)
    assert span_churn(sync).malloc_calls == span_churn(cache).malloc_calls == 2


def test_zero_width_span_has_an_empty_record():
    rec = make_recorder()
    span = begin_marker(rec, "noop")
    assert repr(span) == "MarkerSpan('t0/000000', 'noop', open)"
    start = span.start_snapshot
    end_marker(span)
    assert rec.snapshot() is start  # no call between the markers: one snapshot for both
    assert span_churn(span) == MarkerChurn(name="noop", cost_micro=0, thread_id="t0", span_id="t0/000000")
    assert repr(span) == "MarkerSpan('t0/000000', 'noop', closed)"


def test_end_on_wrong_thread_rejected():
    rec = make_recorder()
    span = begin_marker(rec, "phase")
    caught = []

    def closer():
        try:
            end_marker(span)
        except ThreadAffinityError as exc:
            caught.append(exc)

    thread = threading.Thread(target=closer)
    thread.start()
    thread.join()
    assert len(caught) == 1
    assert not span.closed
    end_marker(span)


def test_double_close_rejected():
    rec = make_recorder()
    span = begin_marker(rec, "phase")
    end_marker(span)
    with pytest.raises(SpanStateError):
        end_marker(span)


def test_counter_delta_after_three_mallocs():
    rec = make_recorder()
    heap = TracingAllocator(rec)
    span = begin_marker(rec, "phase")
    for size in (16, 32, 64):
        heap.malloc(size)
    end_marker(span)
    assert span_churn(span).malloc_calls == 3
    oracle = replay(rec.events(), MODEL, 0, 3)
    assert oracle.calls[AllocFnKind.MALLOC] == 3
    assert span_churn(span) == replay_record(rec.events(), MODEL, span, 0, 3, rec.ring_capacity)


def test_same_name_open_twice_disambiguated_by_span_id():
    rec = make_recorder()
    first = begin_marker(rec, "phase")
    second = begin_marker(rec, "phase")
    assert first.span_id != second.span_id
    end_marker(second)
    end_marker(first)


def test_begin_on_sealed_recorder_rejected():
    rec = make_recorder()
    rec.seal()
    with pytest.raises(RecorderSealedError):
        begin_marker(rec, "late")


def test_seal_auto_closes_open_spans():
    rec = make_recorder()
    heap = TracingAllocator(rec)
    span = begin_marker(rec, "orphan")
    heap.malloc(128)
    rec.seal()
    assert span.closed
    assert span.start_snapshot is None
    churn = span_churn(span)
    assert churn.auto_closed
    assert churn.malloc_calls == churn.total_calls == 1
    assert rec.snapshot().seq == 1


def test_seal_auto_closes_only_spans_still_open_after_out_of_order_closes():
    rec = make_recorder()
    heap = TracingAllocator(rec)
    spans = []
    for i in range(5):
        spans.append(begin_marker(rec, f"phase-{i}"))
        heap.malloc(32 * (i + 1))
    a, b, c, d, e = spans
    ends = {d.span_id: rec.snapshot().seq}
    end_marker(d)
    heap.malloc(16)
    ends[b.span_id] = rec.snapshot().seq
    end_marker(b)
    heap.malloc(16)
    records = {span.span_id: span_churn(span) for span in (b, d)}
    heap.malloc(16)
    seal_seq = rec.snapshot().seq
    rec.seal()
    assert ends[d.span_id] < ends[b.span_id] < seal_seq
    events = rec.events()
    for span in (b, d):
        assert span_churn(span) is records[span.span_id]
        assert span_churn(span) == replay_record(
            events, MODEL, span, spans.index(span), ends[span.span_id], rec.ring_capacity)
    for span in (a, c, e):
        assert span.closed
        # Span i began at seq i, and the seal closed it at the seal's seq.
        assert span_churn(span) == replay_record(
            events, MODEL, span, spans.index(span), seal_seq, rec.ring_capacity, auto_closed=True)
    assert rec.spans() == spans
    for span in spans:
        with pytest.raises(SpanStateError, match="already closed"):
            end_marker(span)


def test_spans_closed_by_seal_share_its_snapshot_with_a_marker_at_that_seq():
    rec = make_recorder()
    heap = TracingAllocator(rec)
    outer = begin_marker(rec, "outer")
    heap.malloc(16)
    inner = begin_marker(rec, "inner")
    heap.malloc(32)
    last = begin_marker(rec, "last")
    at_last = last.start_snapshot
    assert at_last.seq == 2
    rec.seal()
    assert rec.snapshot() is at_last  # the seal took no snapshot of its own at that seq
    assert all(span_churn(span).auto_closed for span in (outer, inner, last))
    assert [span_churn(span).malloc_calls for span in (outer, inner, last)] == [2, 1, 0]


def test_snapshot_after_seal_is_the_seal_snapshot_on_every_thread():
    rec = make_recorder()
    heap = TracingAllocator(rec)
    heap.malloc(64)
    span = begin_marker(rec, "open")
    heap.malloc(64)
    sealed = rec.snapshot()  # the snapshot the seal closes the span at
    rec.seal()
    assert span_churn(span) == replay_record(rec.events(), MODEL, span, 1, 2, rec.ring_capacity, auto_closed=True)
    seen = []
    threads = [threading.Thread(target=lambda: seen.append(rec.snapshot())) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    assert len(seen) == 2
    assert all(snap is sealed for snap in seen)
    assert rec.snapshot() is sealed


def test_endpoint_snapshots_are_one_object_per_seq():
    """A densely marked thread: nested, overlapping and back-to-back spans,
    marker runs with no call between them, and spans left for the seal."""
    rng = random.Random(3101)
    rec = make_recorder()
    heap = TracingAllocator(rec)
    open_spans = []
    live = []
    endpoints = []  # the snapshot each marker took: a span's start, or the recorder's at its end

    def begin():
        span = begin_marker(rec, rng.choice("abcd"))
        endpoints.append(span.start_snapshot)
        open_spans.append(span)

    def end(span):
        end_marker(span)
        endpoints.append(rec.snapshot())

    for _ in range(1500):
        roll = rng.random()
        if roll < 0.25 and len(open_spans) < 6:
            begin()
        elif roll < 0.45 and open_spans:
            end(open_spans.pop(rng.randrange(len(open_spans))))
        elif roll < 0.55 and open_spans:  # back to back: the next span begins where one ends
            end(open_spans.pop())
            begin()
        elif live and roll < 0.7:
            heap.free(live.pop(rng.randrange(len(live))))
        else:
            live.append(heap.malloc(rng.randrange(0, 4096)))
    assert open_spans
    rec.seal()
    endpoints.append(rec.snapshot())  # where the seal closed the spans left open
    by_seq = {snap.seq: snap for snap in endpoints}
    assert len({id(snap) for snap in endpoints}) == len(by_seq) < len(endpoints)
    assert any(span_churn(span).auto_closed for span in rec.spans())
    events = rec.events()
    for seq, snap in by_seq.items():
        oracle = replay(events, MODEL, 0, seq)
        assert snapshot_calls(snap) == oracle.calls
        assert (snap.bytes_allocated, snap.bytes_freed, snap.cost_nano) == (
            oracle.bytes_allocated, oracle.bytes_freed, oracle.cost_nano)


def test_marker_context_manager_closes_on_error():
    rec = make_recorder()
    with pytest.raises(RuntimeError):
        with marker(rec, "phase") as span:
            raise RuntimeError("boom")
    assert span.closed


@pytest.mark.parametrize(
    "name",
    ["", "churnscope.internal", "x" * 129, "é" * 65],
)
def test_invalid_marker_names_rejected(name):
    rec = make_recorder()
    with pytest.raises(ValueError):
        begin_marker(rec, name)


def test_reserved_prefix_rejected_with_its_message():
    rec = make_recorder()
    with pytest.raises(ValueError) as excinfo:
        begin_marker(rec, "churnscope.x")
    assert str(excinfo.value) == "marker names starting with 'churnscope.' are reserved"
    assert rec.spans() == []
    # Only the prefix with its dot is reserved, and case counts.
    for name in ("churnscope", "Churnscope.x"):
        end_marker(begin_marker(rec, name))
    assert [span.name for span in rec.spans()] == ["churnscope", "Churnscope.x"]


def test_name_without_a_utf8_form_rejected_by_name():
    rec = make_recorder()
    with pytest.raises(ValueError) as excinfo:
        begin_marker(rec, "ok\udcff")
    assert str(excinfo.value) == "marker name 'ok\\udcff' is not valid Unicode (surrogates not allowed at position 2)"
    assert rec.spans() == []


class _Label(str):
    pass


@pytest.mark.parametrize("name", ["x" * 128, "é" * 64, "x" * 126 + "é", _Label("phase"), _Label("x" * 128)])
def test_names_of_at_most_128_utf8_bytes_accepted(name):
    rec = make_recorder()
    span = begin_marker(rec, name)
    assert span.name == name
    assert rec.spans() == [span]


@pytest.mark.parametrize("name", ["x" * 129, "x" * 127 + "é", "é" * 65, _Label("x" * 129)])
def test_names_over_128_utf8_bytes_refused_naming_the_name(name):
    rec = make_recorder()
    with pytest.raises(ValueError) as excinfo:
        begin_marker(rec, name)
    assert str(excinfo.value) == f"marker name exceeds 128 bytes: {name!r}"
    assert rec.spans() == []


def test_long_name_without_a_utf8_form_rejected_by_name():
    rec = make_recorder()
    with pytest.raises(ValueError) as excinfo:
        begin_marker(rec, "x" * 200 + "\udcff")
    assert str(excinfo.value) == (
        f"marker name {'x' * 200 + chr(0xDCFF)!r} is not valid Unicode (surrogates not allowed at position 200)")
    assert rec.spans() == []


def test_utf8_names_within_limit_accepted():
    rec = make_recorder()
    span = begin_marker(rec, "fase-élève")
    end_marker(span)
    assert span.name == "fase-élève"


def test_parent_containment_deltas_dominated():
    rng = random.Random(3001)
    rec = make_recorder()
    heap = TracingAllocator(rec)
    for _ in range(200):
        parent_start = rec.snapshot()
        parent = begin_marker(rec, "outer")
        for _ in range(rng.randrange(0, 5)):
            tok = heap.malloc(rng.randrange(0, 2048))
            heap.free(tok)
        child_start = rec.snapshot()
        child = begin_marker(rec, "inner")
        for _ in range(rng.randrange(0, 5)):
            tok = heap.malloc(rng.randrange(0, 2048))
            heap.free(tok)
        child_end = rec.snapshot()
        end_marker(child)
        for _ in range(rng.randrange(0, 3)):
            heap.malloc(rng.randrange(0, 2048))
        parent_end = rec.snapshot()
        end_marker(parent)
        child_delta = child_end.cost_nano - child_start.cost_nano
        parent_delta = parent_end.cost_nano - parent_start.cost_nano
        assert child_delta <= parent_delta
        for kind, n in snapshot_calls(child_end).items():
            child_calls = n - snapshot_calls(child_start)[kind]
            parent_calls = snapshot_calls(parent_end)[kind] - snapshot_calls(parent_start)[kind]
            assert child_calls <= parent_calls
            assert (span_churn(child).calls[kind], span_churn(parent).calls[kind]) == (child_calls, parent_calls)
        assert span_churn(child).cost_micro == (child_delta + 500) // 1000
        assert span_churn(parent).cost_micro == (parent_delta + 500) // 1000


def test_closed_spans_hold_no_counter_snapshot():
    """A span keeps its start snapshot only while open: once a thousand spans,
    each with a call between every two markers, are closed, the only
    snapshot left is the one the recorder caches."""
    rec = make_recorder()
    heap = TracingAllocator(rec)
    gc.collect()
    before = sum(type(obj) is CounterSnapshot for obj in gc.get_objects())
    for _ in range(1000):
        heap.malloc(16)
        span = begin_marker(rec, "phase")
        heap.malloc(16)
        end_marker(span)
    gc.collect()
    after = sum(type(obj) is CounterSnapshot for obj in gc.get_objects())
    assert after - before <= 1
    assert len(rec.spans()) == 1000
    assert all(span.start_snapshot is None for span in rec.spans())
    assert all(span_churn(span).malloc_calls == 1 for span in rec.spans())


def test_a_record_is_fixed_when_its_span_closes():
    """Calls after ``end_marker`` leave a span's record as it was, and a span
    left open for the seal is costed there, as the replay oracle says."""
    rec = make_recorder()
    heap = TracingAllocator(rec)
    closed = begin_marker(rec, "closed")
    left_open = begin_marker(rec, "left-open")
    for size in (100, 2000, 30000):
        heap.free(heap.malloc(size))
    end_marker(closed)
    record = span_churn(closed)
    with pytest.raises(SpanStateError, match="still open"):
        span_churn(left_open)
    heap.calloc(4, 256)
    heap.realloc(heap.malloc(64), 4096)
    assert span_churn(closed) is record
    rec.seal()
    events = rec.events()
    assert span_churn(closed) is record
    assert record == replay_record(events, MODEL, closed, 0, 6, rec.ring_capacity)
    assert span_churn(left_open) == replay_record(events, MODEL, left_open, 0, 9, rec.ring_capacity, auto_closed=True)
    assert span_churn(left_open).auto_closed and not record.auto_closed
