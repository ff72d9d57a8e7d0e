import random
import threading

import pytest

from churnscope import (
    AllocFnKind,
    CostModel,
    RecorderSealedError,
    SpanStateError,
    ThreadAffinityError,
    ThreadRecorder,
    TracingAllocator,
    begin_marker,
    end_marker,
    marker,
)

from factories import snapshot_calls
from replay_oracle import replay

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
    assert (sync.start_snapshot.seq, sync.end_snapshot.seq) == (0, 2)
    assert (cache.start_snapshot.seq, cache.end_snapshot.seq) == (1, 3)


def test_zero_width_span_has_equal_snapshots():
    rec = make_recorder()
    span = begin_marker(rec, "noop")
    assert repr(span) == "MarkerSpan('t0/000000', 'noop', open)"
    end_marker(span)
    assert span.start_snapshot == span.end_snapshot
    assert span.start_snapshot is span.end_snapshot  # no call between them: one snapshot
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
    delta = span.end_snapshot.malloc_calls - span.start_snapshot.malloc_calls
    assert delta == 3
    oracle = replay(rec.events(), MODEL, span.start_snapshot.seq, span.end_snapshot.seq)
    assert oracle.calls[AllocFnKind.MALLOC] == 3


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
    assert span.auto_closed
    assert span.end_snapshot.seq == 1
    assert span.end_snapshot.malloc_calls == 1


def test_seal_auto_closes_only_spans_still_open_after_out_of_order_closes():
    rec = make_recorder()
    heap = TracingAllocator(rec)
    spans = []
    for i in range(5):
        spans.append(begin_marker(rec, f"phase-{i}"))
        heap.malloc(32 * (i + 1))
    a, b, c, d, e = spans
    end_marker(d)
    heap.malloc(16)
    end_marker(b)
    heap.malloc(16)
    ends = {span.span_id: span.end_snapshot for span in (b, d)}
    heap.malloc(16)
    seal_snapshot = rec.snapshot()
    rec.seal()
    for span in (b, d):
        assert span.end_snapshot == ends[span.span_id]
        assert not span.auto_closed
    assert ends[d.span_id].seq < ends[b.span_id].seq < seal_snapshot.seq
    for span in (a, c, e):
        assert span.closed
        assert span.auto_closed
        assert span.end_snapshot == seal_snapshot
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
    rec.seal()
    assert outer.auto_closed and inner.auto_closed and last.auto_closed
    assert outer.end_snapshot is inner.end_snapshot is last.end_snapshot is last.start_snapshot
    assert last.start_snapshot.seq == 2


def test_snapshot_after_seal_is_the_seal_snapshot_on_every_thread():
    rec = make_recorder()
    heap = TracingAllocator(rec)
    heap.malloc(64)
    span = begin_marker(rec, "open")
    heap.malloc(64)
    rec.seal()
    sealed = span.end_snapshot
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
    for _ in range(1500):
        roll = rng.random()
        if roll < 0.25 and len(open_spans) < 6:
            open_spans.append(begin_marker(rec, rng.choice("abcd")))
        elif roll < 0.45 and open_spans:
            end_marker(open_spans.pop(rng.randrange(len(open_spans))))
        elif roll < 0.55 and open_spans:  # back to back: the next span begins where one ends
            end_marker(open_spans.pop())
            open_spans.append(begin_marker(rec, rng.choice("abcd")))
        elif live and roll < 0.7:
            heap.free(live.pop(rng.randrange(len(live))))
        else:
            live.append(heap.malloc(rng.randrange(0, 4096)))
    rec.seal()
    endpoints = [snap for span in rec.spans() for snap in (span.start_snapshot, span.end_snapshot)]
    by_seq = {snap.seq: snap for snap in endpoints}
    assert len({id(snap) for snap in endpoints}) == len(by_seq) < len(endpoints)
    assert any(span.auto_closed for span in rec.spans())
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
        parent = begin_marker(rec, "outer")
        for _ in range(rng.randrange(0, 5)):
            tok = heap.malloc(rng.randrange(0, 2048))
            heap.free(tok)
        child = begin_marker(rec, "inner")
        for _ in range(rng.randrange(0, 5)):
            tok = heap.malloc(rng.randrange(0, 2048))
            heap.free(tok)
        end_marker(child)
        for _ in range(rng.randrange(0, 3)):
            heap.malloc(rng.randrange(0, 2048))
        end_marker(parent)
        child_delta = child.end_snapshot.cost_nano - child.start_snapshot.cost_nano
        parent_delta = parent.end_snapshot.cost_nano - parent.start_snapshot.cost_nano
        assert child_delta <= parent_delta
        for kind, n in snapshot_calls(child.end_snapshot).items():
            child_calls = n - snapshot_calls(child.start_snapshot)[kind]
            parent_calls = snapshot_calls(parent.end_snapshot)[kind] - snapshot_calls(parent.start_snapshot)[kind]
            assert child_calls <= parent_calls
