import itertools
import random

import pytest

from churnscope import (
    AllocFnKind,
    CostModel,
    CounterSnapshot,
    MarkerChurn,
    SpanStateError,
    ThreadRecorder,
    TracingAllocator,
    begin_marker,
    end_marker,
    merge_phases,
    span_churn,
)

from eventgen import drive_with_spans
from factories import calls_fields
from replay_oracle import replay

MODEL = CostModel()


def make_recorder(label="t0"):
    return ThreadRecorder(label, MODEL, ring_capacity=1 << 15)


def closed_span(rec, name, body):
    span = begin_marker(rec, name)
    body()
    return end_marker(span)


def test_span_churn_malloc_free_pair():
    rec = make_recorder()
    heap = TracingAllocator(rec)

    def body():
        tok = heap.malloc(1024)
        heap.free(tok)

    churn = span_churn(closed_span(rec, "phase", body))
    assert churn.cost_micro == 20_000_000
    assert churn.cost == 20.0
    assert churn.calls[AllocFnKind.MALLOC] == 1
    assert churn.calls[AllocFnKind.FREE] == 1
    assert churn.bytes_allocated == 1024
    assert churn.bytes_freed == 1024
    assert churn.thread_id == "t0"
    oracle = replay(rec.events(), MODEL)
    assert churn.cost_micro == oracle.cost_micro


def test_span_churn_empty_span():
    rec = make_recorder()
    churn = span_churn(closed_span(rec, "phase", lambda: None))
    assert churn.cost_micro == 0
    assert all(n == 0 for n in churn.calls.values())


def test_span_churn_mixed_kinds():
    rec = make_recorder()
    heap = TracingAllocator(rec)

    def body():
        tok = heap.calloc(8, 32)
        tok = heap.realloc(tok, 4096)
        heap.free(tok)

    churn = span_churn(closed_span(rec, "phase", body))
    # calloc 256 -> 16, realloc 4096 -> 36, free 4096 -> 12
    assert churn.cost_micro == 64_000_000
    oracle = replay(rec.events(), MODEL)
    assert oracle.cost_nano == 64 * 10**9


def test_span_churn_rejects_open_span():
    rec = make_recorder()
    span = begin_marker(rec, "phase")
    with pytest.raises(SpanStateError):
        span_churn(span)


def _random_churn(rng, name="phase", thread="t0", span=0):
    return MarkerChurn(
        name=name,
        cost_micro=rng.randrange(0, 1000 * 10**6),
        **calls_fields({k: rng.randrange(0, 50) for k in AllocFnKind}),
        bytes_allocated=rng.randrange(0, 1 << 20),
        bytes_freed=rng.randrange(0, 1 << 20),
        overflow=rng.random() < 0.2,
        auto_closed=rng.random() < 0.2,
        thread_id=thread,
        span_id=f"{thread}/{span:06d}",
    )


def test_merge_single_part_is_identity_minus_thread():
    rng = random.Random(4001)
    part = _random_churn(rng)
    merged = merge_phases([part])
    assert list(merged) == ["phase"]
    merged = merged["phase"]
    assert merged.thread_id is None
    assert merged.span_id is None
    assert merged.cost_micro == part.cost_micro
    assert merged.calls == part.calls
    assert merged.bytes_allocated == part.bytes_allocated


def test_merge_adds_costs():
    a = MarkerChurn(name="p", cost_micro=10_000_000)
    b = MarkerChurn(name="p", cost_micro=5_500_001)
    assert merge_phases([a, b])["p"].cost_micro == 15_500_001


def test_merge_is_permutation_invariant():
    rng = random.Random(4002)
    for _ in range(100):
        parts = [
            _random_churn(rng, thread=f"t{rng.randrange(4)}", span=i) for i in range(5)
        ]
        baseline = merge_phases(parts)
        for perm in itertools.islice(itertools.permutations(parts), 12):
            merged = merge_phases(list(perm))
            assert merged == baseline  # integer sums are exact in any order


def test_merge_commutative_and_associative():
    rng = random.Random(4003)
    for _ in range(500):
        a = _random_churn(rng, thread="t0", span=0)
        b = _random_churn(rng, thread="t1", span=0)
        c = _random_churn(rng, thread="t2", span=0)
        ab_c = merge_phases([*merge_phases([a, b]).values(), c])
        a_bc = merge_phases([a, *merge_phases([b, c]).values()])
        abc = merge_phases([a, b, c])
        assert ab_c == a_bc == abc


def test_merge_ors_flags():
    a = MarkerChurn(name="p", cost_micro=0, overflow=True, auto_closed=False)
    b = MarkerChurn(name="p", cost_micro=0, overflow=False, auto_closed=True)
    merged = merge_phases([a, b])["p"]
    assert merged.overflow and merged.auto_closed


def _summed_field_by_field(parts):
    """Each name's parts added field by field, kind by kind, without merge_phases."""
    merged = {}
    for name in sorted({p.name for p in parts}):
        group = [p for p in parts if p.name == name]
        merged[name] = MarkerChurn(
            name=name,
            cost_micro=sum(p.cost_micro for p in group),
            **calls_fields({kind: sum(p.calls[kind] for p in group) for kind in AllocFnKind}),
            bytes_allocated=sum(p.bytes_allocated for p in group),
            bytes_freed=sum(p.bytes_freed for p in group),
            overflow=any(p.overflow for p in group),
            auto_closed=any(p.auto_closed for p in group),
        )
    return merged


def test_merge_phases_counts_a_missing_call_kind_as_zero():
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings
    from hypothesis import strategies as st

    count = st.integers(0, 2**40) | st.integers(2**64, 10**30)
    parts = st.lists(st.builds(
        MarkerChurn,
        name=st.sampled_from(("a", "b", "c")),
        cost_micro=count,
        malloc_calls=count,
        calloc_calls=count,
        realloc_calls=count,
        free_calls=count,
        bytes_allocated=count,
        bytes_freed=count,
        overflow=st.booleans(),
        auto_closed=st.booleans(),
        thread_id=st.sampled_from(("t0", "t1")),
        span_id=st.sampled_from(("t0/000000", "t1/000001")),
    ), max_size=8)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(parts)
    @example([MarkerChurn("a", 5, free_calls=2), MarkerChurn("a", 7, malloc_calls=1), MarkerChurn("b", 0)])
    def check(parts):
        merged = merge_phases(parts)
        assert list(merged) == sorted({p.name for p in parts})
        assert merged == _summed_field_by_field(parts)

    check()


def test_interval_additivity_on_random_bisections():
    rng = random.Random(4004)
    for case in range(120):
        rec = make_recorder(f"t{case}")
        heap = TracingAllocator(rec)
        begin = rec.snapshot()  # whole and left begin here
        whole = begin_marker(rec, "whole")
        left = begin_marker(rec, "left")
        for _ in range(rng.randrange(0, 40)):
            tok = heap.malloc(rng.randrange(0, 4096))
            heap.free(tok)
        middle = rec.snapshot()  # left ends and right begins here
        end_marker(left)
        right = begin_marker(rec, "right")  # same boundary, no events between
        for _ in range(rng.randrange(0, 40)):
            tok = heap.calloc(rng.randrange(0, 16), 64)
            heap.free(tok)
        end = rec.snapshot()  # right and whole end here
        end_marker(right)
        end_marker(whole)
        whole_churn = span_churn(whole)
        left_churn = span_churn(left)
        right_churn = span_churn(right)
        windows = ((begin, end, whole_churn), (begin, middle, left_churn), (middle, end, right_churn))
        # exact in nano-units; each record rounds its own total to micro-units
        nano = [stop.cost_nano - start.cost_nano for start, stop, _ in windows]
        assert nano[0] == nano[1] + nano[2]
        for start, stop, churn in windows:
            assert churn.cost_micro == replay(rec.events(), MODEL, start.seq, stop.seq).cost_micro
        for kind in AllocFnKind:
            assert whole_churn.calls[kind] == left_churn.calls[kind] + right_churn.calls[kind]
        assert whole_churn.bytes_allocated == left_churn.bytes_allocated + right_churn.bytes_allocated
        assert whole_churn.bytes_freed == left_churn.bytes_freed + right_churn.bytes_freed


def test_accumulator_matches_replay_on_random_spans():
    rng = random.Random(4005)
    for case in range(80):
        rec = make_recorder(f"t{case}")
        heap = TracingAllocator(rec)
        spans = drive_with_spans(rec, heap, rng, rng.randrange(20, 600))
        events = rec.events()
        for span, begin_seq, end_seq in spans:
            churn = span_churn(span)
            oracle = replay(events, MODEL, begin_seq, end_seq)
            assert churn.calls == oracle.calls
            assert churn.bytes_allocated == oracle.bytes_allocated
            assert churn.bytes_freed == oracle.bytes_freed
            assert churn.cost_micro == oracle.cost_micro


def test_identical_sequences_produce_identical_records():
    def run():
        rec = make_recorder()
        heap = TracingAllocator(rec)
        rng = random.Random(4006)
        spans = drive_with_spans(rec, heap, rng, 300)
        return [span_churn(driven.span) for driven in spans]

    assert run() == run()  # bit-identical costs included


def test_overflow_flag_set_only_for_spans_that_overflowed():
    rec = ThreadRecorder("t0", MODEL, ring_capacity=8)
    heap = TracingAllocator(rec)
    calm = begin_marker(rec, "calm")
    for _ in range(4):
        heap.free(heap.malloc(64))
    end_marker(calm)
    noisy = begin_marker(rec, "noisy")
    for _ in range(50):
        heap.free(heap.malloc(64))
    end_marker(noisy)
    assert not span_churn(calm).overflow
    assert span_churn(noisy).overflow


def _span_after(prior_calls, start_nano=0):
    """The same span, after ``prior_calls`` random calls on its thread and
    with the running total starting at ``start_nano``."""
    rec = make_recorder()
    rec._c[CounterSnapshot._fields.index("cost_nano")] = start_nano
    heap = TracingAllocator(rec)
    rng = random.Random(4008)
    live = []
    for _ in range(prior_calls):
        if live and rng.random() < 0.4:
            heap.free(live.pop(rng.randrange(len(live))))
        else:
            live.append(heap.malloc(rng.randrange(0, 1 << 16)))
    span = begin_marker(rec, "phase")
    for size in (100, 200, 300):
        heap.free(heap.malloc(size))
    heap.free(heap.realloc(heap.calloc(3, 333), 7777))
    end_marker(span)
    return span_churn(span)


def test_span_cost_does_not_depend_on_prior_work():
    fresh = _span_after(0)
    assert fresh.cost > 0
    assert _span_after(10_000) == fresh
    assert _span_after(0, start_nano=10**22) == fresh
    assert _span_after(10_000, start_nano=10**22) == fresh
