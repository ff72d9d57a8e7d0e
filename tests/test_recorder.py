import dis
import random
import sys
import threading

import pytest

from churnscope import (
    AllocFnKind,
    BumpAllocator,
    CostModel,
    CounterSnapshot,
    RecorderSealedError,
    RecordingSession,
    ThreadAffinityError,
    ThreadRecorder,
    TracingAllocator,
    WorkloadSpec,
    begin_marker,
    end_marker,
    event_cost,
    marker,
    parse_report,
    run_workload,
    serialize_report,
    span_churn,
)
from churnscope import recorder, workloads
from churnscope.cost_model import NANO
from churnscope.recorder import BYTES_MAX

from eventgen import drive_random_ops, drive_with_spans
from factories import CappedHeap, snapshot_calls
from replay_oracle import replay

MODEL = CostModel()


def make_recorder(capacity=1 << 16):
    return ThreadRecorder("t0", MODEL, ring_capacity=capacity)


def test_record_malloc_tracks_live_table():
    rec = make_recorder()
    rec.record_malloc(1024, 0xA)
    assert rec.live_table() == {0xA: 1024}
    snap = rec.snapshot()
    assert snap.malloc_calls == 1
    assert snap.bytes_allocated == 1024


def test_two_mallocs_sum_allocated_bytes():
    rec = make_recorder()
    rec.record_malloc(256, 0xA)
    rec.record_malloc(256, 0xB)
    assert rec.snapshot().bytes_allocated == 512


def test_zero_byte_malloc_recorded_with_zero_cost():
    rec = make_recorder()
    assert rec.record_malloc(0, 0xA) is None
    assert rec.events()[-1].nbytes == 0
    result = replay(rec.events(), MODEL)
    assert result.cost_nano == 0
    assert result.calls[AllocFnKind.MALLOC] == 1


def test_malloc_duplicate_address_counts_anomaly():
    rec = make_recorder()
    rec.record_malloc(64, 0xA)
    rec.record_malloc(128, 0xA)
    assert rec.snapshot().anomaly_count == 1
    assert rec.live_table() == {0xA: 128}


def test_calloc_effective_bytes():
    rec = make_recorder()
    rec.record_calloc(8, 32, 0xA)
    assert rec.events()[-1].nbytes == 256
    assert rec.live_table() == {0xA: 256}


def test_calloc_zero_count_zero_cost():
    rec = make_recorder()
    rec.record_calloc(0, 64, 0xA)
    assert rec.events()[-1].nbytes == 0
    assert rec.snapshot().cost_nano == 0


def test_calloc_cost_under_default_model():
    rec = make_recorder()
    rec.record_calloc(8, 32, 0xA)
    assert replay(rec.events(), MODEL).cost_nano == 16 * 10**9


def test_calloc_overflow_saturates_with_anomaly():
    rec = make_recorder()
    rec.record_calloc(2**40, 2**40, 0xA)
    assert rec.events()[-1].nbytes == BYTES_MAX
    assert rec.snapshot().anomaly_count == 1
    assert rec.snapshot().bytes_allocated == BYTES_MAX


def test_free_attributes_bytes_and_clears_entry():
    rec = make_recorder()
    rec.record_malloc(1024, 0xA)
    rec.record_free(0xA)
    assert rec.events()[-1].nbytes == 1024
    assert rec.live_table() == {}
    assert rec.snapshot().bytes_freed == 1024


def test_free_unknown_token_counts_call_with_anomaly():
    rec = make_recorder()
    rec.record_free(0xDEAD)
    assert rec.events()[-1].nbytes == 0
    snap = rec.snapshot()
    assert snap.free_calls == 1
    assert snap.anomaly_count == 1


def test_free_null_token_is_clean_noop_call():
    rec = make_recorder()
    rec.record_free(None)
    ev = rec.events()[-1]
    snap = rec.snapshot()
    assert (ev.nbytes, snap.free_calls, snap.anomaly_count) == (0, 1, 0)


def test_malloc_free_total_cost():
    rec = make_recorder()
    rec.record_malloc(512, 0xA)
    rec.record_free(0xA)
    assert replay(rec.events(), MODEL).cost_nano == 18 * 10**9
    assert rec.snapshot().cost_nano == 18 * 10**9


def test_realloc_moves_live_entry():
    rec = make_recorder()
    rec.record_malloc(1024, 0xA)
    rec.record_realloc(0xA, 4096, 0xB)
    assert rec.live_table() == {0xB: 4096}
    snap = rec.snapshot()
    assert snap.realloc_calls == 1
    assert snap.malloc_calls == 1
    assert snap.free_calls == 0


def test_realloc_cost_is_weighted_on_new_size():
    rec = make_recorder()
    rec.record_malloc(1024, 0xA)
    before = rec.snapshot().cost_nano
    rec.record_realloc(0xA, 4096, 0xB)
    assert rec.snapshot().cost_nano - before == 36 * 10**9


def test_realloc_unknown_token_becomes_fresh_alloc():
    rec = make_recorder()
    rec.record_realloc(0xDEAD, 64, 0xB)
    assert rec.live_table() == {0xB: 64}
    assert rec.snapshot().anomaly_count == 1


def test_realloc_null_token_is_fresh_alloc_without_anomaly():
    rec = make_recorder()
    rec.record_realloc(None, 64, 0xB)
    assert rec.live_table() == {0xB: 64}
    assert rec.snapshot().anomaly_count == 0


def test_realloc_to_zero_removes_entry():
    rec = make_recorder()
    rec.record_malloc(128, 0xA)
    rec.record_realloc(0xA, 0, None)
    assert rec.events()[-1].nbytes == 0
    assert rec.live_table() == {}
    assert (rec.snapshot().bytes_freed, rec.snapshot().bytes_allocated) == (128, 128)  # the malloc's 128 only


# (label, prior mallocs, realloc args, live table after, anomaly_count,
#  bytes the realloc freed, bytes it allocated, event (nbytes, addr, old_addr))
REALLOC_CASES = [
    ("in-place", [(64, 0xA)], (0xA, 256, 0xA), {0xA: 256}, 0, 64, 256, (256, 0xA, 0xA)),
    ("onto-live-token", [(64, 0xA), (32, 0xB)], (0xA, 128, 0xB), {0xB: 128}, 1, 64, 128, (128, 0xB, 0xA)),
    ("zero-unknown-token", [(64, 0xA)], (0xDEAD, 0, None), {0xA: 64}, 1, 0, 0, (0, None, 0xDEAD)),
    ("zero-non-null-return", [(64, 0xA)], (0xA, 0, 0xB), {}, 0, 64, 0, (0, None, 0xA)),
    ("oversize-clamped", [(64, 0xA)], (0xA, BYTES_MAX + 1, 0xB), {0xB: BYTES_MAX}, 1, 64, BYTES_MAX,
     (BYTES_MAX, 0xB, 0xA)),
    ("failed", [(64, 0xA)], (0xA, 128, None), {0xA: 64}, 0, 0, 0, (0, None, None)),
]


@pytest.mark.parametrize(
    "mallocs, args, live, anomalies, freed, allocated, event",
    [case[1:] for case in REALLOC_CASES],
    ids=[case[0] for case in REALLOC_CASES],
)
def test_realloc_matrix(mallocs, args, live, anomalies, freed, allocated, event):
    rec = make_recorder()
    for requested, addr in mallocs:
        rec.record_malloc(requested, addr)
    before = rec.snapshot()
    rec.record_realloc(*args)
    assert rec.live_table() == live
    snap = rec.snapshot()
    assert snap.anomaly_count == anomalies
    assert snap.bytes_freed - before.bytes_freed == freed
    assert snap.bytes_allocated - before.bytes_allocated == allocated
    last = rec.events()[-1]
    assert (last.kind, last.nbytes, last.addr, last.old_addr) == (AllocFnKind.REALLOC, *event)


def test_failed_calls_count_with_zero_bytes():
    rec = make_recorder()
    rec.record_malloc(64, 0xA)
    rec.record_malloc(1 << 20, None)
    rec.record_realloc(0xA, 1 << 20, None)
    snap = rec.snapshot()
    assert snap.malloc_calls == 2
    assert snap.realloc_calls == 1
    assert (snap.bytes_allocated, snap.bytes_freed) == (64, 0)
    assert rec.live_table() == {0xA: 64}  # failed realloc leaves block live
    assert snap.anomaly_count == 0


def test_snapshot_fresh_recorder_all_zero():
    snap = make_recorder().snapshot()
    assert snap.seq == 0
    assert snap.cost_nano == 0
    assert snap.bytes_allocated == 0
    assert all(n == 0 for n in snapshot_calls(snap).values())


@pytest.mark.parametrize("capacity", [1, 16, 4096])
def test_seq_is_the_call_count_after_every_call(capacity):
    rng = random.Random(2008)
    rec = make_recorder(capacity)
    heap = TracingAllocator(rec, CappedHeap(3 << 10))
    tokens = [None, 0xDEAD]  # a null token and one never handed out
    failures = 0
    open_spans = []
    windows = {}  # span id: [the seq at its begin marker, the seq at its end]
    for n_calls in range(1, 601):
        if rng.random() < 0.1:
            open_spans.append(begin_marker(rec, "span"))
            windows[open_spans[-1].span_id] = [rec.snapshot().seq, None]
        if open_spans and rng.random() < 0.1:
            span = open_spans.pop(rng.randrange(len(open_spans)))
            windows[span.span_id][1] = rec.snapshot().seq
            end_marker(span)
        roll = rng.randrange(4)
        size = rng.randrange(1, 1 << 12)
        if roll == 0:
            new = heap.malloc(size)
            failures += new is None
        elif roll == 1:
            new = heap.calloc(rng.randrange(0, 8), size)
        elif roll == 2:
            new = heap.realloc(rng.choice(tokens), rng.choice([0, size]))
        else:
            new = heap.free(rng.choice(tokens))
        if new is not None:
            tokens.append(new)
        snap = rec.snapshot()
        assert snap.seq == sum(snapshot_calls(snap).values()) == n_calls
        seqs = [ev.seq for ev in rec.events()]
        assert seqs == list(range(snap.seq - len(seqs), snap.seq))
        assert len(seqs) == min(capacity, n_calls)
        # Evictions are derived, not counted: one per call once the ring is full.
        assert snap.seq - len(seqs) == max(0, snap.seq - capacity)
    assert failures > 0
    assert open_spans
    seal_seq = rec.snapshot().seq
    rec.seal()
    assert len(rec.spans()) > 20
    for span in rec.spans():
        start, end = windows[span.span_id]
        end = seal_seq if end is None else end
        assert span_churn(span).overflow == (end > capacity and end > start)


COST_SIZES = [0, 1, 2, 3, *(2**k + d for k in range(2, 63) for d in (-1, 0, 1)), BYTES_MAX]
SCALED = CostModel({k: w * 0.37 for k, w in MODEL.weights.items()}, "scaled-0.37")


@pytest.mark.parametrize("model", [MODEL, SCALED], ids=["default", "scaled-0.37"])
def test_each_call_is_charged_the_one_cost_rule(model):
    rec = ThreadRecorder("t0", model, ring_capacity=4)
    calls = {
        AllocFnKind.MALLOC: lambda n, addr: rec.record_malloc(n, addr),
        AllocFnKind.CALLOC: lambda n, addr: rec.record_calloc(n, 1, addr),
        AllocFnKind.REALLOC: lambda n, addr: rec.record_realloc(None, n, addr),
        AllocFnKind.FREE: lambda n, addr: rec.record_free(addr),
    }
    addr = 0x1000
    for kind, call in calls.items():
        for n in COST_SIZES:
            addr += 16
            if kind is AllocFnKind.FREE:
                rec.record_malloc(n, addr)  # the free is charged the block's size
            before = rec.snapshot().cost_nano
            call(n, addr)
            assert (rec.events()[-1].kind, rec.events()[-1].nbytes) == (kind, n)
            assert rec.snapshot().cost_nano - before == round(event_cost(model, kind, n) * NANO)


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if isinstance(const, type(code)):
            yield from _code_objects(const)


HOT_PATH = [
    ThreadRecorder.record_malloc,
    ThreadRecorder.record_calloc,
    ThreadRecorder.record_realloc,
    ThreadRecorder.record_free,
    ThreadRecorder._charge,
    ThreadRecorder.snapshot,
    TracingAllocator.malloc,
    TracingAllocator.calloc,
    TracingAllocator.realloc,
    TracingAllocator.free,
    BumpAllocator._take,
    BumpAllocator.malloc,
    BumpAllocator.calloc,
    BumpAllocator.realloc,
    BumpAllocator.free,
]


def _names_loaded(func) -> set:
    return {ins.argval for code in _code_objects(func.__code__) for ins in dis.get_instructions(code)}


@pytest.mark.parametrize("func", HOT_PATH, ids=lambda func: func.__qualname__)
def test_hot_path_never_looks_up_an_alloc_kind_member(func):
    # ``AllocFnKind.MALLOC`` is an Enum class attribute lookup, many times
    # dearer than the module constant bound to the same member.
    assert "AllocFnKind" not in _names_loaded(func)


@pytest.mark.parametrize("func", HOT_PATH, ids=lambda func: func.__qualname__)
def test_hot_path_keeps_no_reentrancy_depth_and_reads_the_bound_weights(func):
    # No call path re-enters a recorder (see the nesting-spy tests below),
    # and the weight table is bound once at construction.
    names = _names_loaded(func)
    assert "_depth" not in names
    if func is ThreadRecorder._charge:
        assert "_model" not in names


@pytest.mark.parametrize("func", HOT_PATH, ids=lambda func: func.__qualname__)
def test_hot_path_indexes_counter_slots_and_calls_no_python_level_helper(func):
    # A kind is its counter slot, so no per-kind table is looked up; a
    # snapshot skips the named tuple's Python-level ``_make``, and the bump
    # heap rounds a size without ``max``.
    assert not {"_CALLS", "_BYTES", "max", "_make"} & _names_loaded(func)


def test_each_kind_slot_holds_its_calls():
    assert [kind.value for kind in recorder._KINDS] == ["malloc", "calloc", "realloc", "free"]
    for slot, kind in enumerate(recorder._KINDS):
        assert CounterSnapshot._fields[slot] == f"{kind.value}_calls"


def test_snapshot_is_pure_read():
    rec = make_recorder()
    rec.record_malloc(1024, 0xA)
    assert rec.snapshot() == rec.snapshot()
    # A snapshot is a copy: later calls must not show through it.
    earlier = rec.snapshot()
    rec.record_malloc(64, 0xB)
    rec.record_free(0xA)
    assert type(earlier) is CounterSnapshot and isinstance(earlier, tuple)
    assert (earlier.seq, earlier.malloc_calls, earlier.bytes_allocated) == (1, 1, 1024)
    assert (earlier.free_calls, earlier.bytes_freed, earlier.cost_nano) == (0, 0, 10 * 10**9)
    assert rec.snapshot().seq == 3


def test_snapshot_is_one_object_per_seq():
    rec = make_recorder(capacity=2)
    rec.record_malloc(1024, 0xA)
    first = rec.snapshot()
    assert rec.snapshot() is first
    rec.record_malloc(64, None)  # a failed call changes only a call count
    second = rec.snapshot()
    assert second is not first and rec.snapshot() is second
    assert (first.seq, first.malloc_calls, first.bytes_allocated) == (1, 1, 1024)
    assert (second.seq, second.malloc_calls, second.bytes_allocated, second.cost_nano) == (2, 2, 1024, 10 * 10**9)
    rec.record_free(0xA)
    third = rec.snapshot()
    assert rec.snapshot() is third
    assert (third.seq, third.free_calls, third.bytes_freed) == (3, 1, 1024)
    assert third.seq - len(rec.events()) == 1  # the full ring evicted one entry


def test_snapshot_writes_nothing_on_a_full_ring():
    rec = make_recorder(capacity=2)
    for addr in range(0x10, 0x60, 0x10):
        rec.record_malloc(64, addr)
    counters = list(rec._c)
    snap = rec.snapshot()
    assert rec._c == counters and list(snap) == counters
    assert snap.seq - len(rec.events()) == 3  # evicted, and counted nowhere
    rec.seal()
    assert rec.snapshot() is snap and rec._c == counters


@pytest.mark.parametrize("call", [
    lambda rec: rec.record_realloc(0x1000, 32, [1]),
    lambda rec: rec.record_realloc([1], 32, 0x2000),
    lambda rec: rec.record_malloc(BYTES_MAX + 1, [1]),
    lambda rec: rec.record_calloc(2, 8, [1]),
    lambda rec: rec.record_free([1]),
], ids=["realloc-new", "realloc-old", "malloc-clamped", "calloc", "free"])
def test_an_unhashable_token_raises_before_anything_changes(call):
    rec = make_recorder()
    rec.record_malloc(64, 0x1000)
    before = rec.snapshot()
    counters, table = list(rec._c), rec.live_table()
    with pytest.raises(TypeError, match="unhashable"):
        call(rec)
    assert rec._c == counters and rec.live_table() == table
    assert rec.snapshot() is before and tuple(before) == tuple(rec._c)
    assert len(rec.events()) == 1


def test_snapshot_deltas_match_replay_on_random_sequences():
    rng = random.Random(2001)
    for case in range(50):
        rec = ThreadRecorder(f"t{case}", MODEL, ring_capacity=1 << 14)
        heap = TracingAllocator(rec)
        drive_random_ops(heap, rng, rng.randrange(1, 400))
        snap = rec.snapshot()
        result = replay(rec.events(), MODEL)
        assert snapshot_calls(snap) == result.calls
        assert snap.bytes_allocated == result.bytes_allocated
        assert snap.bytes_freed == result.bytes_freed
        assert snap.cost_nano == result.cost_nano


def test_conservation_at_quiescent_points():
    rng = random.Random(2002)
    for case in range(30):
        rec = ThreadRecorder(f"t{case}", MODEL, ring_capacity=1 << 14)
        heap = TracingAllocator(rec)
        drive_random_ops(heap, rng, rng.randrange(1, 300), allow_anomalies=False)
        snap = rec.snapshot()
        assert snap.anomaly_count == 0
        assert snap.bytes_allocated - snap.bytes_freed == sum(rec.live_table().values())


def test_counters_monotone_over_time():
    rng = random.Random(2003)
    rec = make_recorder()
    heap = TracingAllocator(rec)
    live = []
    previous = rec.snapshot()
    for _ in range(300):
        if live and rng.random() < 0.4:
            heap.free(live.pop())
        else:
            tok = heap.malloc(rng.randrange(0, 4096))
            if tok is not None:
                live.append(tok)
        snap = rec.snapshot()
        for name in (
            "seq",
            "malloc_calls",
            "calloc_calls",
            "realloc_calls",
            "free_calls",
            "bytes_allocated",
            "bytes_freed",
            "cost_nano",
            "anomaly_count",
        ):
            assert getattr(snap, name) >= getattr(previous, name)
        previous = snap


def test_ring_overflow_never_changes_counters():
    rng_a = random.Random(2004)
    rng_b = random.Random(2004)
    tiny = ThreadRecorder("t0", MODEL, ring_capacity=1)
    big = ThreadRecorder("t0", MODEL, ring_capacity=1 << 20)
    with marker(tiny, "all") as tiny_span:
        drive_random_ops(TracingAllocator(tiny), rng_a, 2000)
    with marker(big, "all") as big_span:
        drive_random_ops(TracingAllocator(big), rng_b, 2000)
    assert tuple(tiny.snapshot()) == tuple(big.snapshot())
    assert span_churn(tiny_span).overflow and not span_churn(big_span).overflow


@pytest.mark.parametrize("capacity", [1, 3, 4, 64, sys.maxsize // 4, sys.maxsize // 4 + 1, sys.maxsize])
@pytest.mark.parametrize("limit", [None, 3000], ids=["bump", "capped"])
def test_ring_keeps_most_recent_events(capacity, limit):
    # A capped heap fails some calls, so entries with both tokens None sit in the ring too.
    def drive(rec):
        drive_random_ops(TracingAllocator(rec, None if limit is None else CappedHeap(limit)), random.Random(2006), 200)

    capped = ThreadRecorder("t0", MODEL, ring_capacity=capacity)
    uncapped = ThreadRecorder("t0", MODEL, ring_capacity=1 << 20)
    drive(capped)
    drive(uncapped)
    assert capped.ring_capacity == capacity
    log = uncapped.events()
    assert {ev.kind for ev in log} == set(AllocFnKind)
    assert any(ev.addr is ev.old_addr is None and ev.kind is not AllocFnKind.FREE for ev in log) == (limit is not None)
    kept = min(capacity, len(log))  # a ring longer than the log keeps all of it, numbered from 0
    events = capped.events()
    assert events == log[len(log) - kept:]
    assert [ev.seq for ev in events] == list(range(len(log) - kept, len(log)))
    snap = capped.snapshot()
    assert sum(snapshot_calls(snap).values()) == len(log)
    assert snap.seq - len(events) == max(0, len(log) - capacity)


def test_interception_transparency_same_outcomes():
    def outcomes(heap):
        rng = random.Random(2005)
        seen = []
        live = []
        for _ in range(400):
            roll = rng.random()
            if live and roll < 0.3:
                heap.free(live.pop(rng.randrange(len(live))))
                seen.append("freed")
            elif live and roll < 0.5:
                tok = heap.realloc(live.pop(rng.randrange(len(live))), rng.randrange(0, 8192))
                seen.append(tok)
                if tok is not None:
                    live.append(tok)
            else:
                tok = heap.malloc(rng.randrange(0, 8192))
                seen.append(tok)
                if tok is not None:
                    live.append(tok)
        return seen

    limit = 6 << 10  # small enough that some calls fail
    bare = outcomes(CappedHeap(limit))
    rec = make_recorder()
    traced = outcomes(TracingAllocator(rec, CappedHeap(limit)))
    assert traced == bare
    assert any(tok is None for tok in traced if tok != "freed")


class NestingSpy(TracingAllocator):
    """A tracing allocator that counts the calls it forwards and how deeply
    its own calls nest; a recorder that called back into it would nest."""

    def __init__(self, *args):
        super().__init__(*args)
        self.depth = self.max_depth = self.forwarded = 0

    def _nested(self, call, *args):
        self.depth += 1
        self.forwarded += 1
        self.max_depth = max(self.max_depth, self.depth)
        try:
            return call(self, *args)
        finally:
            self.depth -= 1

    def malloc(self, size):
        return self._nested(TracingAllocator.malloc, size)

    def calloc(self, count, elem_size):
        return self._nested(TracingAllocator.calloc, count, elem_size)

    def realloc(self, addr, size):
        return self._nested(TracingAllocator.realloc, addr, size)

    def free(self, addr):
        return self._nested(TracingAllocator.free, addr)


@pytest.mark.parametrize("variant", workloads.VARIANTS)
@pytest.mark.parametrize("name", workloads.workload_names())
def test_no_builtin_workload_reenters_the_allocator(monkeypatch, name, variant):
    spies = []

    def spawn(*args):
        spies.append(NestingSpy(*args))
        return spies[-1]

    monkeypatch.setattr(workloads, "TracingAllocator", spawn)
    session = RecordingSession(build_id="b", created_at="2026-01-01T00:00:00Z")
    run_workload(WorkloadSpec(name, seed=1, scale=2, variant=variant), session)
    assert spies and all(spy.depth == 0 and spy.max_depth == 1 for spy in spies)
    assert sum(spy.forwarded for spy in spies) == sum(
        rec.snapshot().seq for rec in session.recorders()
    )


@pytest.mark.parametrize("seed", range(4))
def test_no_random_sequence_reenters_the_allocator(seed):
    plain, spanned = make_recorder(), make_recorder()
    spy_plain, spy_spanned = NestingSpy(plain), NestingSpy(spanned)
    drive_random_ops(spy_plain, random.Random(seed), 1500)
    drive_with_spans(spanned, spy_spanned, random.Random(seed), 1500)
    for rec, spy in ((plain, spy_plain), (spanned, spy_spanned)):
        assert spy.depth == 0 and spy.max_depth == 1
        assert spy.forwarded == rec.snapshot().seq >= 1500


# One call of each kind that would change the counters and the live table of
# a recorder holding block 0xA.
RECORD_CALLS = {
    "malloc": lambda rec: rec.record_malloc(64, 0xB),
    "calloc": lambda rec: rec.record_calloc(4, 16, 0xB),
    "free": lambda rec: rec.record_free(0xA),
    "realloc": lambda rec: rec.record_realloc(0xA, 128, 0xB),
}


@pytest.mark.parametrize("call", RECORD_CALLS.values(), ids=RECORD_CALLS)
def test_record_from_wrong_thread_rejected(call):
    rec = make_recorder()
    rec.record_malloc(32, 0xA)
    before, live = rec.snapshot(), rec.live_table()
    caught = []

    def attacker():
        try:
            call(rec)
        except ThreadAffinityError as exc:
            caught.append(exc)

    thread = threading.Thread(target=attacker)
    thread.start()
    thread.join()
    assert len(caught) == 1
    assert (rec.snapshot(), rec.live_table()) == (before, live)


@pytest.mark.parametrize("call", RECORD_CALLS.values(), ids=RECORD_CALLS)
def test_sealed_recorder_rejects_recording(call):
    rec = make_recorder()
    rec.record_malloc(32, 0xA)
    rec.seal()
    assert rec.sealed
    before, live = rec.snapshot(), rec.live_table()
    with pytest.raises(RecorderSealedError):
        call(rec)
    assert (rec.snapshot(), rec.live_table()) == (before, live)
    rec.seal()  # idempotent


# Per record_* method, the well-formed calls above, a failed realloc, and a
# call whose size is not a nonnegative int (a free has no size to get wrong).
ADMITTED_CALLS = {**RECORD_CALLS, "failed-realloc": lambda rec: rec.record_realloc(0xA, 128, None)}
MALFORMED_CALLS = {
    "malloc": lambda rec: rec.record_malloc(-1, 0xB),
    "calloc": lambda rec: rec.record_calloc(4, 1.5, 0xB),
    "realloc": lambda rec: rec.record_realloc(0xA, True, 0xB),
    "failed-realloc": lambda rec: rec.record_realloc(0xA, 2.5, None),
}


def _admission_cases():
    for where, refusal in (("other-thread", ThreadAffinityError), ("sealed", RecorderSealedError)):
        for name, call in ADMITTED_CALLS.items():
            yield pytest.param(where, call, refusal, id=f"{where}-{name}")
        for name, call in MALFORMED_CALLS.items():
            yield pytest.param(where, call, ValueError, id=f"{where}-{name}-malformed")


@pytest.mark.parametrize("where, call, refusal", _admission_cases())
def test_each_call_is_admitted_after_its_size_check_and_before_anything_changes(where, call, refusal):
    # A record_* method checks its sizes, then _charge refuses a call from
    # another thread or after seal(): a malformed size is named first.
    rec = make_recorder()
    rec.record_malloc(32, 0xA)
    if where == "sealed":
        rec.seal()
    before = (list(rec._c), rec.live_table(), rec.events(), rec.snapshot())
    caught = []

    def attempt():
        try:
            call(rec)
        except Exception as exc:
            caught.append(exc)

    if where == "sealed":
        attempt()
    else:
        thread = threading.Thread(target=attempt)
        thread.start()
        thread.join()
    assert [type(exc) for exc in caught] == [refusal]
    assert (list(rec._c), rec.live_table(), rec.events(), rec.snapshot()) == before


def test_ring_capacity_below_one_rejected():
    with pytest.raises(ValueError, match="ring capacity"):
        ThreadRecorder("t0", MODEL, ring_capacity=0)
    # Only an int is a capacity: not an integral float, a numeric string or a bool.
    for value, shown in ((2.0, "2.0"), ("3", "'3'"), (True, "True")):
        with pytest.raises(ValueError, match=f"^ring capacity must be an int, got {shown}$"):
            ThreadRecorder("t0", MODEL, ring_capacity=value)


def test_ring_capacity_past_maxsize_rejected_at_construction():
    assert ThreadRecorder("t0", MODEL, ring_capacity=sys.maxsize).ring_capacity == sys.maxsize
    with pytest.raises(ValueError, match=f"ring capacity must be <= {sys.maxsize}, got {2**63}"):
        RecordingSession(ring_capacity=2**63)
    with pytest.raises(ValueError, match="ring capacity must be <= "):
        ThreadRecorder("t0", MODEL, ring_capacity=sys.maxsize + 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda heap: heap.malloc(1.5),
        lambda heap: heap.malloc(True),
        lambda heap: heap.calloc(2, 0.75),
        lambda heap: heap.calloc(1.5, 2),
        lambda heap: heap.calloc(False, 8),
        lambda heap: heap.realloc(None, 1.5),
        lambda heap: heap.realloc(0x1000, 2.0),
    ],
    ids=["malloc-float", "malloc-bool", "calloc-float-size", "calloc-float-count",
         "calloc-bool", "realloc-fresh-float", "realloc-float"],
)
def test_non_integer_sizes_rejected_before_anything_is_recorded(call):
    session = RecordingSession(build_id="b", created_at="2026-01-01T00:00:00Z")
    rec = session.recorder("main")
    heap = TracingAllocator(rec)
    with marker(rec, "p"):
        heap.free(heap.malloc(64))
        heap.malloc(32)
    before, live = rec.snapshot(), rec.live_table()
    with pytest.raises(ValueError, match="nonnegative int"):
        call(heap)
    assert rec.snapshot() == before
    assert rec.live_table() == live
    session.seal_all()
    report = session.build_report()
    data = serialize_report(report)
    assert parse_report(data) == report
    assert serialize_report(parse_report(data)) == data


@pytest.mark.parametrize(
    "call",
    [
        lambda heap, a: heap.malloc(1.5),
        lambda heap, a: heap.malloc(-1),
        lambda heap, a: heap.calloc(True, 16),
        lambda heap, a: heap.realloc(a, 2.5),
        lambda heap, a: heap.realloc(a, -1),
    ],
    ids=["malloc-float", "malloc-negative", "calloc-bool", "realloc-float", "realloc-negative"],
)
def test_rejected_call_leaves_the_heap_unchanged(call):
    session = RecordingSession(build_id="b", created_at="2026-01-01T00:00:00Z")
    rec = session.recorder("main")
    heap = TracingAllocator(rec)
    a = heap.malloc(64)
    base = heap.base

    def state():
        return base._next, rec.snapshot(), rec.live_table()

    before = state()
    with pytest.raises(ValueError, match="nonnegative int"):
        call(heap, a)
    assert state() == before
    assert type(heap.malloc(16)) is int


def test_bump_heap_tokens_are_16_byte_aligned_blocks_from_0x1000():
    heap = BumpAllocator()
    sizes = [0, 1, 15, 16, 17, 2**64, 0]
    tokens = [heap.malloc(size) for size in sizes]
    assert tokens == [0x1000, 0x1010, 0x1020, 0x1030, 0x1040, 0x1060, 0x1060 + 2**64]
    assert all(token % 16 == 0 for token in tokens)
    assert heap._next == 0x1070 + 2**64


def test_negative_sizes_rejected():
    rec = make_recorder()
    with pytest.raises(ValueError):
        rec.record_malloc(-1, 0xA)
    with pytest.raises(ValueError):
        rec.record_calloc(-1, 8, 0xA)
    with pytest.raises(ValueError):
        rec.record_realloc(0xA, -1, 0xB)
