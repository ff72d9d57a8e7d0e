"""Seeded allocator-call programs, their replay, and an independent oracle.

A program is a flat list of op tuples on one thread's timeline:

    (MALLOC, slot, size)        slots[slot] = malloc(size)
    (CALLOC, slot, count, elem) slots[slot] = calloc(count, elem)
    (REALLOC, slot, size)       slots[slot] = realloc(slots[slot], size)
    (FREE, slot)                free(slots[slot]); slots[slot] = None
    (BEGIN, span, name)         spans[span] = begin_marker(rec, name)
    (END, span)                 end_marker(spans[span])

Slot 0 is never assigned, so ``(FREE, 0)`` is ``free(NULL)``. Spans are
numbered in begin order, which is also churnscope's span ordinal, so span
``i`` is reported as ``main/{i:06d}``.

The oracle walks the same op list with its own size table and its own
``weight * log2(max(bytes, 1))`` costs; it shares no code with churnscope.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

MALLOC, CALLOC, REALLOC, FREE, BEGIN, END = range(6)
KINDS = ("malloc", "calloc", "realloc", "free")
NULL_SLOT = 0

# The paper-v1 weights, restated here rather than read from churnscope.
WEIGHTS = {"malloc": 1.0, "calloc": 2.0, "realloc": 3.0, "free": 1.0}
MODEL_VERSION = "paper-v1"
# The default diff thresholds, restated: relative growth and zero-base floor.
REL_THRESHOLD = 0.01
ABS_FLOOR = 1.0
# Allowed relative gap between an oracle cost (exact sum) and a reported one
# (running-total differences rounded to six decimals); costs under 1 are
# compared as if they were 1.
COST_REL_TOL = 1e-5
RING_CAPACITY = 4096


@dataclass
class Program:
    ops: list = field(default_factory=list)
    nslots: int = 1
    span_names: list = field(default_factory=list)

    @property
    def nspans(self) -> int:
        return len(self.span_names)

    def new_slot(self) -> int:
        self.nslots += 1
        return self.nslots - 1

    def begin(self, name: str) -> int:
        span = len(self.span_names)
        self.span_names.append(name)
        self.ops.append((BEGIN, span, name))
        return span

    def end(self, span: int) -> None:
        self.ops.append((END, span))

    def calls_only(self) -> "Program":
        ops = [op for op in self.ops if op[0] < BEGIN]
        return Program(ops, self.nslots, [])

    def markers_only(self, min_pairs: int) -> "Program":
        """The marker ops alone, tiled until at least ``min_pairs`` spans."""
        out = Program()
        reps = max(1, -(-min_pairs // max(1, self.nspans)))
        for _ in range(reps):
            base = out.nspans
            out.span_names.extend(self.span_names)
            for op in self.ops:
                if op[0] == BEGIN:
                    out.ops.append((BEGIN, op[1] + base, op[2]))
                elif op[0] == END:
                    out.ops.append((END, op[1] + base))
        return out


def replay(program: Program, heap, rec, begin_marker=None, end_marker=None) -> None:
    """Drive ``program`` through ``heap`` (and markers on ``rec``)."""
    slots = [None] * program.nslots
    spans = [None] * program.nspans
    malloc, calloc, realloc, free = heap.malloc, heap.calloc, heap.realloc, heap.free
    for op in program.ops:
        code = op[0]
        if code == MALLOC:
            slots[op[1]] = malloc(op[2])
        elif code == FREE:
            free(slots[op[1]])
            slots[op[1]] = None
        elif code == REALLOC:
            slots[op[1]] = realloc(slots[op[1]], op[2])
        elif code == CALLOC:
            slots[op[1]] = calloc(op[2], op[3])
        elif code == BEGIN:
            spans[op[1]] = begin_marker(rec, op[2])
        else:
            end_marker(spans[op[1]])


# ---------------------------------------------------------------------------
# generators


class _Heap:
    """Generator-side view of which slots hold live blocks."""

    def __init__(self, program: Program, rng: random.Random):
        self.p = program
        self.rng = rng
        self.live: list[int] = []

    def size(self, lo_bits: int, hi_bits: int) -> int:
        return self.rng.randrange(1 << lo_bits, 1 << hi_bits)

    def malloc(self, size: int) -> None:
        slot = self.p.new_slot()
        self.p.ops.append((MALLOC, slot, size))
        self.live.append(slot)

    def calloc(self, count: int, elem: int) -> None:
        slot = self.p.new_slot()
        self.p.ops.append((CALLOC, slot, count, elem))
        self.live.append(slot)

    def free_at(self, i: int) -> None:
        self.live[i], self.live[-1] = self.live[-1], self.live[i]
        self.p.ops.append((FREE, self.live.pop()))

    def free_all(self) -> None:
        while self.live:
            self.p.ops.append((FREE, self.live.pop()))

    def scratch_pair(self, size: int) -> None:
        """A block allocated and freed at once: two calls, cost 2*log2(size)."""
        slot = self.p.new_slot()
        self.p.ops.append((MALLOC, slot, size))
        self.p.ops.append((FREE, slot))


# long-phases: a few phases, each span thousands of mixed calls.
LONG_PHASES = ("decode", "layout", "paint", "commit")
LONG_ROUNDS = 2            # spans per phase name, in phase order
LONG_CORE_CALLS = 2900     # identical in both builds
LONG_SCRATCH_PAIRS = 50    # scratch malloc/free pairs per span, baseline build
LONG_REGRESSED = "layout"  # candidate: 150 scratch pairs per span
LONG_IMPROVED = "paint"    # candidate: no scratch pairs
# Live blocks are kept between these bounds once ramped up, so the size of
# churnscope's live-block tables, and with it peak memory, is the same for
# every seed.
LONG_LIVE_MIN = 100
LONG_LIVE_MAX = 124


def _long_core(h: _Heap, ncalls: int) -> None:
    rng = h.rng
    done = 0
    while done < ncalls:
        r = rng.random()
        if len(h.live) < LONG_LIVE_MIN:
            r = 0.0
        elif len(h.live) >= LONG_LIVE_MAX and (r < 0.40 or 0.61 <= r < 0.63):
            r = 0.94
        if r < 0.30:
            h.malloc(0 if rng.random() < 0.03 else h.size(4, 16))
            done += 1
        elif r < 0.40:
            h.calloc(rng.randrange(1, 65), rng.choice((1, 4, 8, 16)))
            done += 1
        elif r < 0.58:
            # realloc growth chain on one block
            slot = rng.choice(h.live)
            size = h.size(4, 12)
            for _ in range(min(rng.randrange(2, 5), ncalls - done)):
                size *= 2
                h.p.ops.append((REALLOC, slot, size))
                done += 1
        elif r < 0.61:
            i = rng.randrange(len(h.live))
            slot = h.live[i]
            h.live[i], h.live[-1] = h.live[-1], h.live[i]
            h.live.pop()
            h.p.ops.append((REALLOC, slot, 0))  # realloc(p, 0) frees p
            done += 1
        elif r < 0.63:
            slot = h.p.new_slot()
            h.p.ops.append((REALLOC, slot, h.size(4, 14)))  # realloc(NULL, n)
            h.live.append(slot)
            done += 1
        elif r < 0.95:
            h.free_at(rng.randrange(len(h.live)))
            done += 1
        else:
            h.p.ops.append((FREE, NULL_SLOT))
            done += 1


def long_phases(seed: int, candidate: bool) -> tuple[Program, dict[str, str]]:
    """Program for one build, and the designed status of each perturbed phase."""
    p = Program()
    h = _Heap(p, random.Random(f"long:{seed}"))
    span_index = 0
    for _ in range(LONG_ROUNDS):
        for name in LONG_PHASES:
            span = p.begin(name)
            h.rng = random.Random(f"long:{seed}:{span_index}")
            _long_core(h, LONG_CORE_CALLS)
            pairs = LONG_SCRATCH_PAIRS
            if candidate and name == LONG_REGRESSED:
                pairs = 3 * LONG_SCRATCH_PAIRS
            elif candidate and name == LONG_IMPROVED:
                pairs = 0
            scratch = random.Random(f"long-scratch:{seed}:{span_index}")
            for _ in range(pairs):
                h.scratch_pair(scratch.randrange(2048, 8192))
            p.end(span)
            span_index += 1
    h.free_all()
    return p, {LONG_REGRESSED: "regression", LONG_IMPROVED: "improvement"}


# dense-markers: thousands of names over many short, nested or overlapping spans.
DENSE_NAMES = 2000
DENSE_SPANS = 3000  # the first 1000 names in the shuffled order are begun twice
DENSE_REGRESSED = 40
DENSE_IMPROVED = 20
DENSE_REMOVED = 20
DENSE_NEW = 20
_PATTERNS = ("simple", "simple", "simple", "nested", "overlap")


def _dense_name(i: int) -> str:
    return f"screen{i // 25:02d}.widget{i % 25:02d}.{('measure', 'layout', 'draw', 'bind')[i % 4]}"


def _dense_calls(h: _Heap, n: int) -> None:
    rng = h.rng
    for _ in range(n):
        r = rng.random()
        if r < 0.35 or not h.live:
            h.malloc(0 if rng.random() < 0.05 else h.size(3, 12))
        elif r < 0.45:
            h.calloc(rng.randrange(1, 33), rng.choice((4, 8, 16)))
        elif r < 0.60:
            slot = rng.choice(h.live)
            h.p.ops.append((REALLOC, slot, h.size(8, 13)))
        elif r < 0.92:
            h.free_at(rng.randrange(len(h.live)))
        else:
            h.p.ops.append((FREE, NULL_SLOT))


def dense_markers(seed: int, candidate: bool) -> tuple[Program, dict[str, str]]:
    """Program for one build, and the designed status of each perturbed phase."""
    layout = random.Random(f"dense:{seed}")
    groups: list[str] = []
    nspans = 0
    while nspans < DENSE_SPANS:
        pattern = layout.choice(_PATTERNS) if DENSE_SPANS - nspans > 1 else "simple"
        groups.append(pattern)
        nspans += 1 if pattern == "simple" else 2
    order = list(range(DENSE_NAMES))
    layout.shuffle(order)
    # Names per group, in begin order; span k carries name order[k % N].
    group_names: list[tuple[int, ...]] = []
    k = 0
    for pattern in groups:
        width = 1 if pattern == "simple" else 2
        group_names.append(tuple(order[(k + j) % DENSE_NAMES] for j in range(width)))
        k += width
    # A nested child has no region of its own, so it is never perturbed; a
    # removed phase must only ever be a whole simple group.
    child = {names[1] for pattern, names in zip(groups, group_names) if pattern == "nested"}
    in_pairs = {n for pattern, names in zip(groups, group_names) if pattern != "simple" for n in names}
    removable = sorted(set(range(DENSE_NAMES)) - in_pairs)
    removed = set(layout.sample(removable, DENSE_REMOVED))
    perturbable = sorted(set(range(DENSE_NAMES)) - child - removed)
    picked = layout.sample(perturbable, DENSE_REGRESSED + DENSE_IMPROVED)
    regressed = set(picked[:DENSE_REGRESSED])
    improved = set(picked[DENSE_REGRESSED:])
    new_after = set(layout.sample(range(len(groups)), DENSE_NEW))

    p = Program()
    h = _Heap(p, layout)

    def own_region(name: int, rng: random.Random) -> None:
        size = rng.randrange(256, 4096)
        if (name in improved and not candidate) or (name in regressed and candidate):
            h.scratch_pair(size)

    new_index = 0
    for g, (pattern, names) in enumerate(zip(groups, group_names)):
        h.rng = random.Random(f"dense:{seed}:{g}")
        extra = random.Random(f"dense-extra:{seed}:{g}")
        a = names[0]
        if candidate and a in removed:
            pass
        elif pattern == "simple":
            sa = p.begin(_dense_name(a))
            _dense_calls(h, h.rng.randrange(0, 4))
            own_region(a, extra)
            p.end(sa)
        elif pattern == "nested":
            b = names[1]
            sa = p.begin(_dense_name(a))
            _dense_calls(h, h.rng.randrange(0, 2))
            own_region(a, extra)
            sb = p.begin(_dense_name(b))
            _dense_calls(h, h.rng.randrange(0, 3))
            p.end(sb)
            _dense_calls(h, h.rng.randrange(0, 2))
            p.end(sa)
        else:
            b = names[1]
            sa = p.begin(_dense_name(a))
            _dense_calls(h, h.rng.randrange(0, 2))
            own_region(a, extra)
            sb = p.begin(_dense_name(b))
            _dense_calls(h, h.rng.randrange(0, 2))
            p.end(sa)
            _dense_calls(h, h.rng.randrange(0, 2))
            own_region(b, extra)
            p.end(sb)
        h.free_all()
        if candidate and g in new_after:
            sn = p.begin(f"new.phase{new_index:02d}")
            h.scratch_pair(extra.randrange(64, 1024))
            p.end(sn)
            new_index += 1
    designed = {}
    for i in regressed:
        designed[_dense_name(i)] = "regression"
    for i in improved:
        designed[_dense_name(i)] = "improvement"
    for i in removed:
        designed[_dense_name(i)] = "removed_phase"
    for i in range(DENSE_NEW):
        designed[f"new.phase{i:02d}"] = "new_phase"
    return p, designed


def program_from_events(event_logs) -> Program:
    """Rebuild one calls-only program from several recorders' event logs."""
    p = Program()
    for events in event_logs:
        _append_events(p, events)
    return p


def _append_events(p: Program, events) -> None:
    by_addr: dict[int, int] = {}
    for ev in events:
        kind = ev.kind.value
        if kind == "malloc":
            slot = p.new_slot()
            by_addr[ev.addr] = slot
            p.ops.append((MALLOC, slot, ev.nbytes))
        elif kind == "calloc":
            slot = p.new_slot()
            by_addr[ev.addr] = slot
            p.ops.append((CALLOC, slot, ev.nbytes, 1))
        elif kind == "free":
            p.ops.append((FREE, by_addr.pop(ev.old_addr) if ev.old_addr is not None else NULL_SLOT))
        else:
            slot = by_addr.pop(ev.old_addr) if ev.old_addr is not None else p.new_slot()
            if ev.addr is not None:
                by_addr[ev.addr] = slot
            p.ops.append((REALLOC, slot, ev.nbytes))


# ---------------------------------------------------------------------------
# oracle


def op_cost(kind: str, nbytes: int) -> float:
    return WEIGHTS[kind] * math.log2(nbytes) if nbytes > 1 else 0.0


@dataclass
class Tally:
    calls: dict = field(default_factory=lambda: dict.fromkeys(KINDS, 0))
    bytes_allocated: int = 0
    bytes_freed: int = 0
    costs: list = field(default_factory=list)
    overflow: bool = False

    @property
    def cost(self) -> float:
        return math.fsum(self.costs)

    def add(self, other: "Tally") -> None:
        for kind in KINDS:
            self.calls[kind] += other.calls[kind]
        self.bytes_allocated += other.bytes_allocated
        self.bytes_freed += other.bytes_freed
        self.costs.extend(other.costs)
        self.overflow = self.overflow or other.overflow


@dataclass
class Expected:
    spans: list          # Tally per span index
    span_names: list
    phases: dict         # name -> Tally summed over its spans
    calls: int
    bytes_allocated: int
    bytes_freed: int
    live_blocks: int
    evictions: int


def expect(program: Program, capacity: int = RING_CAPACITY) -> Expected:
    """What a correct recorder must report for ``program``."""
    size = [0] * program.nslots
    live = [False] * program.nslots
    tallies = [Tally() for _ in range(program.nspans)]
    open_spans: list[int] = []
    calls = alloc_total = freed_total = 0
    for op in program.ops:
        code = op[0]
        if code == BEGIN:
            open_spans.append(op[1])
            continue
        if code == END:
            open_spans.remove(op[1])
            continue
        slot = op[1]
        allocated = freed = 0
        if code == MALLOC:
            kind, allocated = "malloc", op[2]
            size[slot], live[slot] = allocated, True
        elif code == CALLOC:
            kind, allocated = "calloc", op[2] * op[3]
            size[slot], live[slot] = allocated, True
        elif code == FREE:
            kind = "free"
            freed = size[slot] if live[slot] else 0
            live[slot] = False
        else:
            kind = "realloc"
            freed = size[slot] if live[slot] else 0
            allocated = op[2]
            size[slot], live[slot] = allocated, allocated > 0
        charged = freed if kind == "free" else allocated
        cost = op_cost(kind, charged)
        overflow = calls >= capacity
        calls += 1
        alloc_total += allocated
        freed_total += freed
        for span in open_spans:
            t = tallies[span]
            t.calls[kind] += 1
            t.bytes_allocated += allocated
            t.bytes_freed += freed
            t.costs.append(cost)
            t.overflow = t.overflow or overflow
    phases: dict[str, Tally] = {}
    for name, t in zip(program.span_names, tallies):
        phases.setdefault(name, Tally()).add(t)
    return Expected(
        spans=tallies,
        span_names=list(program.span_names),
        phases=phases,
        calls=calls,
        bytes_allocated=alloc_total,
        bytes_freed=freed_total,
        live_blocks=sum(live),
        evictions=max(0, calls - capacity),
    )


def predict_status(base: Tally | None, cand: Tally | None) -> str:
    """The status the default thresholds give, from oracle costs."""
    if base is None:
        return "new_phase"
    if cand is None:
        return "removed_phase"
    b, c = base.cost, cand.cost
    if (b > 0 and c / b - 1 > REL_THRESHOLD) or (b == 0 and c > ABS_FLOOR):
        return "regression"
    if (c > 0 and b / c - 1 > REL_THRESHOLD) or (c == 0 and b > ABS_FLOOR):
        return "improvement"
    return "neutral"


def cost_matches(got: float, want: float) -> bool:
    return abs(got - want) <= COST_REL_TOL * max(abs(want), 1.0)


def check_record(record, want: Tally, what: str, errors: list[str]) -> None:
    calls = {kind.value: n for kind, n in record.calls.items()}
    if calls != want.calls:
        errors.append(f"{what}: calls {calls} != {want.calls}")
    if (record.bytes_allocated, record.bytes_freed) != (want.bytes_allocated, want.bytes_freed):
        errors.append(f"{what}: bytes {record.bytes_allocated}/{record.bytes_freed} "
                      f"!= {want.bytes_allocated}/{want.bytes_freed}")
    if not cost_matches(record.cost, want.cost):
        errors.append(f"{what}: cost {record.cost!r} != {want.cost!r}")
    if record.overflow != want.overflow or record.auto_closed:
        errors.append(f"{what}: flags overflow={record.overflow} auto_closed={record.auto_closed}")


def check_report(report, exp: Expected, errors: list[str]) -> None:
    """Compare a parsed report against the oracle, appending any mismatch."""
    weights = {kind.value: w for kind, w in report.model.weights.items()}
    if weights != WEIGHTS or report.model.model_version != MODEL_VERSION:
        errors.append(f"cost model {report.model.model_version} {weights}")
    if set(report.merged) != set(exp.phases):
        errors.append("phase names differ from the program's")
        return
    for name, want in exp.phases.items():
        check_record(report.merged[name], want, f"phase {name!r}", errors)
    if len(report.per_thread) != len(exp.spans):
        errors.append(f"{len(report.per_thread)} span records, expected {len(exp.spans)}")
        return
    for record in report.per_thread:
        index = int(record.span_id.rsplit("/", 1)[1])
        if record.thread_id != "main" or exp.span_names[index] != record.name:
            errors.append(f"span {record.span_id} is {record.name!r}")
            continue
        check_record(record, exp.spans[index], f"span {record.span_id}", errors)
    t = report.totals
    got = (t.bytes_allocated, t.bytes_freed, t.live_blocks, t.live_bytes, t.anomaly_count, t.overflow_count)
    want = (exp.bytes_allocated, exp.bytes_freed, 0, 0, 0, exp.evictions)
    if exp.live_blocks != 0:
        errors.append(f"program leaves {exp.live_blocks} blocks live")
    if got != want:
        errors.append(f"counters {got} != {want}")
