"""Recording: allocator calls captured per thread, between named markers, in one session.

Each thread records into its own ``ThreadRecorder``; the hot path takes no
locks. The counters are one integer list in ``CounterSnapshot`` field order.
They are the ground truth and survive any ring eviction; ``seq``, the number
of calls recorded, is derived from the four call counts rather than stored.
A snapshot is one tuple copy per ``seq``: marker endpoints with no call
between them share one immutable snapshot, and after ``seal()`` a snapshot
is a pure read. Bytes are two totals, allocated and freed, whatever the
call kind. On the hot path a call kind is its counter slot, the index of
its ``*_calls`` field, and the model's weights are bound in slot order.
Each call is admitted and charged in one step, ``_charge``: it refuses a
call from another thread or after ``seal()``, and is the only place a call
changes the live-block table, the counters and the bounded event ring, kept
for diagnostics and replay: one ``deque`` of four slots per call (slot,
nbytes, addr, old_addr), the most recent calls' slots in order, with no
tuple per call. ``events()`` reads them four at a time and builds
``AllocEvent``s on read. A full ring evicts one call's four slots per call;
evictions are derived where a span is costed, at its close, and where a
report is built, so the capacity changes no snapshot. A ``record_*`` method
checks only its sizes, and returns ``None``. The recorder's own bookkeeping
does only dict, list and deque operations on ints, so it never calls back
into a ``TracingAllocator``.

A span is the interval between a begin and an end marker on one thread.
Spans may nest or partially overlap, but no span keeps a link to an
enclosing one: reports are flat, one record per span. A recorder lists its
spans in begin order, one entry each: the open ``MarkerSpan``, which holds
its start snapshot, until the span closes, and then its ``MarkerChurn``
record in the handle's place. A span closes at ``end_marker``, or at
``seal()`` if it is still open, when the record is flagged auto_closed. It
is costed once, there, from the counter snapshots at its two endpoints, and
its handle keeps the record in place of the start snapshot. So closing a
span is O(1) regardless of how many events it covers or how many spans are
open, a closed span holds no snapshot, and the recorder holds no handle
once its span is closed: a handle lives as long as its caller keeps it. A
sealed recorder lists only records; ``spans()`` builds a closed span's
handle anew around its record on read.

A ``RecordingSession`` fixes its cost model before the first event and hands
each thread its own recorder. Threads record independently with no shared
state; once all recorders are sealed, ``build_report`` gathers the records
their recorders list, in label and then begin order, into the canonical
per-build report. Nothing is costed there, and nothing is merged: a
report's ``merged`` sums its parts by name on its first read.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import deque, namedtuple
from contextlib import contextmanager
from math import isfinite, log2, modf
from operator import itemgetter
from threading import get_ident
from typing import Iterator

from .cost_model import NANO, AllocFnKind, CostModel
from .errors import RecorderSealedError, RecorderStateError, SpanStateError, ThreadAffinityError
from .report import ChurnReport, MarkerChurn, ReportTotals, utf8_bytes

DEFAULT_RING_CAPACITY = 4096

# Saturation bound for byte counts; larger requests are clamped and flagged.
BYTES_MAX = 2**63 - 1


class AllocEvent(namedtuple("AllocEvent", ("thread_id", "seq", "kind", "nbytes", "addr", "old_addr"))):
    """One intercepted allocator call.

    ``nbytes`` is the effective byte count: the requested size for malloc
    and realloc, count*elem_size for calloc, and the attributed block size
    for free. ``addr`` is the resulting block token (absent for free and for
    failed calls); ``old_addr`` is the input token for free and realloc.
    """

    __slots__ = ()

    thread_id: str
    seq: int
    kind: AllocFnKind
    nbytes: int
    addr: int | None
    old_addr: int | None


class CounterSnapshot(namedtuple("CounterSnapshot", (
        "malloc_calls", "calloc_calls", "realloc_calls", "free_calls", "bytes_allocated", "bytes_freed", "cost_nano",
        "anomaly_count"))):
    """Immutable point-in-time copy of one recorder's aggregate counters.

    ``bytes_allocated`` sums the blocks malloc, calloc and realloc admitted;
    ``bytes_freed`` sums the blocks that left the live table, a realloc's
    old block included. ``seq`` is the number of calls recorded so far,
    derived from the four call counts, and the ``seq`` the next event will
    carry. It holds only what was counted, so the ring capacity changes no
    snapshot. A recorder makes one per ``seq``: two spans' ends may be one.
    """

    __slots__ = ()

    malloc_calls: int
    calloc_calls: int
    realloc_calls: int
    free_calls: int
    bytes_allocated: int
    bytes_freed: int
    cost_nano: int
    anomaly_count: int

    @property
    def seq(self) -> int:
        return self.malloc_calls + self.calloc_calls + self.realloc_calls + self.free_calls


# Indices into ThreadRecorder._c, which holds the counters in field order.
_ALLOCATED, _FREED, _COST, _ANOMALIES = map(
    CounterSnapshot._fields.index, ("bytes_allocated", "bytes_freed", "cost_nano", "anomaly_count"))
# A call kind's counter slot, and the kind in each slot. Bytes have no slot per kind, only the two totals.
_KINDS = tuple(AllocFnKind(field.removesuffix("_calls")) for field in CounterSnapshot._fields[:4])
_MALLOC, _CALLOC, _REALLOC, _FREE = map(
    _KINDS.index, (AllocFnKind.MALLOC, AllocFnKind.CALLOC, AllocFnKind.REALLOC, AllocFnKind.FREE))
_slot_weights = itemgetter(*_KINDS)


def checked_ring_capacity(ring_capacity: int | None) -> int:
    """The ring capacity to use: the default for ``None``, else an int from 1 to ``sys.maxsize``."""
    capacity = DEFAULT_RING_CAPACITY if ring_capacity is None else ring_capacity
    if type(capacity) is not int:  # a bool or an integral float included
        raise ValueError(f"ring capacity must be an int, got {capacity!r}")
    if not 1 <= capacity <= sys.maxsize:  # no len() is larger, so no ring could hold more calls
        bound = ">= 1" if capacity < 1 else f"<= {sys.maxsize}"
        raise ValueError(f"ring capacity must be {bound}, got {capacity}")
    return capacity


def checked_model(model: CostModel) -> CostModel:
    """``model`` if it is a ``CostModel``: anything else is refused where it is given, not at its first use."""
    if not isinstance(model, CostModel):
        raise ValueError(f"model must be a CostModel, got {model!r}")
    return model


class ThreadRecorder:
    """Single-thread capture state: counters, live-block table, event ring,
    and its span list (see the module docstring).

    All mutation must happen on the owning thread. After ``seal()`` the
    recorder emits no further events and may be read from any thread; other
    threads must not read it before that. ``ring_capacity`` is fixed when it
    is built. The one eviction rule: the call numbered ``seq`` evicts an entry
    iff ``seq >= ring_capacity``, so the first ``seq`` calls evicted
    ``max(0, seq - ring_capacity)``.

    The ring is one ``deque`` of ``4 * ring_capacity`` slots, each call's
    kind slot, nbytes, addr and old_addr in turn, so a full ring drops the
    oldest call's four slots. A capacity above ``sys.maxsize // 4`` gets an
    unbounded deque: ``deque(maxlen=)`` takes no more than ``sys.maxsize``
    slots, and such a ring cannot fill before 2**61 calls. An asynchronous
    exception (``KeyboardInterrupt``) between a call's four appends leaves
    the ring misaligned, as one between two counter writes leaves the ring
    and the counters out of step; nothing in churnscope reads the ring.
    """

    def __init__(self, thread_id: str, model: CostModel, ring_capacity: int | None = None):
        self.thread_id = thread_id
        self.ring_capacity = checked_ring_capacity(ring_capacity)
        self._weights = _slot_weights(checked_model(model).weights)  # a tuple, in slot order
        self._os_ident = self._writer = get_ident()
        slots = 4 * self.ring_capacity
        self._ring: deque[int | None] = deque(maxlen=slots if slots <= sys.maxsize else None)
        self._log = self._ring.append  # bound once: four calls per recorded call
        self._c = [0] * len(CounterSnapshot._fields)
        self._live: dict[int, int] = {}
        self._spans: list[MarkerSpan | MarkerChurn] = []  # an open span's handle, a closed span's record
        self._snap: CounterSnapshot | None = None  # the last snapshot taken, shared while _snap_seq holds
        self._snap_seq = -1

    @property
    def sealed(self) -> bool:
        return self._writer is None

    def _require_writable(self) -> None:
        """Raise unless called on the owning thread before ``seal()``."""
        if get_ident() != self._os_ident:
            raise ThreadAffinityError(f"recorder {self.thread_id!r} belongs to another thread")
        if self._writer is None:
            raise RecorderSealedError(f"recorder {self.thread_id!r} is sealed")

    # -- recording ---------------------------------------------------------

    def record_malloc(self, requested: int, addr: int | None) -> None:
        """Record one malloc call; ``addr is None`` means the call failed."""
        if type(requested) is not int or requested < 0:
            raise ValueError(f"requested size must be a nonnegative int, got {requested!r}")
        self._charge(_MALLOC, requested, addr, None)

    def record_calloc(self, count: int, elem_size: int, addr: int | None) -> None:
        """Record one calloc call; effective bytes are ``count * elem_size``."""
        if type(count) is not int or count < 0 or type(elem_size) is not int or elem_size < 0:
            raise ValueError(f"calloc sizes must be nonnegative ints, got {count!r}, {elem_size!r}")
        self._charge(_CALLOC, count * elem_size, addr, None)

    def record_free(self, old_addr: int | None) -> None:
        """Record one free call, attributing bytes from the live table.

        Freeing a null token is a legal no-op call (zero bytes, no anomaly).
        An unknown token is still counted as a call, with zero bytes, and
        bumps the anomaly counter: it signals a block allocated before
        interception began, or a mismatched report.
        """
        self._charge(_FREE, 0, None, old_addr)

    def record_realloc(self, old_addr: int | None, requested: int, addr: int | None) -> None:
        """Record one realloc call as a single event charged on the new size.

        The live entry moves from ``old_addr`` to ``addr``. A null
        ``old_addr`` is a fresh allocation (no anomaly); an unknown token is
        treated as fresh and bumps the anomaly counter. ``requested == 0``
        removes the entry and admits nothing; ``addr is None`` with a nonzero
        request is a failed call that leaves the original block live.
        """
        if type(requested) is not int or requested < 0:
            raise ValueError(f"requested size must be a nonnegative int, got {requested!r}")
        if addr is None and requested:
            # Failed call: the original block stays live, the event carries no tokens.
            self._charge(_REALLOC, 0, None, None)
        else:
            # A zero-size realloc admits no block, whatever came back.
            self._charge(_REALLOC, requested, addr if requested else None, old_addr)

    def _charge(self, kind: int, requested: int, addr: int | None, old_addr: int | None) -> None:
        """Admit one call of slot ``kind``, then charge and log it: the only
        place a call changes the live table, counters or ring, so they equal a
        replay of the logged events. A call from another thread or after
        ``seal()``, or an unhashable token, raises before anything changes.
        ``old_addr`` leaves the table, its bytes counted freed (and charged,
        by a free); ``addr`` enters it, charged and counted allocated at
        ``requested``. An unknown ``old_addr``, a request past ``BYTES_MAX``
        (clamped) and an ``addr`` already live (replaced) are an anomaly each.
        The cost is ``event_cost`` inlined, float operations in order. The
        call is logged last, after everything that can raise, as four ring
        slots (four appends cost less than one ``extend`` of a tuple); a full
        ring drops the oldest call's four."""
        if get_ident() != self._writer:
            self._require_writable()  # raises: another thread, or sealed
        c = self._c
        live = self._live
        nbytes = 0
        if old_addr is not None:
            if addr is not None:
                hash(addr)  # an unhashable token raises here, before anything changes
            freed = live.pop(old_addr, None)
            if freed is None:
                c[_ANOMALIES] += 1
            else:
                c[_FREED] += freed
                if kind == _FREE:
                    nbytes = freed
        if addr is not None:
            if addr in live:
                c[_ANOMALIES] += 1
            if requested > BYTES_MAX:
                c[_ANOMALIES] += 1
                requested = BYTES_MAX
            live[addr] = nbytes = requested
            c[_ALLOCATED] += requested
        if nbytes > 1:
            c[_COST] += round(self._weights[kind] * log2(nbytes) * NANO)
        c[kind] += 1
        log = self._log
        log(kind)
        log(nbytes)
        log(addr)
        log(old_addr)

    # -- reading -----------------------------------------------------------

    def snapshot(self) -> CounterSnapshot:
        """The counters as an immutable tuple, made once per ``seq`` and shared
        until the next call (after ``seal()``, from any thread). It writes nothing."""
        c = self._c
        seq = c[0] + c[1] + c[2] + c[3]
        if seq != self._snap_seq:
            self._snap, self._snap_seq = tuple.__new__(CounterSnapshot, c), seq
        return self._snap

    def events(self) -> list[AllocEvent]:
        """The retained events, oldest first, built from the ring's slots
        read four at a time. Ring eviction drops the front."""
        tid, first = self.thread_id, self.snapshot().seq - len(self._ring) // 4
        slots = iter(self._ring)
        return [AllocEvent(tid, seq, _KINDS[kind], nbytes, addr, old_addr)
                for seq, (kind, nbytes, addr, old_addr) in enumerate(zip(slots, slots, slots, slots), first)]

    def live_table(self) -> dict[int, int]:
        """Copy of the outstanding-block table (token to byte size)."""
        return dict(self._live)

    # -- spans ---------------------------------------------------------------

    def spans(self) -> list[MarkerSpan]:
        """Every span begun on this thread, in begin order, a closed one as a
        handle built on read around its record, as ``events()`` builds its
        events: not the handle ``begin_marker`` returned, so compare spans by
        ``span_id``."""
        return [entry if type(entry) is not MarkerChurn else MarkerSpan(entry.span_id, entry.name, self, entry)
                for entry in self._spans]

    def seal(self) -> None:
        """Stop recording, and close each span still open at the seal
        snapshot. Idempotent. Call from the owning thread, or from elsewhere
        only once the owning thread has quiesced (e.g. post-join)."""
        if self._writer is None:
            return
        snap = self.snapshot()
        for entry in self._spans:
            if type(entry) is not MarkerChurn:
                entry._close(snap, auto_closed=True)
        self._writer = None


class BumpAllocator:
    """Deterministic stand-in heap: a bump pointer handing out increasing,
    16-byte aligned tokens from 0x1000. Every call succeeds and ``free`` does
    nothing; to record failures, give ``TracingAllocator`` a base whose calls
    return None. As a C allocator takes ``size_t``, a size or count that is
    not a nonnegative int (a bool included) raises ValueError before the
    pointer moves."""

    def __init__(self):
        self._next = 0x1000

    def _take(self, size: int) -> int:
        addr = self._next
        self._next = addr + ((size + 15) & ~15 or 16)  # a zero-size block still takes 16
        return addr

    def malloc(self, size: int) -> int:
        if type(size) is not int or size < 0:
            raise ValueError(f"requested size must be a nonnegative int, got {size!r}")
        return self._take(size)

    def calloc(self, count: int, elem_size: int) -> int:
        if type(count) is not int or count < 0 or type(elem_size) is not int or elem_size < 0:
            raise ValueError(f"calloc sizes must be nonnegative ints, got {count!r}, {elem_size!r}")
        return self._take(count * elem_size)

    def realloc(self, addr: int | None, size: int) -> int | None:
        if type(size) is not int or size < 0:
            raise ValueError(f"requested size must be a nonnegative int, got {size!r}")
        return self._take(size) if size else None

    def free(self, addr: int | None) -> None:
        pass


class TracingAllocator:
    """The four-call interception surface.

    Forwards every call to the base allocator unchanged and records it into
    the owning thread's recorder. The default base, a ``BumpAllocator``,
    never fails; pass a base whose calls return None to record failures.
    """

    def __init__(self, recorder: ThreadRecorder, base: BumpAllocator | None = None):
        self._rec = recorder
        self._base = base if base is not None else BumpAllocator()

    @property
    def base(self) -> BumpAllocator:
        return self._base

    def malloc(self, size: int) -> int | None:
        addr = self._base.malloc(size)
        self._rec.record_malloc(size, addr)
        return addr

    def calloc(self, count: int, elem_size: int) -> int | None:
        addr = self._base.calloc(count, elem_size)
        self._rec.record_calloc(count, elem_size, addr)
        return addr

    def realloc(self, addr: int | None, size: int) -> int | None:
        new_addr = self._base.realloc(addr, size)
        self._rec.record_realloc(addr, size, new_addr)
        return new_addr

    def free(self, addr: int | None) -> None:
        self._base.free(addr)
        self._rec.record_free(addr)


# -- marker spans ------------------------------------------------------------


MAX_NAME_BYTES = 128
RESERVED_PREFIX = "churnscope."


class MarkerSpan:
    """One named interval on one thread: its start snapshot,
    ``start_snapshot``, while it is open, and once it is closed its churn
    record, read with ``span_churn``, with ``start_snapshot`` None. A closed
    span is immutable.
    """

    # One slot holds the start snapshot, then the record. ``_index`` is the
    # span's entry in its recorder's list while it is open (``begin_marker``
    # sets it), and None once it is closed.
    __slots__ = ("span_id", "name", "recorder", "_state", "_index")

    def __init__(
        self,
        span_id: str,
        name: str,
        recorder: ThreadRecorder,
        state: CounterSnapshot | MarkerChurn,
    ):
        self.span_id = span_id
        self.name = name
        self.recorder = recorder
        self._state = state
        self._index: int | None = None

    @property
    def closed(self) -> bool:
        return type(self._state) is MarkerChurn

    @property
    def start_snapshot(self) -> CounterSnapshot | None:
        state = self._state
        return None if type(state) is MarkerChurn else state

    @property
    def thread_id(self) -> str:
        return self.recorder.thread_id

    def _close(self, end: CounterSnapshot, auto_closed: bool = False) -> None:
        """Cost the span from its start snapshot to ``end``, and put the
        record in its place, here and in the recorder's list.

        The cost is the running total's delta in nano-units, the exact sum of
        the span's per-call costs under its recorder's model, rounded half up
        to micro-units; so it depends only on the calls inside the span.
        ``overflow`` is derived from the two ``seq`` and the recorder's ring
        capacity; ``auto_closed`` is set by ``seal()``.
        """
        start = self._state
        if type(start) is MarkerChurn:
            raise SpanStateError(f"span {self.span_id!r} ({self.name!r}) is already closed")
        rec = self.recorder
        malloc0, calloc0, realloc0, free0, allocated0, freed0, nano0, _ = start
        malloc1, calloc1, realloc1, free1, allocated1, freed1, nano1, _ = end
        seq = malloc1 + calloc1 + realloc1 + free1
        # tuple.__new__ skips the named tuple's Python-level __new__: all twelve fields are given in order.
        self._state = rec._spans[self._index] = tuple.__new__(MarkerChurn, (
            self.name,
            (nano1 - nano0 + 500) // 1000,  # nano- to micro-units, ties up
            malloc1 - malloc0, calloc1 - calloc0, realloc1 - realloc0, free1 - free0,
            allocated1 - allocated0, freed1 - freed0,
            # Some call in [start seq, seq) evicted, by ThreadRecorder's eviction rule.
            seq > malloc0 + calloc0 + realloc0 + free0 and seq > rec.ring_capacity,
            auto_closed, rec.thread_id, self.span_id,
        ))
        self._index = None  # an index past 256 is an int object, and a closed span has no entry left to replace

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"MarkerSpan({self.span_id!r}, {self.name!r}, {state})"


def span_churn(span: MarkerSpan) -> MarkerChurn:
    """A closed span's churn record, from the caller's handle or from one
    ``ThreadRecorder.spans()`` built; raise ``SpanStateError`` for an open span."""
    churn = span._state
    if type(churn) is not MarkerChurn:
        raise SpanStateError(f"span {span.span_id!r} ({span.name!r}) is still open")
    return churn


def _validate_name(name: str) -> None:
    if not isinstance(name, str) or not name:
        raise ValueError("marker name must be a nonempty string")
    if len(utf8_bytes("marker name", name)) > MAX_NAME_BYTES:
        raise ValueError(f"marker name exceeds {MAX_NAME_BYTES} bytes: {name!r}")
    if name.startswith(RESERVED_PREFIX):
        raise ValueError(f"marker names starting with {RESERVED_PREFIX!r} are reserved")


def begin_marker(recorder: ThreadRecorder, name: str) -> MarkerSpan:
    """Open a span named ``name`` on the calling thread's recorder.

    The start snapshot is taken on the calling thread, so it is atomic with
    respect to that thread's own event stream. Several spans with the same
    name may be open at once; span ids disambiguate them.
    """
    _validate_name(name)
    recorder._require_writable()
    spans = recorder._spans
    index = len(spans)
    # The id, which the record keeps, is made on its own line, so a traced allocation site tells it from the handle.
    span_id = f"{recorder.thread_id}/{index:06d}"
    # _index is set here, not passed: a class call packs its arguments in a tuple, and a 5-tuple
    # parked on CPython's tuple free list would count in a traced peak.
    span = MarkerSpan(span_id, name, recorder, recorder.snapshot())
    span._index = index
    spans.append(span)
    return span


def end_marker(span: MarkerSpan) -> MarkerSpan:
    """Close an open span on its own thread, costing it at the current snapshot."""
    if get_ident() != span.recorder._os_ident:
        raise ThreadAffinityError(
            f"span {span.name!r} was opened on thread {span.thread_id!r} "
            "and must be closed there"
        )
    span._close(span.recorder.snapshot())
    return span


@contextmanager
def marker(recorder: ThreadRecorder, name: str) -> Iterator[MarkerSpan]:
    """Context manager sugar: begin on entry, end on exit."""
    span = begin_marker(recorder, name)
    try:
        yield span
    finally:
        end_marker(span)


# -- the session -------------------------------------------------------------


def utc_timestamp(epoch: float | int | None = None) -> str:
    """ISO-8601 UTC second-resolution timestamp, optionally from an epoch.

    It gives the string ``datetime.fromtimestamp`` gives, the year written
    with four digits as ``datetime.isoformat`` writes it, without importing
    ``datetime``: a float epoch is rounded to the microsecond, half to even,
    before its second is taken. An epoch with a year outside 1-9999, or one
    ``gmtime`` cannot represent, is refused by a message naming the epoch.
    """
    seconds = epoch
    if isinstance(epoch, float) and isfinite(epoch):
        fraction, whole = modf(epoch)
        micro = round(fraction * 1e6)
        seconds = int(whole) + (micro >= 1_000_000) - (micro < 0)
    try:
        year, month, day, hour, minute, second = time.gmtime(seconds)[:6]
    except (OverflowError, OSError, ValueError):  # ValueError: a NaN
        year = 0  # refused below, with the same message as a year past 9999
    if not 1 <= year <= 9999:
        raise ValueError(f"epoch {epoch} is out of range")
    return f"{year:04d}-{month:02d}-{day:02d}T{hour:02d}:{minute:02d}:{second:02d}Z"


class RecordingSession:
    """Registry of per-thread recorders sharing one cost model.

    ``recorder(label)`` returns the calling thread's recorder, creating it
    on first use. Labels name threads in reports; pass explicit, stable
    labels when report determinism across runs matters (OS thread ids are
    not stable). The registry lock guards only creation, never recording.
    """

    def __init__(
        self,
        model: CostModel | None = None,
        ring_capacity: int | None = None,
        build_id: str = "local",
        created_at: str | None = None,
    ):
        self._model = checked_model(model if model is not None else CostModel())
        self._ring_capacity = checked_ring_capacity(ring_capacity)
        # A report that serialize_report writes must parse back.
        if not isinstance(build_id, str):
            raise ValueError(f"build_id must be a string, got {build_id!r}")
        utf8_bytes("build_id", build_id)
        if created_at is not None:
            if not isinstance(created_at, str):
                raise ValueError(f"created_at must be None or a string, got {created_at!r}")
            utf8_bytes("created_at", created_at)
        self.build_id = build_id
        self.created_at = created_at
        self._lock = threading.Lock()
        # Thread-local handle rather than a get_ident()-keyed map: the OS
        # reuses thread ids, thread-local slots die with their thread.
        self._tls = threading.local()
        self._by_label: dict[str, ThreadRecorder] = {}

    @property
    def model(self) -> CostModel:
        return self._model

    def recorder(self, label: str | None = None) -> ThreadRecorder:
        """Get or create the calling thread's recorder. Unlabelled, it is named
        ``thread-N`` for the first free N from the number of recorders."""
        rec: ThreadRecorder | None = getattr(self._tls, "recorder", None)
        if rec is not None:
            if label is not None and label != rec.thread_id:
                raise ValueError(
                    f"thread already registered as {rec.thread_id!r}, not {label!r}"
                )
            return rec
        with self._lock:
            if label is None:
                n = len(self._by_label)
                while f"thread-{n}" in self._by_label:  # taken by an explicit label
                    n += 1
                label = f"thread-{n}"
            elif not isinstance(label, str):
                raise ValueError(f"thread label must be a string, got {label!r}")
            else:
                utf8_bytes("thread label", label)
            if label in self._by_label:
                raise ValueError(f"thread label {label!r} already in use")
            rec = ThreadRecorder(label, self._model, self._ring_capacity)
            self._by_label[label] = rec
        self._tls.recorder = rec
        return rec

    def recorders(self) -> list[ThreadRecorder]:
        """All recorders, ordered by label."""
        with self._lock:
            return [self._by_label[label] for label in sorted(self._by_label)]

    def seal_all(self) -> None:
        """Seal every recorder. Only call once all recording threads have
        quiesced (finished or joined)."""
        for rec in self.recorders():
            rec.seal()

    def build_report(self) -> ChurnReport:
        """Assemble the canonical report from the sealed recorders, in one
        pass: each recorder's records are the report's parts, and its counters
        and live table add to the totals."""
        parts: list[MarkerChurn] = []
        allocated = freed = live_blocks = live_bytes = anomalies = overflows = 0
        # Recorders come ordered by label, and a sealed recorder's entries are its spans' records in begin order.
        for rec in self.recorders():
            if not rec.sealed:
                raise RecorderStateError(
                    f"recorder {rec.thread_id!r} is not sealed; call seal_all() first"
                )
            for record in rec._spans:
                parts.append(record)  # one at a time, as a comprehension grows a list; extend() sizes it otherwise
            snap = rec.snapshot()
            allocated += snap.bytes_allocated
            freed += snap.bytes_freed
            anomalies += snap.anomaly_count
            overflows += max(0, snap.seq - rec.ring_capacity)  # ThreadRecorder's eviction rule
            live = rec._live
            live_blocks += len(live)
            live_bytes += sum(live.values())
        totals = ReportTotals(allocated, freed, live_blocks, live_bytes, anomalies, overflows)
        return ChurnReport(
            build_id=self.build_id,
            created_at=self.created_at if self.created_at is not None else utc_timestamp(),
            model=self._model,
            per_thread=parts,
            totals=totals,
        )
