"""Allocator call capture: per-thread recorders and the interception surface.

Each thread records into its own ``ThreadRecorder``; the hot path takes no
locks. The counters are one integer list in ``CounterSnapshot`` field order.
They are the ground truth and survive any ring eviction; ``seq``, the number
of calls recorded, is derived from the four call counts rather than stored.
A snapshot is one tuple copy per ``seq``: marker endpoints with no call
between them share one immutable snapshot, and after ``seal()`` a snapshot
is a pure read. A span holds its start snapshot only while it is open: it
is costed where it closes and keeps its record instead. Bytes are two
totals, allocated and freed, whatever the call kind. On the hot path a call
kind is its counter slot, the index of its ``*_calls`` field, and the
model's weights are bound in slot order. Each call is admitted and charged
in one step, ``_charge``: it refuses a call from another thread or after
``seal()``, and is the only place a call changes the live-block table, the
counters and the bounded event ring, kept for diagnostics and replay: one
``deque`` of four slots per call (slot, nbytes, addr, old_addr), the most
recent calls' slots in order, with no tuple per call. ``events()`` reads
them four at a time and builds ``AllocEvent``s on read. A full ring evicts
one call's four slots per call; evictions are derived where a span is
costed, at its close, and where a report is built, so the capacity changes
no snapshot.
A ``record_*`` method checks only its sizes, and returns ``None``. The
recorder's own bookkeeping does only dict, list and deque operations on
ints, so it never calls back into a ``TracingAllocator``.
"""

from __future__ import annotations

import sys
from collections import deque, namedtuple
from math import log2
from operator import itemgetter
from threading import get_ident
from typing import TYPE_CHECKING

from .cost_model import NANO, AllocFnKind, CostModel
from .errors import RecorderSealedError, ThreadAffinityError

if TYPE_CHECKING:
    from .markers import MarkerSpan

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


class ThreadRecorder:
    """Single-thread capture state: counters, live-block table, event ring.

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
        self._weights = _slot_weights(model.weights)  # a tuple, in slot order
        self._os_ident = self._writer = get_ident()
        slots = 4 * self.ring_capacity
        self._ring: deque[int | None] = deque(maxlen=slots if slots <= sys.maxsize else None)
        self._log = self._ring.append  # bound once: four calls per recorded call
        self._c = [0] * len(CounterSnapshot._fields)
        self._live: dict[int, int] = {}
        self._spans: list[MarkerSpan] = []
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

    # -- span bookkeeping (managed by the markers module) --------------------

    def spans(self) -> list[MarkerSpan]:
        """Every span begun on this thread, in open order."""
        return list(self._spans)

    def seal(self) -> None:
        """Stop recording. Open spans are closed at the seal snapshot: each
        is costed there and its record flagged auto_closed. Idempotent. Call
        from the owning thread, or from elsewhere only once the owning thread
        has quiesced (e.g. post-join)."""
        if self._writer is None:
            return
        snap = self.snapshot()
        for span in self._spans:
            if not span.closed:
                span._close(snap, auto_closed=True)
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
