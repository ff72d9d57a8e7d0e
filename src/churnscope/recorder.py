"""Allocator call capture: per-thread recorders and the interception surface.

Each thread records into its own ``ThreadRecorder``; the hot path takes no
locks. Every recorded call is charged in one place, from its event's own
kind and byte count: per-kind calls and bytes, and the running cost in
integer nano-units. The counters are one integer list in ``CounterSnapshot``
field order, so a snapshot is one tuple copy. They are the ground truth and
survive any ring eviction; the bounded event ring (a ``deque`` of the most
recent calls, each a bare ``(kind, nbytes, addr, old_addr)`` tuple) exists
for diagnostics and for replay-based validation, and ``events()`` builds
``AllocEvent``s from it on read. The ring's capacity changes only the
overflow count, never a cost, call or byte count. The ``record_*`` methods
return ``None``. A reentrancy guard is held around every mutation so
allocations made by the recorder's own bookkeeping are never recorded.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .cost_model import NANO, AllocFnKind, CostModel, event_cost
from .errors import RecorderSealedError, ThreadAffinityError

if TYPE_CHECKING:
    from .markers import MarkerSpan

DEFAULT_RING_CAPACITY = 4096

# Saturation bound for byte counts; larger requests are clamped and flagged.
BYTES_MAX = 2**63 - 1


@dataclass(frozen=True, slots=True)
class AllocEvent:
    """One intercepted allocator call.

    ``nbytes`` is the effective byte count: the requested size for malloc
    and realloc, count*elem_size for calloc, and the attributed block size
    for free. ``addr`` is the resulting block token (absent for free and for
    failed calls); ``old_addr`` is the input token for free and realloc.
    """

    thread_id: str
    seq: int
    kind: AllocFnKind
    nbytes: int
    addr: int | None
    old_addr: int | None


class CounterSnapshot(NamedTuple):
    """Point-in-time copy of one recorder's aggregate counters."""

    seq: int
    malloc_calls: int
    calloc_calls: int
    realloc_calls: int
    free_calls: int
    malloc_bytes: int
    calloc_bytes: int
    realloc_bytes: int
    free_bytes: int
    realloc_freed_bytes: int
    cost_nano: int
    overflow_count: int
    anomaly_count: int

    @property
    def bytes_allocated(self) -> int:
        return self.malloc_bytes + self.calloc_bytes + self.realloc_bytes

    @property
    def bytes_freed(self) -> int:
        return self.free_bytes + self.realloc_freed_bytes


# Indices into ThreadRecorder._c, which holds the counters in field order.
_SEQ, _REALLOC_FREED, _COST, _OVERFLOW, _ANOMALIES = map(
    CounterSnapshot._fields.index,
    ("seq", "realloc_freed_bytes", "cost_nano", "overflow_count", "anomaly_count"),
)
_CALLS = {kind: CounterSnapshot._fields.index(f"{kind.value}_calls") for kind in AllocFnKind}
_BYTES = {kind: CounterSnapshot._fields.index(f"{kind.value}_bytes") for kind in AllocFnKind}


def checked_ring_capacity(ring_capacity: int | None) -> int:
    """The ring capacity to use: the default for ``None``, else at least 1."""
    capacity = DEFAULT_RING_CAPACITY if ring_capacity is None else ring_capacity
    if capacity < 1:
        raise ValueError(f"ring capacity must be >= 1, got {capacity}")
    return capacity


class ThreadRecorder:
    """Single-thread capture state: counters, live-block table, event ring.

    All mutation must happen on the owning thread. After ``seal()`` the
    recorder emits no further events and may be read from any thread; other
    threads must not read it before that.
    """

    def __init__(self, thread_id: str, model: CostModel, ring_capacity: int | None = None):
        self.thread_id = thread_id
        self._model = model
        self._os_ident = threading.get_ident()
        self._ring: deque[tuple] = deque(maxlen=checked_ring_capacity(ring_capacity))
        self._c = [0] * len(CounterSnapshot._fields)
        self._live: dict[int, int] = {}
        self._depth = 0
        self._sealed = False
        self._spans: list[MarkerSpan] = []

    @property
    def model(self) -> CostModel:
        return self._model

    @property
    def sealed(self) -> bool:
        return self._sealed

    @property
    def ring_capacity(self) -> int:
        return self._ring.maxlen

    @property
    def reentrancy_depth(self) -> int:
        return self._depth

    def _require_writable(self) -> None:
        """Raise unless called on the owning thread before ``seal()``."""
        if threading.get_ident() != self._os_ident:
            raise ThreadAffinityError(
                f"recorder {self.thread_id!r} belongs to another thread"
            )
        if self._sealed:
            raise RecorderSealedError(f"recorder {self.thread_id!r} is sealed")

    # -- recording ---------------------------------------------------------

    def record_malloc(self, requested: int, addr: int | None) -> None:
        """Record one malloc call; ``addr is None`` means the call failed."""
        self._require_writable()
        if self._depth:
            return  # recorder-internal allocation, never recorded
        if requested < 0:
            raise ValueError(f"requested size must be nonnegative, got {requested}")
        self._depth += 1
        try:
            nbytes = 0
            if addr is not None:
                nbytes = self._clamp(requested)
                if addr in self._live:
                    self._c[_ANOMALIES] += 1  # double report or missed free
                self._live[addr] = nbytes
            self._emit(AllocFnKind.MALLOC, nbytes, addr, None)
        finally:
            self._depth -= 1

    def record_calloc(self, count: int, elem_size: int, addr: int | None) -> None:
        """Record one calloc call; effective bytes are ``count * elem_size``."""
        self._require_writable()
        if self._depth:
            return
        if count < 0 or elem_size < 0:
            raise ValueError("calloc count and element size must be nonnegative")
        self._depth += 1
        try:
            nbytes = 0
            if addr is not None:
                nbytes = self._clamp(count * elem_size)
                if addr in self._live:
                    self._c[_ANOMALIES] += 1
                self._live[addr] = nbytes
            self._emit(AllocFnKind.CALLOC, nbytes, addr, None)
        finally:
            self._depth -= 1

    def record_free(self, old_addr: int | None) -> None:
        """Record one free call, attributing bytes from the live table.

        Freeing a null token is a legal no-op call (zero bytes, no anomaly).
        An unknown token is still counted as a call, with zero bytes, and
        bumps the anomaly counter: it signals a block allocated before
        interception began, or a mismatched report.
        """
        self._require_writable()
        if self._depth:
            return
        self._depth += 1
        try:
            nbytes = 0
            if old_addr is not None:
                size = self._live.pop(old_addr, None)
                if size is None:
                    self._c[_ANOMALIES] += 1
                else:
                    nbytes = size
            self._emit(AllocFnKind.FREE, nbytes, None, old_addr)
        finally:
            self._depth -= 1

    def record_realloc(self, old_addr: int | None, requested: int, addr: int | None) -> None:
        """Record one realloc call as a single event charged on the new size.

        The live entry moves from ``old_addr`` to ``addr``. A null
        ``old_addr`` is a fresh allocation (no anomaly); an unknown token is
        treated as fresh and bumps the anomaly counter. ``requested == 0``
        removes the entry, ``addr is None`` with a nonzero request is a
        failed call that leaves the original block live.
        """
        self._require_writable()
        if self._depth:
            return
        if requested < 0:
            raise ValueError(f"requested size must be nonnegative, got {requested}")
        self._depth += 1
        try:
            nbytes = 0
            emit_addr = None
            emit_old = old_addr
            if requested == 0:
                if old_addr is not None:
                    size = self._live.pop(old_addr, None)
                    if size is None:
                        self._c[_ANOMALIES] += 1
                    else:
                        self._c[_REALLOC_FREED] += size
            elif addr is None:
                # Failed call: the original block stays live and nothing
                # moved, so the event carries no address tokens at all.
                emit_old = None
            else:
                nbytes = self._clamp(requested)
                if old_addr is not None:
                    size = self._live.pop(old_addr, None)
                    if size is None:
                        self._c[_ANOMALIES] += 1
                    else:
                        self._c[_REALLOC_FREED] += size
                if addr in self._live:
                    self._c[_ANOMALIES] += 1
                self._live[addr] = nbytes
                emit_addr = addr
            self._emit(AllocFnKind.REALLOC, nbytes, emit_addr, emit_old)
        finally:
            self._depth -= 1

    def _clamp(self, nbytes: int) -> int:
        if nbytes > BYTES_MAX:
            self._c[_ANOMALIES] += 1
            return BYTES_MAX
        return nbytes

    def _emit(self, kind: AllocFnKind, nbytes: int, addr: int | None, old_addr: int | None) -> None:
        """Charge one call, from the event's own kind and byte count, and log it.

        The only place a call is charged, so calls, bytes and cost always
        equal a replay of the emitted events.
        """
        c = self._c
        c[_COST] += round(event_cost(self._model, kind, nbytes) * NANO)
        c[_CALLS[kind]] += 1
        c[_BYTES[kind]] += nbytes
        c[_SEQ] += 1
        self._append_event((kind, nbytes, addr, old_addr))

    def _append_event(self, entry: tuple) -> None:
        # A full ring drops its oldest entry; the counters are untouched.
        if len(self._ring) == self._ring.maxlen:
            self._c[_OVERFLOW] += 1
        self._ring.append(entry)

    # -- reading -----------------------------------------------------------

    def snapshot(self) -> CounterSnapshot:
        """Pure read of all counters; cheap enough to take per marker."""
        return CounterSnapshot._make(self._c)

    def events(self) -> list[AllocEvent]:
        """The retained events, oldest first. Ring eviction drops the front."""
        first = self._c[_SEQ] - len(self._ring)
        return [
            AllocEvent(self.thread_id, first + i, *entry)
            for i, entry in enumerate(self._ring)
        ]

    def live_table(self) -> dict[int, int]:
        """Copy of the outstanding-block table (token to byte size)."""
        return dict(self._live)

    def live_bytes(self) -> int:
        return sum(self._live.values())

    # -- span bookkeeping (managed by the markers module) --------------------

    def _push_span(self, span: MarkerSpan) -> None:
        self._spans.append(span)

    def _next_span_id(self) -> str:
        return f"{self.thread_id}/{len(self._spans):06d}"

    def spans(self) -> list[MarkerSpan]:
        """Every span begun on this thread, in open order."""
        return list(self._spans)

    def seal(self) -> None:
        """Stop recording. Open spans are closed at the seal snapshot and
        flagged auto_closed. Idempotent. Call from the owning thread, or from
        elsewhere only once the owning thread has quiesced (e.g. post-join).
        """
        if self._sealed:
            return
        snap = self.snapshot()
        for span in self._spans:
            if not span.closed:
                span._finalize(snap, auto_closed=True)
        self._sealed = True


class BumpAllocator:
    """Deterministic stand-in heap handing out monotonically increasing tokens.

    Tokens start at 0x1000 and are 16-byte aligned. An optional ``budget``
    caps outstanding bytes; calls that would exceed it fail by returning
    None, which lets tests exercise failure transparency.
    """

    def __init__(self, budget: int | None = None):
        self._next = 0x1000
        self._budget = budget
        self._outstanding: dict[int, int] = {}
        self._used = 0

    def _take(self, size: int) -> int | None:
        if self._budget is not None and self._used + size > self._budget:
            return None
        addr = self._next
        self._next += (max(size, 1) + 15) // 16 * 16
        self._outstanding[addr] = size
        self._used += size
        return addr

    def malloc(self, size: int) -> int | None:
        return self._take(size)

    def calloc(self, count: int, elem_size: int) -> int | None:
        return self._take(count * elem_size)

    def realloc(self, addr: int | None, size: int) -> int | None:
        if size == 0:
            self.free(addr)
            return None
        old = self._outstanding.pop(addr, 0) if addr is not None else 0
        self._used -= old
        new_addr = self._take(size)
        if new_addr is None and addr is not None:
            # Failed grow leaves the original block untouched.
            self._outstanding[addr] = old
            self._used += old
        return new_addr

    def free(self, addr: int | None) -> None:
        if addr is None:
            return
        self._used -= self._outstanding.pop(addr, 0)


class TracingAllocator:
    """The four-call interception surface.

    Forwards every call to the base allocator unchanged and records it into
    the owning thread's recorder. While the recorder's reentrancy guard is
    held (its own bookkeeping is running), calls are forwarded but not
    recorded.
    """

    def __init__(self, recorder: ThreadRecorder, base: BumpAllocator | None = None):
        self._rec = recorder
        self._base = base if base is not None else BumpAllocator()

    @property
    def recorder(self) -> ThreadRecorder:
        return self._rec

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
