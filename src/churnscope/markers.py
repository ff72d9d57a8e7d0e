"""Named critical-phase spans on a thread's event timeline.

A span is the interval between a begin and an end marker on one thread.
Spans may nest or partially overlap, but no span keeps a link to an
enclosing one: reports are flat, one record per span. A span is costed once,
when it closes, from the counter snapshots at its two endpoints. Its
recorder lists each span in begin order: the open handle until it closes,
then its ``MarkerChurn`` record in the handle's place. So closing a span is
O(1) regardless of how many events it covers or how many spans are open, a
closed span holds no snapshot, and the recorder holds no handle once its
span is closed: a handle lives as long as its caller keeps it.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

from .aggregation import MarkerChurn, utf8_bytes
from .errors import SpanStateError, ThreadAffinityError
from .recorder import CounterSnapshot, ThreadRecorder

MAX_NAME_BYTES = 128
RESERVED_PREFIX = "churnscope."


class MarkerSpan:
    """One named interval on one thread.

    While open it holds its start snapshot, ``start_snapshot``. Once closed
    it holds its churn record, read with ``span_churn``, and no snapshot:
    ``start_snapshot`` is None. A closed span is immutable. The recorder
    holds an open span's handle, and once it closes only its record;
    ``ThreadRecorder.spans()`` builds a closed span's handle anew on read.
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
        record in place of the start snapshot, here and in the recorder's
        list, where it replaces this handle.

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
    """A closed span's churn record, costed when it closed, whether read
    from the caller's handle or from one ``ThreadRecorder.spans()`` built;
    raise ``SpanStateError`` for an open span."""
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
    """Close an open span on its own thread: cost it at the current snapshot
    and keep its record in place of its start snapshot, and in the
    recorder's list in place of the handle."""
    if threading.get_ident() != span.recorder._os_ident:
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
