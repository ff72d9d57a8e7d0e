"""Named critical-phase spans on a thread's event timeline.

A span is the interval between a begin and an end marker on one thread.
Spans may nest or partially overlap, but no span keeps a link to an
enclosing one: reports are flat, one record per span. A span is costed once,
when it closes, from the counter snapshots at its two endpoints; it then
keeps its ``MarkerChurn`` record and drops its start snapshot. So closing a
span is O(1) regardless of how many events it covers or how many spans are
open, and a closed span holds no snapshot.
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
    ``start_snapshot`` is None. A closed span is immutable.
    """

    __slots__ = ("span_id", "name", "recorder", "start_snapshot", "_churn")

    def __init__(
        self,
        span_id: str,
        name: str,
        recorder: ThreadRecorder,
        start_snapshot: CounterSnapshot,
    ):
        self.span_id = span_id
        self.name = name
        self.recorder = recorder
        self.start_snapshot: CounterSnapshot | None = start_snapshot
        self._churn: MarkerChurn | None = None

    @property
    def closed(self) -> bool:
        return self._churn is not None

    @property
    def thread_id(self) -> str:
        return self.recorder.thread_id

    def _close(self, end: CounterSnapshot, auto_closed: bool = False) -> None:
        """Cost the span from its start snapshot to ``end``, keep the record
        and drop the start snapshot.

        The cost is the running total's delta in nano-units, the exact sum of
        the span's per-call costs under its recorder's model, rounded half up
        to micro-units; so it depends only on the calls inside the span.
        ``overflow`` is derived from the two ``seq`` and the recorder's ring
        capacity; ``auto_closed`` is set by ``seal()``.
        """
        start = self.start_snapshot
        if start is None:
            raise SpanStateError(f"span {self.span_id!r} ({self.name!r}) is already closed")
        rec = self.recorder
        malloc0, calloc0, realloc0, free0, allocated0, freed0, nano0, _ = start
        malloc1, calloc1, realloc1, free1, allocated1, freed1, nano1, _ = end
        seq = malloc1 + calloc1 + realloc1 + free1
        # tuple.__new__ skips the named tuple's Python-level __new__: all twelve fields are given in order.
        self._churn = tuple.__new__(MarkerChurn, (
            self.name,
            (nano1 - nano0 + 500) // 1000,  # nano- to micro-units, ties up
            malloc1 - malloc0, calloc1 - calloc0, realloc1 - realloc0, free1 - free0,
            allocated1 - allocated0, freed1 - freed0,
            # Some call in [start seq, seq) evicted, by ThreadRecorder's eviction rule.
            seq > malloc0 + calloc0 + realloc0 + free0 and seq > rec.ring_capacity,
            auto_closed, rec.thread_id, self.span_id,
        ))
        self.start_snapshot = None

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"MarkerSpan({self.span_id!r}, {self.name!r}, {state})"


def span_churn(span: MarkerSpan) -> MarkerChurn:
    """A closed span's churn record, costed when it closed; raise
    ``SpanStateError`` for an open span."""
    churn = span._churn
    if churn is None:
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
    span = MarkerSpan(f"{recorder.thread_id}/{len(spans):06d}", name, recorder, recorder.snapshot())
    spans.append(span)
    return span


def end_marker(span: MarkerSpan) -> MarkerSpan:
    """Close an open span on its own thread: cost it at the current snapshot
    and keep its record in place of its start snapshot."""
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
