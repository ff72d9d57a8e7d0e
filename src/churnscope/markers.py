"""Named critical-phase spans on a thread's event timeline.

A span is the interval between a begin and an end marker on one thread.
Spans may nest or partially overlap, but no span keeps a link to an
enclosing one: reports are flat, one record per span. Each span is costed
independently from the counter snapshots taken at its two endpoints, so
closing a span is O(1) regardless of how many events it covers or how many
spans are open.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

from .errors import SpanStateError, ThreadAffinityError
from .recorder import CounterSnapshot, ThreadRecorder

MAX_NAME_BYTES = 128
RESERVED_PREFIX = "churnscope."


class MarkerSpan:
    """One named interval on one thread, bounded by counter snapshots.

    Closed spans are immutable.
    """

    __slots__ = (
        "span_id",
        "name",
        "recorder",
        "start_snapshot",
        "end_snapshot",
        "auto_closed",
    )

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
        self.start_snapshot = start_snapshot
        self.end_snapshot: CounterSnapshot | None = None
        self.auto_closed = False

    @property
    def closed(self) -> bool:
        return self.end_snapshot is not None

    @property
    def thread_id(self) -> str:
        return self.recorder.thread_id

    def _finalize(self, snapshot: CounterSnapshot, auto_closed: bool = False) -> None:
        if self.closed:
            raise SpanStateError(f"span {self.span_id!r} ({self.name!r}) is already closed")
        self.end_snapshot = snapshot
        self.auto_closed = auto_closed

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"MarkerSpan({self.span_id!r}, {self.name!r}, {state})"


def utf8_bytes(field: str, text: str) -> bytes:
    """``text`` in UTF-8. Raise ValueError naming ``field`` if it has no UTF-8
    form (it holds a lone surrogate), so a report that holds it could not be
    written."""
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValueError(f"{field} {text!r} is not valid Unicode ({exc.reason} at position {exc.start})") from None


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
    """Close an open span on its own thread and freeze its end snapshot."""
    if threading.get_ident() != span.recorder._os_ident:
        raise ThreadAffinityError(
            f"span {span.name!r} was opened on thread {span.thread_id!r} "
            "and must be closed there"
        )
    span._finalize(span.recorder.snapshot())
    return span


@contextmanager
def marker(recorder: ThreadRecorder, name: str) -> Iterator[MarkerSpan]:
    """Context manager sugar: begin on entry, end on exit."""
    span = begin_marker(recorder, name)
    try:
        yield span
    finally:
        end_marker(span)
