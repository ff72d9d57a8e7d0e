"""Randomized allocator-call drivers shared by the property tests.

All randomness comes from seeded ``random.Random`` instances supplied by the
caller, so every generated case is reproducible.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from churnscope import MarkerSpan, ThreadRecorder, TracingAllocator, begin_marker, end_marker

# Tokens below the bump allocator's start address; never returned by it.
_UNKNOWN_TOKENS = range(1, 0x400)

_SPAN_NAMES = ("alpha", "beta", "gamma", "delta")


def drive_random_ops(
    heap: TracingAllocator,
    rng: random.Random,
    n_ops: int,
    allow_anomalies: bool = True,
) -> None:
    """Apply n_ops random calls through the tracing surface."""
    live: list[int] = []
    for _ in range(n_ops):
        roll = rng.random()
        if live and roll < 0.30:
            heap.free(live.pop(rng.randrange(len(live))))
        elif live and roll < 0.45:
            new = heap.realloc(live.pop(rng.randrange(len(live))), _size(rng))
            if new is not None:
                live.append(new)
        elif allow_anomalies and roll < 0.50:
            if rng.random() < 0.5:
                heap.free(rng.choice(_UNKNOWN_TOKENS))
            else:
                new = heap.realloc(rng.choice(_UNKNOWN_TOKENS), _size(rng))
                if new is not None:
                    live.append(new)
        elif roll < 0.75:
            tok = heap.malloc(_size(rng))
            if tok is not None:
                live.append(tok)
        else:
            tok = heap.calloc(rng.randrange(0, 12), rng.randrange(1, 64))
            if tok is not None:
                live.append(tok)
    for tok in live:
        heap.free(tok)


class DrivenSpan(NamedTuple):
    """A span ``drive_with_spans`` opened, with the ``seq`` read at its begin
    and end markers: the span covers the calls numbered [begin_seq, end_seq)."""

    span: MarkerSpan
    begin_seq: int
    end_seq: int


def drive_with_spans(
    rec: ThreadRecorder,
    heap: TracingAllocator,
    rng: random.Random,
    n_ops: int,
    allow_anomalies: bool = True,
) -> list[DrivenSpan]:
    """Random calls with randomly placed, possibly overlapping spans.

    Spans open and close at arbitrary points and the span being closed is
    picked at random among the open ones, so nesting, partial overlap, and
    zero-width spans all occur. Returns every span, all closed, in begin
    order, each with the ``seq`` read (``rec.snapshot().seq``) at its two
    markers.
    """
    live: list[int] = []
    open_spans: list[MarkerSpan] = []
    begun: list[tuple[MarkerSpan, int]] = []
    ends: dict[str, int] = {}

    def close(span: MarkerSpan) -> None:
        ends[span.span_id] = rec.snapshot().seq
        end_marker(span)

    for _ in range(n_ops):
        marker_roll = rng.random()
        if marker_roll < 0.06 and len(open_spans) < 8:
            seq = rec.snapshot().seq
            span = begin_marker(rec, rng.choice(_SPAN_NAMES))
            open_spans.append(span)
            begun.append((span, seq))
        elif marker_roll < 0.10 and open_spans:
            close(open_spans.pop(rng.randrange(len(open_spans))))
        roll = rng.random()
        if live and roll < 0.30:
            heap.free(live.pop(rng.randrange(len(live))))
        elif live and roll < 0.45:
            new = heap.realloc(live.pop(rng.randrange(len(live))), _size(rng))
            if new is not None:
                live.append(new)
        elif allow_anomalies and roll < 0.50:
            heap.free(rng.choice(_UNKNOWN_TOKENS))
        else:
            tok = heap.malloc(_size(rng))
            if tok is not None:
                live.append(tok)
    for span in reversed(open_spans):
        close(span)
    for tok in live:
        heap.free(tok)
    return [DrivenSpan(span, seq, ends[span.span_id]) for span, seq in begun]


def _size(rng: random.Random) -> int:
    if rng.random() < 0.15:
        return rng.randrange(0, 4)  # degenerate sizes incl. zero
    return rng.randrange(4, 1 << rng.randrange(4, 20))
