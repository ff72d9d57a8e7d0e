"""Builders for small, exactly-costed reports used across the test modules."""

from __future__ import annotations

import json
import re
from typing import Any

from churnscope import (
    AllocFnKind,
    BumpAllocator,
    ChurnReport,
    CostModel,
    CounterSnapshot,
    RecordingSession,
    TracingAllocator,
    marker,
)

# One malloc of 1024 bytes costs exactly 10.0 under the default model, so a
# phase built from n of them costs exactly 10n.
UNIT_COST = 10.0


def snapshot_calls(snap: CounterSnapshot) -> dict[AllocFnKind, int]:
    """A counter snapshot's per-kind call counts, keyed like ``MarkerChurn.calls``."""
    return {
        AllocFnKind.MALLOC: snap.malloc_calls,
        AllocFnKind.CALLOC: snap.calloc_calls,
        AllocFnKind.REALLOC: snap.realloc_calls,
        AllocFnKind.FREE: snap.free_calls,
    }


def calls_fields(calls: dict[AllocFnKind, int]) -> dict[str, int]:
    """``MarkerChurn``'s call-count keyword arguments, from counts keyed by kind."""
    return {f"{kind.value}_calls": n for kind, n in calls.items()}


def report_with_units(
    phase_units: dict[str, int],
    build_id: str = "b",
    created_at: str = "2026-01-01T00:00:00Z",
    model: CostModel | None = None,
) -> ChurnReport:
    """One phase per entry; each unit is a 1024-byte malloc inside the span.

    Blocks are freed outside any span, so phase costs are exact multiples of
    the unit cost and the live table still drains to empty.
    """
    session = RecordingSession(model, build_id=build_id, created_at=created_at)
    rec = session.recorder("main")
    heap = TracingAllocator(rec)
    for name in sorted(phase_units):
        tokens = []
        with marker(rec, name):
            for _ in range(phase_units[name]):
                tokens.append(heap.malloc(1024))
        for tok in tokens:
            heap.free(tok)
    session.seal_all()
    return session.build_report()


class CappedHeap(BumpAllocator):
    """A bump heap whose malloc, calloc and realloc fail, returning None,
    for any request over ``limit`` bytes. It keeps no state beyond the bump
    pointer, so a refused call leaves it unchanged."""

    def __init__(self, limit: int):
        super().__init__()
        self.limit = limit

    def _take(self, size: int) -> int | None:
        return None if size > self.limit else super()._take(size)


class Literal(str):
    """A JSON token that ``canonical_json`` writes verbatim. Read a document
    with ``json.loads(data, parse_float=Literal)`` to keep every cost and
    weight literal as written."""


def float_literal(value: float) -> str:
    """A float as a report writes it: six decimals, with -0 written as 0."""
    text = f"{value:.6f}"
    return "0.000000" if text == "-0.000000" else text


# Each literal is first held by a placeholder string that no test text holds
# (they draw no private-use characters), then written back in its place.
_PLACEHOLDER = re.compile('"\ue000([0-9]+)\ue000"')


def canonical_json(doc: Any) -> bytes:
    """``doc`` in the layout of a report or verdict file.

    That is ``json.dumps(indent=2, sort_keys=True, ensure_ascii=False)`` and a
    newline, UTF-8, with each float written by ``float_literal`` and each
    ``Literal`` verbatim. It is the tests' reference for the writers, and it
    lays out hand-edited documents so that they reach the readers' checks.
    """
    literals: list[str] = []

    def hold(value: Any) -> Any:
        if isinstance(value, float):
            value = Literal(float_literal(value))
        if isinstance(value, Literal):
            literals.append(value)
            return f"\ue000{len(literals) - 1}\ue000"
        if isinstance(value, dict):
            return {key: hold(item) for key, item in value.items()}
        if isinstance(value, list):
            return [hold(item) for item in value]
        return value

    text = json.dumps(hold(doc), indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    return _PLACEHOLDER.sub(lambda m: literals[int(m[1])], text).encode("utf-8")


def first_difference(a: bytes, b: bytes) -> int:
    """The first byte offset at which ``a`` and ``b`` differ."""
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
