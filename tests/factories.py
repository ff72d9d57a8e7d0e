"""Builders for small, exactly-costed reports used across the test modules."""

from __future__ import annotations

from churnscope import (
    AllocFnKind,
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
