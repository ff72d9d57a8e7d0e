"""Span costing from snapshot deltas, and merging results across threads."""

from __future__ import annotations

from dataclasses import dataclass, field

from .cost_model import MICRO, AllocFnKind, CostModel
from .errors import ModelMismatchError, SpanStateError
from .markers import MarkerSpan


@dataclass(frozen=True)
class MarkerChurn:
    """Aggregated churn for one span, or for one phase merged across spans.

    ``cost_micro`` is the cost in whole micro-units; ``cost`` reads it in cost
    units. Per-thread records carry ``thread_id`` and ``span_id``; merged
    records carry neither. ``overflow`` means the event ring evicted entries
    during the interval (counters stay exact regardless); ``auto_closed``
    means the span was still open when its recorder sealed.
    """

    name: str
    cost_micro: int
    calls: dict[AllocFnKind, int] = field(default_factory=dict)
    bytes_allocated: int = 0
    bytes_freed: int = 0
    overflow: bool = False
    auto_closed: bool = False
    thread_id: str | None = None
    span_id: str | None = None

    @property
    def cost(self) -> float:
        return self.cost_micro / MICRO

    @property
    def total_calls(self) -> int:
        return sum(self.calls.values())


def span_churn(span: MarkerSpan, model: CostModel) -> MarkerChurn:
    """Cost a closed span from its endpoint snapshots.

    The cost is the running total's delta in nano-units, the exact sum of the
    span's per-call costs, rounded half up to micro-units; so it depends
    only on the calls inside the span. ``model`` must be the model the events
    were recorded under; re-costing under a different model would need the
    event log, not the accumulator.
    """
    if not span.closed:
        raise SpanStateError(f"span {span.span_id!r} ({span.name!r}) is still open")
    session_model = span.recorder.model
    if model != session_model:
        raise ModelMismatchError(
            f"span {span.span_id!r} was recorded under model "
            f"{session_model.model_version!r}, not {model.model_version!r}"
        )
    start = span.start_snapshot
    end = span.end_snapshot
    return MarkerChurn(
        name=span.name,
        cost_micro=(end.cost_nano - start.cost_nano + 500) // 1000,  # nano- to micro-units, ties up
        calls={
            AllocFnKind.MALLOC: end.malloc_calls - start.malloc_calls,
            AllocFnKind.CALLOC: end.calloc_calls - start.calloc_calls,
            AllocFnKind.REALLOC: end.realloc_calls - start.realloc_calls,
            AllocFnKind.FREE: end.free_calls - start.free_calls,
        },
        bytes_allocated=end.bytes_allocated - start.bytes_allocated,
        bytes_freed=end.bytes_freed - start.bytes_freed,
        overflow=end.overflow_count > start.overflow_count,
        auto_closed=span.auto_closed,
        thread_id=span.thread_id,
        span_id=span.span_id,
    )


def merge_threads(parts: list[MarkerChurn]) -> MarkerChurn:
    """Merge same-named churn records into one phase total.

    Parts may come from different threads or from repeated spans on one
    thread; they are summed, not averaged, and since costs are integers the
    sum is exact in any order. Flags are OR'd; the merged record carries no
    thread attribution.
    """
    if not parts:
        raise ValueError("cannot merge an empty list of churn records")
    name = parts[0].name
    for part in parts[1:]:
        if part.name != name:
            raise ValueError(f"cannot merge {part.name!r} into {name!r}")
    cost_micro = 0
    calls = dict.fromkeys(AllocFnKind, 0)
    bytes_allocated = 0
    bytes_freed = 0
    overflow = False
    auto_closed = False
    for part in parts:
        cost_micro += part.cost_micro
        for kind, n in part.calls.items():
            calls[kind] += n
        bytes_allocated += part.bytes_allocated
        bytes_freed += part.bytes_freed
        overflow = overflow or part.overflow
        auto_closed = auto_closed or part.auto_closed
    return MarkerChurn(
        name=name,
        cost_micro=cost_micro,
        calls=calls,
        bytes_allocated=bytes_allocated,
        bytes_freed=bytes_freed,
        overflow=overflow,
        auto_closed=auto_closed,
    )


def merge_phases(parts: list[MarkerChurn]) -> dict[str, MarkerChurn]:
    """Group per-span records by name in one pass and merge each group.

    Each group keeps the order of ``parts``; the result is keyed in name
    order, the order a report lists its phases in.
    """
    by_name: dict[str, list[MarkerChurn]] = {}
    for part in parts:
        by_name.setdefault(part.name, []).append(part)
    return {name: merge_threads(by_name[name]) for name in sorted(by_name)}
