"""Span costing from snapshot deltas, and merging results across threads."""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .cost_model import MICRO, AllocFnKind, CostModel
from .errors import ModelMismatchError, SpanStateError
from .markers import MarkerSpan

_MALLOC, _CALLOC, _REALLOC, _FREE = AllocFnKind.MALLOC, AllocFnKind.CALLOC, AllocFnKind.REALLOC, AllocFnKind.FREE


class MarkerChurn(NamedTuple):
    """Aggregated churn for one span, or for one phase merged across spans.

    ``cost_micro`` is the cost in whole micro-units; ``cost`` reads it in cost
    units. ``calls`` maps each call kind to its count and has no default, so
    no two records share one dict. Per-thread records carry ``thread_id`` and
    ``span_id``; merged records carry neither. ``overflow`` means the event
    ring evicted entries during the interval (counters stay exact
    regardless); ``auto_closed`` means the span was still open when its
    recorder sealed. A record is a named tuple: derive an edited copy with
    ``_replace``. A report writes each per-thread record as the document of
    its fields, and a verdict writes merged records that way; a report's
    merged records are computed from its parts, never written.
    """

    name: str
    cost_micro: int
    calls: dict[AllocFnKind, int]
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
    # tuple.__new__ skips the named tuple's Python-level __new__: all nine fields are given in order.
    return tuple.__new__(MarkerChurn, (
        span.name,
        (end.cost_nano - start.cost_nano + 500) // 1000,  # nano- to micro-units, ties up
        {
            _MALLOC: end.malloc_calls - start.malloc_calls,
            _CALLOC: end.calloc_calls - start.calloc_calls,
            _REALLOC: end.realloc_calls - start.realloc_calls,
            _FREE: end.free_calls - start.free_calls,
        },
        end.bytes_allocated - start.bytes_allocated,
        end.bytes_freed - start.bytes_freed,
        end.overflow_count > start.overflow_count,
        span.auto_closed, span.thread_id, span.span_id,
    ))


def merge_threads(parts: list[MarkerChurn]) -> MarkerChurn:
    """Merge same-named churn records into one phase total.

    Parts may come from different threads or from repeated spans on one
    thread; they are summed, not averaged, and since costs are integers the
    sum is exact in any order. Flags are OR'd; the merged record carries no
    thread attribution. The sum is ``merge_phases``'s one pass.
    """
    if not parts:
        raise ValueError("cannot merge an empty list of churn records")
    name = parts[0].name
    for part in parts:
        if part.name != name:
            raise ValueError(f"cannot merge {part.name!r} into {name!r}")
    return merge_phases(parts)[name]


def merge_phases(parts: Iterable[MarkerChurn]) -> dict[str, MarkerChurn]:
    """Sum per-span records into one merged record per name, in one pass.

    Each part is added field by field into its name's integer accumulators
    (cost, the four call counts, a missing kind counting 0, the two byte
    totals) and OR'd into its flags; no per-name lists are kept. The result
    is keyed in name order. It is a report's ``merged``: ``build_report``
    computes it on the run path and ``parse_report`` when a report is read.
    """
    sums: dict[str, list] = {}
    for name, cost, calls, allocated, freed, overflow, auto_closed, _, _ in parts:
        acc = sums.get(name)
        if acc is None:
            sums[name] = [cost, calls.get(_MALLOC, 0), calls.get(_CALLOC, 0), calls.get(_REALLOC, 0),
                          calls.get(_FREE, 0), allocated, freed, overflow, auto_closed]
        else:
            acc[0] += cost
            acc[1] += calls.get(_MALLOC, 0)
            acc[2] += calls.get(_CALLOC, 0)
            acc[3] += calls.get(_REALLOC, 0)
            acc[4] += calls.get(_FREE, 0)
            acc[5] += allocated
            acc[6] += freed
            acc[7] = acc[7] or overflow
            acc[8] = acc[8] or auto_closed
    merged = {}
    for name in sorted(sums):
        cost, malloc, calloc, realloc, free, allocated, freed, overflow, auto_closed = sums[name]
        calls = {_MALLOC: malloc, _CALLOC: calloc, _REALLOC: realloc, _FREE: free}
        merged[name] = tuple.__new__(MarkerChurn, (name, cost, calls, allocated, freed, overflow, auto_closed,
                                                   None, None))
    return merged
