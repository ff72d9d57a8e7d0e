"""Churn records, and merging them across spans and threads.

A span's record is built where the span closes (``markers``); this module
holds the record type, the check every string field passes, and the one
merge. It imports from churnscope only the cost model's call kinds and
units, so ``markers`` can import it.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Any, Iterable

from .cost_model import MICRO, AllocFnKind


def utf8_bytes(field: str, text: str) -> bytes:
    """``text`` in UTF-8. Raise ValueError naming ``field`` if it has no UTF-8
    form (it holds a lone surrogate), so a report that holds it could not be
    written."""
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValueError(f"{field} {text!r} is not valid Unicode ({exc.reason} at position {exc.start})") from None


_ChurnFields = namedtuple(
    "_ChurnFields",
    ("name", "cost_micro", "malloc_calls", "calloc_calls", "realloc_calls", "free_calls", "bytes_allocated",
     "bytes_freed", "overflow", "auto_closed", "thread_id", "span_id"),
    defaults=(0, 0, 0, 0, 0, 0, False, False, None, None),
)


# The exact types each field takes, in field order: a bool is not an int here.
_ID_TYPES = (str, type(None))
_FIELD_TYPES = ((str,), *((int,),) * 7, (bool,), (bool,), _ID_TYPES, _ID_TYPES)


class MarkerChurn(_ChurnFields):
    """Aggregated churn for one span, or for one phase merged across spans.

    ``cost_micro`` is the cost in whole micro-units; ``cost`` reads it in cost
    units. The four call counts are int fields in ``CounterSnapshot`` order,
    each 0 unless given; ``calls`` reads them as a dict keyed by call kind,
    and ``total_calls`` is their sum. Per-thread records carry ``thread_id``
    and ``span_id``; merged records carry neither. ``overflow`` means the
    event ring evicted entries during the interval (counters stay exact
    regardless); ``auto_closed`` means the span was still open when its
    recorder sealed. A record is an immutable, hashable named tuple: derive
    an edited copy with ``_replace``. Every way of building one, ``_replace``
    and ``_make`` included, checks each field's exact type: ``name`` a str,
    the cost, counts and byte totals ints, the two flags bools and each id a
    str or None, and each str with a UTF-8 form (``utf8_bytes``),
    else ``ValueError`` names the field; so the writers can trust the types.
    Signs, and a cost with no calls, are left to the writers and readers.
    A report writes each per-thread record as the document of its fields,
    and a verdict writes merged records that way; a report's merged records
    are computed from its parts, never written.
    """

    __slots__ = ()

    name: str
    cost_micro: int
    malloc_calls: int
    calloc_calls: int
    realloc_calls: int
    free_calls: int
    bytes_allocated: int
    bytes_freed: int
    overflow: bool
    auto_closed: bool
    thread_id: str | None
    span_id: str | None

    def __new__(cls, *args: Any, **kwargs: Any) -> MarkerChurn:
        record = super().__new__(cls, *args, **kwargs)
        for field, value, types in zip(cls._fields, record, _FIELD_TYPES):
            if type(value) not in types:
                expected = " or ".join("None" if t is type(None) else t.__name__ for t in types)
                raise ValueError(f"MarkerChurn {field} must be {expected}, got {value!r}")
            if type(value) is str:
                utf8_bytes(f"MarkerChurn {field}", value)
        return record

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> MarkerChurn:
        return cls(*super()._make(iterable))

    @property
    def cost(self) -> float:
        return self.cost_micro / MICRO

    @property
    def calls(self) -> dict[AllocFnKind, int]:
        """The four call counts keyed by kind, as a new dict on each read."""
        return {AllocFnKind.MALLOC: self.malloc_calls, AllocFnKind.CALLOC: self.calloc_calls,
                AllocFnKind.REALLOC: self.realloc_calls, AllocFnKind.FREE: self.free_calls}

    @property
    def total_calls(self) -> int:
        return self.malloc_calls + self.calloc_calls + self.realloc_calls + self.free_calls


def merge_phases(parts: Iterable[MarkerChurn]) -> dict[str, MarkerChurn]:
    """Sum churn records into one merged record per name, in one pass.

    Parts may come from different threads, from repeated spans on one
    thread, or be merged records themselves; they are summed, not averaged.
    Each part is added field by field into its name's integer accumulators
    (cost, the four call counts, the two byte totals) and OR'd into its
    flags; no per-name lists are kept. Integer sums are exact, so the result
    is the same in any order and however the parts are grouped. A merged
    record carries no ``thread_id`` or ``span_id``. The result is keyed in
    name order, and empty for no parts. It is a report's ``merged``,
    computed on that view's first read: ``parse_report`` reads it to check
    the phases' costs, while ``build_report`` and ``serialize_report`` never
    do; ``churnscope run`` reads it for its table once the file is written.
    """
    sums: dict[str, list] = {}
    for name, cost, malloc, calloc, realloc, free, allocated, freed, overflow, auto_closed, _, _ in parts:
        acc = sums.get(name)
        if acc is None:
            sums[name] = [cost, malloc, calloc, realloc, free, allocated, freed, overflow, auto_closed]
        else:
            acc[0] += cost
            acc[1] += malloc
            acc[2] += calloc
            acc[3] += realloc
            acc[4] += free
            acc[5] += allocated
            acc[6] += freed
            acc[7] = acc[7] or overflow
            acc[8] = acc[8] or auto_closed
    # The accumulators are in field order, between the name and the absent ids.
    return {name: tuple.__new__(MarkerChurn, (name, *sums[name], None, None)) for name in sorted(sums)}
