"""Brute-force replay over raw event logs.

Walks every event from the start of a recorder's life, rebuilds block
attribution in its own shadow live table, and sums per-event costs directly,
each quantized to integer nano-units as the recorder's are. It shares nothing
with the snapshot-delta path it is used to check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from churnscope import AllocEvent, AllocFnKind, CostModel, MarkerChurn, event_cost


@dataclass
class ReplayResult:
    cost_nano: int = 0
    calls: dict[AllocFnKind, int] = field(
        default_factory=lambda: {kind: 0 for kind in AllocFnKind}
    )
    bytes_allocated: int = 0
    bytes_freed: int = 0

    @property
    def total_calls(self) -> int:
        return sum(self.calls.values())

    @property
    def cost_micro(self) -> int:
        """The nano-unit sum in whole micro-units, ties rounded up."""
        micro = Fraction(self.cost_nano, 1000)
        return int(micro) + (micro - int(micro) >= Fraction(1, 2))


def replay(
    events: list[AllocEvent],
    model: CostModel,
    start_seq: int = 0,
    end_seq: int | None = None,
) -> ReplayResult:
    """Replay the full log, accumulating only events with seq in [start, end).

    The shadow live table is always built from the whole log so that free
    and realloc attribution inside the window is correct even when blocks
    were allocated before the window opened.
    """
    live: dict[int, int] = {}
    out = ReplayResult()
    for ev in events:
        inside = ev.seq >= start_seq and (end_seq is None or ev.seq < end_seq)
        kind = ev.kind
        if kind is AllocFnKind.MALLOC or kind is AllocFnKind.CALLOC:
            nbytes = ev.nbytes
            if ev.addr is not None:
                live[ev.addr] = nbytes
            if inside:
                out.bytes_allocated += nbytes
        elif kind is AllocFnKind.FREE:
            nbytes = live.pop(ev.old_addr, 0) if ev.old_addr is not None else 0
            if inside:
                out.bytes_freed += nbytes
        else:
            nbytes = ev.nbytes
            freed = live.pop(ev.old_addr, 0) if ev.old_addr is not None else 0
            if ev.addr is not None:
                live[ev.addr] = nbytes
            if inside:
                out.bytes_allocated += nbytes
                out.bytes_freed += freed
        if inside:
            out.calls[kind] += 1
            out.cost_nano += round(event_cost(model, kind, nbytes) * 10**9)
    return out


def replay_record(
    events: list[AllocEvent],
    model: CostModel,
    span,
    start_seq: int,
    end_seq: int,
    ring_capacity: int,
    auto_closed: bool = False,
) -> MarkerChurn:
    """The record a span covering the calls numbered [start, end) should
    hold, from ``replay``. Its ``overflow`` holds when some call in the window
    evicted, a call numbered ``seq`` evicting iff ``seq >= ring_capacity``."""
    out = replay(events, model, start_seq, end_seq)
    return MarkerChurn(
        name=span.name,
        cost_micro=out.cost_micro,
        **{f"{kind.value}_calls": n for kind, n in out.calls.items()},
        bytes_allocated=out.bytes_allocated,
        bytes_freed=out.bytes_freed,
        overflow=any(seq >= ring_capacity for seq in range(start_seq, end_seq)),
        auto_closed=auto_closed,
        thread_id=span.thread_id,
        span_id=span.span_id,
    )
