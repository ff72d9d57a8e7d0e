"""Host-calibrated stage timing and in-memory span tracing for the benchmark.

Raw wall time does not repeat on a shared host: the same loop can take 50%
longer in one process than in the next. Every stage is therefore timed
beside a fixed, allocation-free pure-Python calibration loop, and reported
as ``raw * CALIBRATION_NOMINAL_S / calibration``: the stage's time on a host
where the loop takes its nominal time. Long stages are calibrated in
segments, split at span boundaries.
"""

from __future__ import annotations

import gc
import statistics
import time
from contextlib import contextmanager, nullcontext

from calibration import CALIBRATION_NOMINAL_S, calibrate


def calibrated(raw: float, calibration: float) -> float:
    return raw * CALIBRATION_NOMINAL_S / calibration


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# A stage is split at the first span boundary after this much time, and each
# piece is calibrated on its own: the host's speed changes within a stage of
# half a second, and one calibration at each end does not follow it.
SEGMENT_MIN_S = 0.05


class Clock:
    """Times stages, each between runs of the calibration loop.

    A stage timed with ``time`` may be given the clock as its tracer: at the
    end of a span, if at least ``SEGMENT_MIN_S`` have passed since the last
    calibration, the loop runs again there and the time since then is one
    segment. Each segment is calibrated by the mean of the loop times just
    before and just after it, and the stage's calibrated time is the sum of
    its segments'. Samples are kept per name: raw seconds, the time-weighted
    calibration of their segments, and calibrated seconds.
    """

    def __init__(self) -> None:
        self._last = calibrate()
        self._start: float | None = None
        self.raw: dict[str, list[float]] = {}
        self.cal: dict[str, list[float]] = {}

    def time(self, name: str, fn, *args):
        gc.collect()
        self._raw = self._calibrated = 0.0
        self._start = time.perf_counter()
        try:
            result = fn(*args)
            self._segment(time.perf_counter())
        finally:
            self._start = None
        self.add(name, self._raw, self._raw * CALIBRATION_NOMINAL_S / self._calibrated)
        return result

    def _segment(self, end: float) -> None:
        after = calibrate()
        raw = end - self._start
        self._raw += raw
        self._calibrated += calibrated(raw, (self._last + after) / 2)
        self._last = after
        self._start = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        yield
        if self._start is not None:
            now = time.perf_counter()
            if now - self._start >= SEGMENT_MIN_S:
                self._segment(now)

    def add(self, name: str, raw: float, calibration: float) -> None:
        """Record a sample timed elsewhere, such as in another process."""
        self.raw.setdefault(name, []).append(raw)
        self.cal.setdefault(name, []).append(calibration)

    def values(self, name: str) -> list[float]:
        return [calibrated(r, c) for r, c in zip(self.raw[name], self.cal[name])]

    def median(self, name: str) -> float:
        return statistics.median(self.values(name))

    def summary(self, name: str) -> dict:
        q1, med, q3 = quartiles(self.values(name))
        return {
            "n": len(self.raw[name]),
            "calibrated_s": {"q1": q1, "median": med, "q3": q3},
            "raw_median_s": statistics.median(self.raw[name]),
            "calibration_median_s": statistics.median(self.cal[name]),
        }


class NullTracer:
    """Stands in for ``Tracer`` in untimed and untraced passes."""

    _null = nullcontext()

    def span(self, name: str):
        return self._null


class Tracer:
    """Spans (name, start, end, parent, pass id) kept in memory.

    ``span`` nests: the parent is the innermost span open when it began.
    ``pass_id`` groups the spans of one traced pass and is set by the caller.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.pass_id = 0

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.pass_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def durations(self, pass_id: int) -> dict[str, float]:
        """Total raw seconds per span name within one pass."""
        out: dict[str, float] = {}
        for name, start, end, _, pid in self.spans:
            if pid == pass_id:
                out[name] = out.get(name, 0.0) + (end - start)
        return out

    def self_times(self) -> dict[str, float]:
        """Total raw self time per span name: duration minus child spans."""
        child: list[float] = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "pass": pid}
            for n, s, e, p, pid in self.spans
        ]
