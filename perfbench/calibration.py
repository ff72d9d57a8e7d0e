"""The calibration loop, kept apart so a fresh interpreter can time its own
set-up against it without importing anything else first."""

import time
from itertools import repeat

CALIBRATION_ITERS = 100_000
# On the reference host (Python 3.11.7, 2 vCPUs) the loop took 7-12 ms as
# the host's load varied; the nominal time is a fixed figure in that range,
# so calibrated seconds read close to raw seconds there.
CALIBRATION_NOMINAL_S = 0.010


class _Holder:
    __slots__ = ("step",)

    def __init__(self) -> None:
        self.step = 3


_TABLE = {i: (i * 7) & 31 for i in range(32)}
_HOLDER = _Holder()


def _step(holder: _Holder, table: dict, key: int) -> int:
    return table[key] + holder.step


def calibrate() -> float:
    """Run the calibration loop once and return its wall time in seconds.

    Each iteration is a Python function call, a dict lookup and a slot
    read, the kind of interpreter work churnscope's hot paths are made of.
    Every value is a cached small int, so the loop allocates nothing and
    its time follows only how fast this host runs the interpreter right now.
    """
    x = 0
    table, holder = _TABLE, _HOLDER
    t0 = time.perf_counter()
    for _ in repeat(None, CALIBRATION_ITERS):
        x = _step(holder, table, x) & 31
    return time.perf_counter() - t0
