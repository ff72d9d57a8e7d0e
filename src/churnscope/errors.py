"""Exception types shared across the package."""

from __future__ import annotations


class ChurnscopeError(Exception):
    """Base class for all churnscope errors."""


class CostModelError(ChurnscopeError):
    """A cost model is malformed or could not be loaded."""


class ModelMismatchError(ChurnscopeError):
    """Costs produced under different cost models were combined or compared."""


class ThreadAffinityError(ChurnscopeError):
    """A thread-confined object was mutated from the wrong thread."""


class RecorderSealedError(ChurnscopeError):
    """A sealed recorder was asked to record or open new spans."""


class RecorderStateError(ChurnscopeError):
    """Recorders were read in a state that does not permit it."""


class SpanStateError(ChurnscopeError):
    """A marker span was used outside its open/closed lifecycle."""


class ReportError(ChurnscopeError):
    """A report or verdict document failed to parse or validate.

    ``offset`` is the byte a byte-level fault names: where the document departs
    from its writer's template, or the start of a slot it misfills; else None.
    """

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset


class WorkloadError(ChurnscopeError):
    """A workload spec named an unknown workload or had invalid parameters."""
