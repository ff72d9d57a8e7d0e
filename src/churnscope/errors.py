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

    ``offset`` carries the byte offset of a syntax error, or of the first byte
    at which a document departs from its canonical form, when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset


class WorkloadError(ChurnscopeError):
    """A workload spec named an unknown workload or had invalid parameters."""
