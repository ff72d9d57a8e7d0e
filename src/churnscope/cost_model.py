"""Weighted log-cost model for allocator calls.

Every churn figure in the system is a sum of per-call costs computed here:
a call of kind ``k`` touching ``b`` bytes costs ``weight(k) * log2(max(b, 1))``.
The max-with-1 rule keeps zero-byte calls (``malloc(0)``, freeing a null
token) at cost zero while still letting them count as calls.

Each call's cost is quantized once, when recorded, to integer nano-units
(``NANO`` per cost unit); span and phase costs are whole micro-units
(``MICRO``), a report's six decimals. So every sum of costs is exact.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from pathlib import Path
from types import MappingProxyType  # enum imports types, so this loads nothing new
from typing import Any, Iterable, Mapping

from .errors import CostModelError


class AllocFnKind(enum.Enum):
    """The four standard allocator entry points the toolkit measures."""

    MALLOC = "malloc"
    CALLOC = "calloc"
    REALLOC = "realloc"
    FREE = "free"


# A report writes every cost and weight with six decimals: a cost is whole micro-units.
COST_DECIMALS = 6
NANO, MICRO = 10**9, 10**COST_DECIMALS

DEFAULT_MODEL_VERSION = "paper-v1"

DEFAULT_WEIGHTS: Mapping[AllocFnKind, float] = MappingProxyType({
    AllocFnKind.CALLOC: 2.0,
    AllocFnKind.FREE: 1.0,
    AllocFnKind.MALLOC: 1.0,
    AllocFnKind.REALLOC: 3.0,
})

# Keys accepted in a cost-model override file, beside model_version.
_FILE_KEYS = {kind.value: kind for kind in AllocFnKind}


_CostModelFields = namedtuple("_CostModelFields", ("weights", "model_version"))


class CostModel(_CostModelFields):
    """Immutable per-kind weight table plus a version label.

    Reports embed the full descriptor (weights and version); two reports are
    only comparable when their descriptors are equal. Every way of building
    one, ``_replace`` and ``_make`` included, stores a fresh read-only
    mapping of float weights at the six decimals a report writes, so calls
    are charged under the weights the report states, and checks it: a
    weight for each of the four kinds and no other key, each an int or float
    (not a bool), finite, non-negative and small enough that a call's cost
    fits in nano-units, and a nonempty version. A model that fails raises
    ``CostModelError`` naming every fault. The default is the shipped model
    (``DEFAULT_WEIGHTS``, "paper-v1").
    """

    __slots__ = ()

    weights: Mapping[AllocFnKind, float]
    model_version: str

    def __new__(cls, weights: Mapping[AllocFnKind, float] = DEFAULT_WEIGHTS,
                model_version: str = DEFAULT_MODEL_VERSION) -> CostModel:
        violations = []
        try:
            given = weights.items()
        except AttributeError:
            violations.append(f"weights must map each kind to a weight, got {type(weights).__name__}")
        else:
            weights = dict(given)
            violations += [f"unknown weight key {key!r}" for key in weights if not isinstance(key, AllocFnKind)]
            for kind in AllocFnKind:
                w = weights.get(kind)
                if kind not in weights:
                    violations.append(f"missing weight for {kind.value}")
                    continue
                if type(w) is not float and type(w) is not int:  # a bool or a str is not a weight
                    violations.append(f"weight for {kind.value} is not a number: {w!r}")
                    continue
                try:
                    w = weights[kind] = round(float(w), COST_DECIMALS)
                except OverflowError:  # an int float() cannot hold
                    violations.append(f"weight for {kind.value} is too large: {w!r}")
                    continue
                if not math.isfinite(w):
                    violations.append(f"weight for {kind.value} is not finite: {w!r}")
                elif w < 0:
                    violations.append(f"weight for {kind.value} is negative: {w!r}")
                elif math.isinf(w * 64 * NANO):  # a call costs at most 63 * w
                    violations.append(f"weight for {kind.value} is too large: {w!r}")
        if not isinstance(model_version, str) or not model_version:
            violations.append("model_version must be a nonempty string")
        if violations:
            raise CostModelError("invalid cost model: " + "; ".join(violations))
        return super().__new__(cls, MappingProxyType(weights), model_version)

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> CostModel:
        return cls(*super()._make(iterable))

    def __reduce__(self) -> tuple[Any, ...]:
        # A mappingproxy does not pickle; rebuild from a plain copy of the weights.
        return type(self), (dict(self.weights), self.model_version)


def event_cost(model: CostModel, kind: AllocFnKind, nbytes: int) -> float:
    """Cost of one allocator call: ``weight(kind) * log2(max(nbytes, 1))``."""
    if nbytes < 0:
        raise ValueError(f"byte count must be nonnegative, got {nbytes}")
    if nbytes <= 1:
        return 0.0
    return model.weights[kind] * math.log2(nbytes)


def load_cost_model(path: str | Path) -> CostModel:
    """Load a cost model from a flat key/value override file.

    The format is one ``key = value`` pair per line with keys ``malloc``,
    ``calloc``, ``realloc``, ``free`` (decimal weights) and an optional
    ``model_version`` (defaults to "custom"). Blank lines and lines starting
    with ``#`` are ignored.
    """
    path = Path(path)
    weights: dict[AllocFnKind, float] = {}
    version = None
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CostModelError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key == "model_version":
            if not value:
                raise CostModelError(f"{path}:{lineno}: model_version must not be empty")
            if version is not None:
                raise CostModelError(f"{path}:{lineno}: duplicate model_version")
            version = value
        elif key in _FILE_KEYS:
            kind = _FILE_KEYS[key]
            if kind in weights:
                raise CostModelError(f"{path}:{lineno}: duplicate weight for {key}")
            try:
                weights[kind] = float(value)
            except ValueError:
                raise CostModelError(
                    f"{path}:{lineno}: weight for {key} is not a number: {value!r}"
                ) from None
        else:
            raise CostModelError(f"{path}:{lineno}: unknown key {key!r}")
    try:
        return CostModel(weights, version or "custom")
    except CostModelError as exc:
        raise CostModelError(f"{path}: {exc}") from None
