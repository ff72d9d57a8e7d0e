"""Churn report files, build-to-build diffing, and regression ranking.

Reports serialize to a canonical JSON form, written by string templates:
the layout of ``json.dumps(indent=2, sort_keys=True, ensure_ascii=False)``,
with every non-integer number rendered as fixed-point with six decimals,
UTF-8, newline-terminated. Costs are integer micro-units, rendered and read
back exactly. Equal reports serialize to identical bytes on any platform,
which is what makes byte-level comparison of builds meaningful.
"""

from __future__ import annotations

import json
import math
import re
import sys
from decimal import Context, Decimal, Inexact
from typing import Any, Iterable, NamedTuple, NoReturn

from .aggregation import MarkerChurn, merge_phases
from .cost_model import COST_DECIMALS, MICRO, AllocFnKind, CostModel, validate_cost_model
from .errors import ModelMismatchError, ReportError

SCHEMA_VERSION = "1"

STATUS_REGRESSION = "regression"
STATUS_IMPROVEMENT = "improvement"
STATUS_NEUTRAL = "neutral"
STATUS_NEW_PHASE = "new_phase"
STATUS_REMOVED_PHASE = "removed_phase"

STATUSES = (
    STATUS_REGRESSION,
    STATUS_NEW_PHASE,
    STATUS_IMPROVEMENT,
    STATUS_NEUTRAL,
    STATUS_REMOVED_PHASE,
)

# Group order used by the ranking rule: regressions lead, removed phases trail.
_STATUS_RANK = {status: i for i, status in enumerate(STATUSES)}

DEFAULT_REL_THRESHOLD = 0.01
DEFAULT_ABS_FLOOR = 1.0

# (kind, document key) pairs: per-record loops skip Enum iteration and .value.
_KINDS = tuple((kind, kind.value) for kind in AllocFnKind)
_MALLOC, _CALLOC, _REALLOC, _FREE = AllocFnKind.MALLOC, AllocFnKind.CALLOC, AllocFnKind.REALLOC, AllocFnKind.FREE


def format_cost(micro: int) -> str:
    """Render an integer count of micro-units exactly, with six decimals."""
    whole, frac = divmod(abs(micro), MICRO)
    return f"{'-' if micro < 0 else ''}{whole}.{frac:06d}"


class _ThresholdFields(NamedTuple):
    rel: float
    abs_floor: float
    call_floor: int | None


class Thresholds(_ThresholdFields):
    """Regression gate configuration, recorded inside every verdict.

    ``rel`` is the relative cost-growth threshold. ``abs_floor`` handles
    phases whose baseline cost is zero: such a phase regresses when its
    candidate cost exceeds the floor, since a relative delta is undefined.
    ``call_floor``, when set, additionally flags phases whose total call
    count grew by more than the floor even if cost barely moved; it is off
    by default. Every way of building one, ``_replace`` and ``_make``
    included, checks and rounds the fields.
    """

    __slots__ = ()

    def __new__(cls, rel: float = DEFAULT_REL_THRESHOLD, abs_floor: float = DEFAULT_ABS_FLOOR,
                call_floor: int | None = None) -> Thresholds:
        # NaN fails every comparison in _classify, so an unchecked NaN (or
        # inf, or a negative floor) would silently disable the gate.
        for name, value in (("rel", rel), ("abs_floor", abs_floor)):
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if not number or not 0 <= value <= sys.float_info.max:
                raise ValueError(f"threshold {name} must be a finite number >= 0, got {value!r}")
        integer = isinstance(call_floor, int) and not isinstance(call_floor, bool)
        if call_floor is not None and (not integer or call_floor < 0):
            raise ValueError(f"threshold call_floor must be null or an integer >= 0, got {call_floor!r}")
        # Gate on the six decimals a verdict records, so parse_verdict can recompute it.
        return super().__new__(cls, round(rel, COST_DECIMALS), round(abs_floor, COST_DECIMALS), call_floor)

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> Thresholds:
        return cls(*super()._make(iterable))


class ReportTotals(NamedTuple):
    """Whole-run counters, including activity outside any span."""

    bytes_allocated: int = 0
    bytes_freed: int = 0
    live_blocks: int = 0
    live_bytes: int = 0
    anomaly_count: int = 0
    overflow_count: int = 0


class ChurnReport(NamedTuple):
    """Canonical per-build artifact: merged phases plus per-thread parts."""

    build_id: str
    created_at: str
    model: CostModel
    merged: dict[str, MarkerChurn]
    per_thread: list[MarkerChurn]
    totals: ReportTotals


class ChurnDelta(NamedTuple):
    """One phase's baseline-to-candidate comparison.

    ``cost_delta_micro`` is candidate minus baseline cost in micro-units.
    ``cost_delta_rel`` is candidate/baseline - 1 and is None when the phase
    has no baseline cost to compare against (zero-cost baseline, new phase)
    or no candidate (removed phase). A delta is a named tuple: derive an
    edited copy with ``_replace``.
    """

    phase: str
    status: str
    baseline: MarkerChurn | None
    candidate: MarkerChurn | None
    cost_delta_micro: int
    cost_delta_rel: float | None
    call_delta: dict[AllocFnKind, int]
    bytes_allocated_delta: int
    bytes_freed_delta: int

    @property
    def byte_delta_magnitude(self) -> int:
        return abs(self.bytes_allocated_delta) + abs(self.bytes_freed_delta)


class RegressionVerdict:
    """Diff outcome: thresholds used, ranked deltas, and the overall gate. Unlike the
    named tuples it is mutable: ``deltas`` may be reassigned."""

    __slots__ = ("thresholds", "deltas")

    def __init__(self, thresholds: Thresholds, deltas: list[ChurnDelta]) -> None:
        self.thresholds = thresholds
        self.deltas = deltas

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.thresholds, self.deltas) == (other.thresholds, other.deltas)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(thresholds={self.thresholds!r}, deltas={self.deltas!r})"

    @property
    def regression_detected(self) -> bool:
        return any(d.status == STATUS_REGRESSION for d in self.deltas)


# ---------------------------------------------------------------------------
# canonical writer


# The C function that json.dumps(s, ensure_ascii=False) ends in: same bytes, no encoder object.
_quote = json.encoder.encode_basestring


def _churn_text(r: MarkerChurn, nl: str) -> str:
    """A record as one string.

    The bytes are those ``json.dumps(indent=2, sort_keys=True,
    ensure_ascii=False)`` gives for the document of the record's fields, with
    the cost as a six-decimal literal; the document holds ``thread_id`` and
    ``span_id`` unless both are None (a merged record). Field types are
    trusted, not checked.
    """
    i = nl + "  "
    j = i + "  "
    c = r.calls
    ids = ""
    if r.thread_id is not None or r.span_id is not None:
        span_id = "null" if r.span_id is None else _quote(r.span_id)
        thread_id = "null" if r.thread_id is None else _quote(r.thread_id)
        ids = f',{i}"span_id": {span_id},{i}"thread_id": {thread_id}'
    return (
        f'{{{i}"auto_closed": {"true" if r.auto_closed else "false"},{i}"bytes_allocated": {r.bytes_allocated},'
        f'{i}"bytes_freed": {r.bytes_freed},{i}"calls": {{{j}"calloc": {c.get(_CALLOC, 0)},'
        f'{j}"free": {c.get(_FREE, 0)},{j}"malloc": {c.get(_MALLOC, 0)},{j}"realloc": {c.get(_REALLOC, 0)}{i}}},'
        f'{i}"cost": {format_cost(r.cost_micro)},{i}"name": {_quote(r.name)},'
        f'{i}"overflow": {"true" if r.overflow else "false"}{ids}{nl}}}'
    )


def _delta_text(d: ChurnDelta, nl: str) -> str:
    """A verdict row as one string, each side's record by ``_churn_text``.

    The bytes are those ``json.dumps`` gives, as for a record, for the row's
    document: ``baseline`` and ``candidate`` (a record or null), ``phase``,
    ``status``, ``cost_delta_abs`` as a cost literal, ``cost_delta_rel``
    (null or a six-decimal literal), ``call_delta`` keyed by kind name, and
    the two byte deltas. Field types are trusted, not checked; ``call_delta``
    holds every kind.
    """
    i = nl + "  "
    j = i + "  "
    c = d.call_delta
    base, cand, rel = d.baseline, d.candidate, d.cost_delta_rel
    return (
        f'{{{i}"baseline": {"null" if base is None else _churn_text(base, i)},'
        f'{i}"bytes_allocated_delta": {d.bytes_allocated_delta},{i}"bytes_freed_delta": {d.bytes_freed_delta},'
        f'{i}"call_delta": {{{j}"calloc": {c[_CALLOC]},{j}"free": {c[_FREE]},'
        f'{j}"malloc": {c[_MALLOC]},{j}"realloc": {c[_REALLOC]}{i}}},'
        f'{i}"candidate": {"null" if cand is None else _churn_text(cand, i)},'
        f'{i}"cost_delta_abs": {format_cost(d.cost_delta_micro)},'
        f'{i}"cost_delta_rel": {"null" if rel is None else _fixed(float(rel))},'
        f'{i}"phase": {_quote(d.phase)},{i}"status": {_quote(d.status)}{nl}}}'
    )


def _fixed(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite number {value!r}")
    value = round(value, COST_DECIMALS)
    return f"{value if value else 0.0:.6f}"  # 0.0 normalizes -0.0


def _append_container(out: list[str], brackets: str, texts: list[str], nl: str) -> None:
    """Append an object or array (``brackets`` is ``"{}"`` or ``"[]"``) of the
    member ``texts`` as ``json.dumps(indent=2)`` lays it out at line start ``nl``."""
    if not texts:
        out.append(brackets)
        return
    sep = brackets[0] + nl + "  "
    for text in texts:
        out += sep, text
        sep = "," + nl + "  "
    out.append(nl + brackets[1])


def serialize_report(report: ChurnReport) -> bytes:
    """Canonical bytes for a report; equal reports yield identical bytes.

    Its fields in sorted-key order, phases under their sorted keys, as parts
    joined once. Field types are trusted; a non-finite weight raises ValueError.
    """
    model, t, merged = report.model, report.totals, report.merged
    out = [
        f'{{\n  "build_id": {_quote(report.build_id)},\n  "cost_model": {{'
        f'\n    "model_version": {_quote(model.model_version)},\n    "weights": '
    ]
    weights = sorted((kind.value, w) for kind, w in model.weights.items())
    _append_container(out, "{}", [f"{_quote(key)}: {_fixed(w)}" for key, w in weights], "\n    ")
    out.append(
        f'\n  }},\n  "counters": {{\n    "anomaly_count": {t.anomaly_count},'
        f'\n    "bytes_allocated": {t.bytes_allocated},\n    "bytes_freed": {t.bytes_freed},'
        f'\n    "live_blocks": {t.live_blocks},\n    "live_bytes": {t.live_bytes},'
        f'\n    "overflow_count": {t.overflow_count}\n  }},'
        f'\n  "created_at": {_quote(report.created_at)},\n  "phases": '
    )
    phases = [_quote(name) + ": " + _churn_text(merged[name], "\n    ") for name in sorted(merged)]
    _append_container(out, "{}", phases, "\n  ")
    out.append(f',\n  "schema_version": {_quote(SCHEMA_VERSION)},\n  "threads": ')
    _append_container(out, "[]", [_churn_text(r, "\n    ") for r in report.per_thread], "\n  ")
    out.append("\n}\n")
    text = "".join(out)
    del out  # drop the parts before the bytes are made: one copy of the document less at peak
    return text.encode("utf-8")


# ---------------------------------------------------------------------------
# parsing and validation


def _reject_duplicate_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    doc = dict(pairs)
    if len(doc) != len(pairs):  # a key repeats: name the first repeat
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ReportError(f"duplicate key {key!r} in document")
            seen.add(key)
    return doc


def _reject_constant(name: str) -> Any:
    raise ReportError(f"non-finite number literal {name} is not allowed")


# An escape in the surrogate range can decode to a lone surrogate, which UTF-8 cannot encode.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _reject_lone_surrogates(doc: Any, what: str) -> None:
    """Raise ReportError if a key or string in ``doc`` cannot be written back as UTF-8."""
    stack = [doc]
    while stack:
        value = stack.pop()
        if isinstance(value, str):
            try:
                value.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise ReportError(f"{what} holds a string that is not valid Unicode: {exc}") from None
        elif isinstance(value, dict):
            stack.extend(value)
            stack.extend(value.values())
        elif isinstance(value, list):
            stack.extend(value)


def _load_json(data: bytes | str, what: str) -> Any:
    # Decoded UTF-8 holds no surrogates, so only an escape can add one; a str may hold them raw.
    raw_text = isinstance(data, str)
    if not raw_text:
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ReportError(f"{what} is not valid UTF-8: {exc}") from None
    try:
        doc = json.loads(
            data, object_pairs_hook=_reject_duplicate_keys, parse_constant=_reject_constant, parse_float=Decimal
        )
    except json.JSONDecodeError as exc:
        raise ReportError(f"{what} syntax error at offset {exc.pos}: {exc.msg}", offset=exc.pos) from None
    except RecursionError:
        raise ReportError(f"{what} is nested too deeply") from None
    except (ValueError, ArithmeticError) as exc:
        # e.g. an integer literal past the int conversion limit, or an exponent past Decimal's
        raise ReportError(f"{what} has an invalid value: {exc}") from None
    if _SURROGATE_ESCAPE.search(data) or (raw_text and not data.isascii()):
        _reject_lone_surrogates(doc, what)
    return doc


def _expect(doc: dict[str, Any], key: str, types: type | tuple, what: str) -> Any:
    if key not in doc:
        raise ReportError(f"{what} is missing required field {key!r}")
    value = doc[key]
    # bool is an int subclass; only accept it where bool was asked for.
    if not isinstance(value, types) or (isinstance(value, bool) and types is not bool):
        raise ReportError(f"{what} field {key!r} has the wrong type")
    return value


def _expect_float(doc: dict[str, Any], key: str, what: str) -> float:
    # Via Decimal, a number too large for a float reads as inf (rejected by the caller).
    return float(Decimal(_expect(doc, key, (int, Decimal), what)))


_MAX_MICRO = int(sys.float_info.max) * MICRO
# Exact up to _MAX_MICRO: a literal needing rounding (too many digits or too large) raises Inexact.
_EXACT = Context(prec=400, Emax=400, traps=[Inexact])


def _expect_micro(doc: dict[str, Any], key: str, what: str) -> int:
    """Read a cost literal back to its exact integer count of micro-units."""
    try:
        scaled = _EXACT.scaleb(_expect(doc, key, (int, Decimal), what), COST_DECIMALS)
        micro = int(scaled)
    except Inexact:
        micro = scaled = None
    if micro is not None and micro == scaled and -_MAX_MICRO <= micro <= _MAX_MICRO:
        return micro
    raise ReportError(f"{what} field {key!r} is out of range or not a whole number of micro-units")


# The fields each object may hold; the schema allows no others. Record fields
# come with the types _expect accepts, in the order _reject_record checks them.
_REPORT_KEYS = frozenset(("schema_version", "build_id", "created_at", "cost_model", "phases", "threads", "counters"))
_MODEL_KEYS = frozenset(("model_version", "weights"))
_COUNTER_KEYS = frozenset(ReportTotals._fields)
_MERGED_FIELDS = (("name", str), ("cost", (int, Decimal)), ("calls", dict), ("bytes_allocated", int),
                  ("bytes_freed", int), ("overflow", bool), ("auto_closed", bool))
_THREAD_FIELDS = _MERGED_FIELDS + (("thread_id", str), ("span_id", str))
_MERGED_KEYS = frozenset(key for key, _ in _MERGED_FIELDS)
_THREAD_KEYS = frozenset(key for key, _ in _THREAD_FIELDS)
_CALL_KEYS = frozenset(key for _, key in _KINDS)


def _reject_unknown(doc: dict[str, Any], known: frozenset[str], what: str) -> None:
    unknown = doc.keys() - known
    if unknown:
        raise ReportError(f"{what} has unknown field {min(unknown)!r}")


def _parse_model(doc: Any) -> CostModel:
    if not isinstance(doc, dict):
        raise ReportError("cost_model must be an object")
    version = _expect(doc, "model_version", str, "cost_model")
    weights_doc = _expect(doc, "weights", dict, "cost_model")
    _reject_unknown(doc, _MODEL_KEYS, "cost_model")
    weights: dict[AllocFnKind, float] = {}
    for key in weights_doc:
        try:
            kind = AllocFnKind(key)
        except ValueError:
            raise ReportError(f"cost_model has unknown weight key {key!r}") from None
        weights[kind] = _expect_float(weights_doc, key, "cost_model weights")
    model = CostModel(weights, version)
    violations = validate_cost_model(model)
    if violations:
        raise ReportError("invalid cost_model: " + "; ".join(violations))
    return model


def _reject_record(doc: dict[str, Any], what: str, with_thread: bool) -> NoReturn:
    """Raise the error naming the first fault of a record that ``_parse_churn`` turned down."""
    if not with_thread and ("thread_id" in doc or "span_id" in doc):
        raise ReportError(f"{what} is merged and must not carry thread attribution")
    for key, types in _THREAD_FIELDS if with_thread else _MERGED_FIELDS:
        _expect(doc, key, types, what)
    _reject_unknown(doc, _THREAD_KEYS if with_thread else _MERGED_KEYS, what)
    calls = doc["calls"]
    for _, key in _KINDS:
        if _expect(calls, key, int, f"{what} calls") < 0:
            raise ReportError(f"{what} has negative {key} count")
    if len(calls) != len(_KINDS):
        raise ReportError(f"{what} calls has unknown kinds {sorted(calls.keys() - _CALL_KEYS)!r}")
    raise ReportError(f"{what} has negative byte totals")


def _parse_churn(doc: Any, what: str, with_thread: bool) -> MarkerChurn:
    """Check a record in one pass, then build it.

    The key sets are compared once; every field's exact type and every sign
    are checked in one condition (JSON gives exact int, bool, str, dict and
    Decimal values, so a bool never passes for an int). Only a record that
    fails is looked at again, by ``_reject_record``, to name its fault.
    """
    if type(doc) is not dict:
        raise ReportError(f"{what} must be an object")
    calls = doc.get("calls")
    if doc.keys() != (_THREAD_KEYS if with_thread else _MERGED_KEYS) or type(calls) is not dict \
            or calls.keys() != _CALL_KEYS:
        _reject_record(doc, what, with_thread)
    name, bytes_allocated, bytes_freed = doc["name"], doc["bytes_allocated"], doc["bytes_freed"]
    malloc, calloc, realloc, free = calls["malloc"], calls["calloc"], calls["realloc"], calls["free"]
    overflow, auto_closed = doc["overflow"], doc["auto_closed"]
    thread_id, span_id = (doc["thread_id"], doc["span_id"]) if with_thread else (None, None)
    if not (
        type(name) is str and type(malloc) is int and type(calloc) is int and type(realloc) is int
        and type(free) is int and type(bytes_allocated) is int and type(bytes_freed) is int
        and type(overflow) is bool and type(auto_closed) is bool
        and (not with_thread or (type(thread_id) is str and type(span_id) is str))
        and malloc >= 0 and calloc >= 0 and realloc >= 0 and free >= 0
        and bytes_allocated >= 0 and bytes_freed >= 0
    ):
        _reject_record(doc, what, with_thread)
    cost_micro = _expect_micro(doc, "cost", what)
    if cost_micro < 0:
        raise ReportError(f"{what} has negative cost")
    if cost_micro and not (malloc or calloc or realloc or free):
        raise ReportError(f"{what} has zero calls but nonzero cost")
    calls = {_MALLOC: malloc, _CALLOC: calloc, _REALLOC: realloc, _FREE: free}
    return MarkerChurn(name, cost_micro, calls, bytes_allocated, bytes_freed, overflow, auto_closed, thread_id, span_id)


def parse_report(data: bytes | str) -> ChurnReport:
    """Parse and validate a report document.

    Raises ReportError naming the first violated rule: syntax (with offset),
    unknown schema version, negative counters, or merged records that do not
    equal the sum of their per-thread parts.
    """
    doc = _load_json(data, "report")
    if not isinstance(doc, dict):
        raise ReportError("report must be a JSON object")
    version = _expect(doc, "schema_version", str, "report")
    if version != SCHEMA_VERSION:
        raise ReportError(f"unknown schema_version {version!r} (expected {SCHEMA_VERSION!r})")
    _reject_unknown(doc, _REPORT_KEYS, "report")
    build_id = _expect(doc, "build_id", str, "report")
    created_at = _expect(doc, "created_at", str, "report")
    model = _parse_model(_expect(doc, "cost_model", dict, "report"))

    phases_doc = _expect(doc, "phases", dict, "report")
    merged: dict[str, MarkerChurn] = {}
    for name, record_doc in phases_doc.items():
        record = _parse_churn(record_doc, f"phase {name!r}", with_thread=False)
        if record.name != name:
            raise ReportError(f"phase key {name!r} does not match record name {record.name!r}")
        merged[name] = record

    threads_doc = _expect(doc, "threads", list, "report")
    per_thread: list[MarkerChurn] = []
    span_ids: set[str] = set()
    for i, item in enumerate(threads_doc):
        record = _parse_churn(item, f"threads[{i}]", with_thread=True)
        if record.span_id in span_ids:
            raise ReportError(f"threads[{i}] repeats span_id {record.span_id!r}")
        span_ids.add(record.span_id)
        per_thread.append(record)

    counters_doc = _expect(doc, "counters", dict, "report")
    totals = ReportTotals(*(_expect(counters_doc, key, int, "counters") for key in ReportTotals._fields))
    _reject_unknown(counters_doc, _COUNTER_KEYS, "counters")
    for fname, value in totals._asdict().items():
        if value < 0:
            raise ReportError(f"counters field {fname!r} is negative")

    _check_merge_consistency(merged, per_thread)
    return ChurnReport(
        build_id=build_id,
        created_at=created_at,
        model=model,
        merged=merged,
        per_thread=per_thread,
        totals=totals,
    )


def _check_merge_consistency(merged: dict[str, MarkerChurn], per_thread: list[MarkerChurn]) -> None:
    """Raise ReportError unless each phase is the sum of its per-thread parts.

    Equal records pass in one comparison; only a mismatch is looked at field
    by field, to name the fault.
    """
    summed = merge_phases(per_thread)
    if summed == merged:
        return
    if summed.keys() != merged.keys():
        missing = set(merged) ^ set(summed)
        raise ReportError(
            "phases and per-thread records disagree on phase names: "
            + ", ".join(sorted(repr(n) for n in missing))
        )
    for name, got in summed.items():
        want = merged[name]
        if got.calls != want.calls:
            raise ReportError(f"merge-consistency failure for {name!r}: call counts differ")
        if (got.bytes_allocated, got.bytes_freed) != (want.bytes_allocated, want.bytes_freed):
            raise ReportError(f"merge-consistency failure for {name!r}: byte totals differ")
        if (got.overflow, got.auto_closed) != (want.overflow, want.auto_closed):
            raise ReportError(f"merge-consistency failure for {name!r}: flags differ")
        if got.cost_micro != want.cost_micro:
            raise ReportError(f"merge-consistency failure for {name!r}: cost is not the sum of parts")


# ---------------------------------------------------------------------------
# diffing


def _classify(base: int, cand: int, call_delta_total: int, th: Thresholds) -> str:
    # Costs are micro-units. Regression and improvement use mirrored tests
    # (roles swapped), so diff(A, B) regressions are exactly diff(B, A)
    # improvements.
    if base > 0 and cand / base - 1 > th.rel:
        return STATUS_REGRESSION
    if base == 0 and cand / MICRO > th.abs_floor:
        return STATUS_REGRESSION
    if cand > 0 and base / cand - 1 > th.rel:
        return STATUS_IMPROVEMENT
    if cand == 0 and base / MICRO > th.abs_floor:
        return STATUS_IMPROVEMENT
    if th.call_floor is not None:
        if call_delta_total > th.call_floor:
            return STATUS_REGRESSION
        if call_delta_total < -th.call_floor:
            return STATUS_IMPROVEMENT
    return STATUS_NEUTRAL


def _compare(phase: str, base: MarkerChurn | None, cand: MarkerChurn | None, th: Thresholds) -> ChurnDelta:
    """One phase's delta; a missing record makes it a new or removed phase."""
    base_cost = base.cost_micro if base else 0
    cand_cost = cand.cost_micro if cand else 0
    call_delta = {
        kind: (cand.calls[kind] if cand else 0) - (base.calls[kind] if base else 0) for kind, _ in _KINDS
    }
    rel = None
    if base is None:
        status = STATUS_NEW_PHASE
    elif cand is None:
        status = STATUS_REMOVED_PHASE
    else:
        status = _classify(base_cost, cand_cost, sum(call_delta.values()), th)
        rel = cand_cost / base_cost - 1 if base_cost > 0 else None
    return ChurnDelta(
        phase, status, base, cand, cand_cost - base_cost, rel, call_delta,
        (cand.bytes_allocated if cand else 0) - (base.bytes_allocated if base else 0),
        (cand.bytes_freed if cand else 0) - (base.bytes_freed if base else 0),
    )


def diff_reports(
    baseline: ChurnReport,
    candidate: ChurnReport,
    thresholds: Thresholds | None = None,
) -> RegressionVerdict:
    """Compare two reports phase by phase and rank the outcome.

    The reports must share a cost-model descriptor (weights and version);
    costs computed under different models are not comparable. Phases present
    on only one side become new_phase or removed_phase entries.
    """
    th = thresholds or Thresholds()
    if baseline.model != candidate.model:
        raise ModelMismatchError(
            f"cost models differ: baseline {baseline.model.model_version!r} "
            f"vs candidate {candidate.model.model_version!r}"
        )
    deltas = [
        _compare(phase, baseline.merged.get(phase), candidate.merged.get(phase), th)
        for phase in sorted(set(baseline.merged) | set(candidate.merged))
    ]
    verdict = RegressionVerdict(thresholds=th, deltas=deltas)
    verdict.deltas = rank_regressions(verdict)
    return verdict


# ---------------------------------------------------------------------------
# ranking


def _severity(delta: ChurnDelta, by: str) -> float | int:
    """Primary ranking key within a status group, larger means earlier.

    Regressions, improvements and neutrals rank on the relative cost delta
    (``by="abs"`` switches to the absolute delta); an undefined relative
    delta counts as infinite, putting growth from a zero-cost baseline
    first. New and removed phases rank on the cost of the side that exists.
    """
    if delta.status == STATUS_NEW_PHASE:
        return delta.candidate.cost_micro if delta.candidate else 0
    if delta.status == STATUS_REMOVED_PHASE:
        return delta.baseline.cost_micro if delta.baseline else 0
    if by == "abs":
        return delta.cost_delta_micro
    return delta.cost_delta_rel if delta.cost_delta_rel is not None else math.inf


def rank_regressions(
    verdict: RegressionVerdict,
    tie_break: str = "bytes",
    by: str = "rel",
) -> list[ChurnDelta]:
    """Order deltas for investigation; statuses are never changed.

    Groups come in the fixed order regression, new_phase, improvement,
    neutral, removed_phase. Within a group the keys are descending severity
    (see ``_severity``), then descending total byte-delta magnitude, then
    phase name; ``tie_break="name"`` swaps the last two keys.
    """
    if tie_break not in ("bytes", "name"):
        raise ValueError(f"unknown tie_break {tie_break!r}")
    if by not in ("rel", "abs"):
        raise ValueError(f"unknown ranking key {by!r}")

    def key(delta: ChurnDelta):
        severity = _severity(delta, by)
        if tie_break == "name":
            return (_STATUS_RANK[delta.status], -severity, delta.phase, -delta.byte_delta_magnitude)
        return (_STATUS_RANK[delta.status], -severity, -delta.byte_delta_magnitude, delta.phase)

    return sorted(verdict.deltas, key=key)


# ---------------------------------------------------------------------------
# verdict documents


def serialize_verdict(verdict: RegressionVerdict) -> bytes:
    """Canonical bytes for a verdict, written as ``serialize_report`` writes a
    report; a non-finite ``cost_delta_rel`` raises ValueError."""
    th = verdict.thresholds
    out = ['{\n  "deltas": ']
    _append_container(out, "[]", [_delta_text(d, "\n    ") for d in verdict.deltas], "\n  ")
    call_floor = "null" if th.call_floor is None else th.call_floor
    out.append(
        f',\n  "regression_detected": {"true" if verdict.regression_detected else "false"},'
        f'\n  "schema_version": {_quote(SCHEMA_VERSION)},'
        f'\n  "thresholds": {{\n    "abs_floor": {_fixed(float(th.abs_floor))},'
        f'\n    "call_floor": {call_floor},\n    "rel": {_fixed(float(th.rel))}\n  }}\n}}\n'
    )
    text = "".join(out)
    del out  # drop the parts before the bytes are made: one copy of the document less at peak
    return text.encode("utf-8")


def parse_verdict(data: bytes | str) -> RegressionVerdict:
    """Parse and validate a verdict document produced by ``diff --format json``.

    Only the thresholds and each delta's records are read; every status and
    delta is recomputed from them, and the document must be the recomputed
    verdict, so a hand-edited status, delta or flag raises ReportError.
    Input bytes equal to the canonical form need no further comparison.
    """
    doc = _load_json(data, "verdict")
    if not isinstance(doc, dict):
        raise ReportError("verdict must be a JSON object")
    version = _expect(doc, "schema_version", str, "verdict")
    if version != SCHEMA_VERSION:
        raise ReportError(f"unknown schema_version {version!r} (expected {SCHEMA_VERSION!r})")
    th_doc = _expect(doc, "thresholds", dict, "verdict")
    rel = _expect_float(th_doc, "rel", "thresholds")
    abs_floor = _expect_float(th_doc, "abs_floor", "thresholds")
    try:
        thresholds = Thresholds(rel=rel, abs_floor=abs_floor, call_floor=th_doc.get("call_floor"))
    except ValueError as exc:
        raise ReportError(f"verdict has invalid thresholds: {exc}") from None
    flag = _expect(doc, "regression_detected", bool, "verdict")
    deltas_doc = _expect(doc, "deltas", list, "verdict")
    deltas: list[ChurnDelta] = []
    phases: set[str] = set()
    for i, item in enumerate(deltas_doc):
        what = f"deltas[{i}]"
        if not isinstance(item, dict):
            raise ReportError(f"{what} must be an object")
        phase = _expect(item, "phase", str, what)
        if phase in phases:
            raise ReportError(f"{what} repeats phase {phase!r}")
        phases.add(phase)
        records = []
        for side in ("baseline", "candidate"):
            record = item.get(side)
            if record is not None:
                record = _parse_churn(record, f"{what} {side}", False)
                if record.name != phase:
                    raise ReportError(f"{what} {side} record is named {record.name!r}, not {phase!r}")
            records.append(record)
        if records == [None, None]:
            raise ReportError(f"{what} carries neither a baseline nor a candidate record")
        delta = _compare(phase, records[0], records[1], thresholds)
        if item.get("status") != delta.status:
            raise ReportError(
                f"{what} has status {item.get('status')!r}, but its records and thresholds "
                f"give {delta.status!r}"
            )
        deltas.append(delta)
    verdict = RegressionVerdict(thresholds, deltas)
    if flag != verdict.regression_detected:
        raise ReportError("regression_detected flag does not match the delta statuses")
    canonical = serialize_verdict(verdict)
    if data == canonical:
        return verdict
    recomputed = _load_json(canonical, "verdict")
    for i, (got, want) in enumerate(zip(deltas_doc, recomputed["deltas"])):
        if got != want:
            raise ReportError(f"deltas[{i}] does not match its records and thresholds")
    if doc != recomputed:
        raise ReportError("verdict does not match its canonical form")
    return verdict
