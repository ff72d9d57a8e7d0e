"""Churn report files, build-to-build diffing, and regression ranking.

Reports serialize to a canonical JSON form: lexicographically sorted keys,
two-space indentation, every non-integer number rendered as fixed-point with
six decimals, UTF-8, newline-terminated. Costs are integer micro-units,
rendered and read back exactly. Equal reports serialize to identical bytes on
any platform, which is what makes byte-level comparison of builds meaningful.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from decimal import Context, Decimal, Inexact
from typing import Any

from .aggregation import MarkerChurn, merge_phases
from .cost_model import MICRO, AllocFnKind, CostModel, validate_cost_model
from .errors import ModelMismatchError, ReportError

SCHEMA_VERSION = "1"
REPORT_SUFFIX = ".churn.json"

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

COST_DECIMALS = 6

# (kind, document key) pairs: per-record loops skip Enum iteration and .value.
_KINDS = tuple((kind, kind.value) for kind in AllocFnKind)


def format_cost(micro: int) -> str:
    """Render an integer count of micro-units exactly, with six decimals."""
    whole, frac = divmod(abs(micro), MICRO)
    return f"{'-' if micro < 0 else ''}{whole}.{frac:06d}"


class _Micro(int):
    """A cost in a document: the writer renders it with ``format_cost``."""


@dataclass(frozen=True)
class Thresholds:
    """Regression gate configuration, recorded inside every verdict.

    ``rel`` is the relative cost-growth threshold. ``abs_floor`` handles
    phases whose baseline cost is zero: such a phase regresses when its
    candidate cost exceeds the floor, since a relative delta is undefined.
    ``call_floor``, when set, additionally flags phases whose total call
    count grew by more than the floor even if cost barely moved; it is off
    by default.
    """

    rel: float = DEFAULT_REL_THRESHOLD
    abs_floor: float = DEFAULT_ABS_FLOOR
    call_floor: int | None = None

    def __post_init__(self) -> None:
        # NaN fails every comparison in _classify, so an unchecked NaN (or
        # inf, or a negative floor) would silently disable the gate.
        for name in ("rel", "abs_floor"):
            value = getattr(self, name)
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if not number or not 0 <= value <= sys.float_info.max:
                raise ValueError(f"threshold {name} must be a finite number >= 0, got {value!r}")
            # Gate on the six decimals a verdict records, so parse_verdict can recompute it.
            object.__setattr__(self, name, round(value, COST_DECIMALS))
        floor = self.call_floor
        integer = isinstance(floor, int) and not isinstance(floor, bool)
        if floor is not None and (not integer or floor < 0):
            raise ValueError(f"threshold call_floor must be null or an integer >= 0, got {floor!r}")


@dataclass
class ReportTotals:
    """Whole-run counters, including activity outside any span."""

    bytes_allocated: int = 0
    bytes_freed: int = 0
    live_blocks: int = 0
    live_bytes: int = 0
    anomaly_count: int = 0
    overflow_count: int = 0


@dataclass
class ChurnReport:
    """Canonical per-build artifact: merged phases plus per-thread parts."""

    build_id: str
    created_at: str
    model: CostModel
    merged: dict[str, MarkerChurn]
    per_thread: list[MarkerChurn]
    totals: ReportTotals


@dataclass(frozen=True)
class ChurnDelta:
    """One phase's baseline-to-candidate comparison.

    ``cost_delta_micro`` is candidate minus baseline cost in micro-units.
    ``cost_delta_rel`` is candidate/baseline - 1 and is None when the phase
    has no baseline cost to compare against (zero-cost baseline, new phase)
    or no candidate (removed phase).
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


@dataclass
class RegressionVerdict:
    """Diff outcome: thresholds used, ranked deltas, and the overall gate."""

    thresholds: Thresholds
    deltas: list[ChurnDelta]

    @property
    def regression_detected(self) -> bool:
        return any(d.status == STATUS_REGRESSION for d in self.deltas)


# ---------------------------------------------------------------------------
# canonical writer


def _write_value(value: Any, out: list[str], indent: int) -> None:
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(format_cost(value) if type(value) is _Micro else str(value))
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"cannot serialize non-finite number {value!r}")
        value = round(value, COST_DECIMALS)
        if value == 0:
            value = 0.0  # normalize -0.0
        out.append(f"{value:.6f}")
    elif isinstance(value, str):
        out.append(json.dumps(value, ensure_ascii=False))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        pad = " " * (indent + 2)
        for i, key in enumerate(sorted(value)):
            out.append(pad)
            out.append(json.dumps(key, ensure_ascii=False))
            out.append(": ")
            _write_value(value[key], out, indent + 2)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(" " * indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        out.append("[\n")
        pad = " " * (indent + 2)
        for i, item in enumerate(value):
            out.append(pad)
            _write_value(item, out, indent + 2)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(" " * indent + "]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def canonical_bytes(doc: Any) -> bytes:
    """Serialize a plain document to canonical UTF-8 JSON bytes."""
    out: list[str] = []
    _write_value(doc, out, 0)
    out.append("\n")
    return "".join(out).encode("utf-8")


# ---------------------------------------------------------------------------
# document building


def _churn_doc(record: MarkerChurn, with_thread: bool) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "name": record.name,
        "cost": _Micro(record.cost_micro),
        "calls": {key: int(record.calls.get(kind, 0)) for kind, key in _KINDS},
        "bytes_allocated": record.bytes_allocated,
        "bytes_freed": record.bytes_freed,
        "overflow": record.overflow,
        "auto_closed": record.auto_closed,
    }
    if with_thread:
        doc["thread_id"] = record.thread_id
        doc["span_id"] = record.span_id
    return doc


def model_descriptor(model: CostModel) -> dict[str, Any]:
    return {
        "model_version": model.model_version,
        "weights": {kind.value: float(w) for kind, w in model.weights.items()},
    }


def report_doc(report: ChurnReport) -> dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "build_id": report.build_id,
        "created_at": report.created_at,
        "cost_model": model_descriptor(report.model),
        "phases": {
            name: _churn_doc(record, with_thread=False)
            for name, record in report.merged.items()
        },
        "threads": [_churn_doc(record, with_thread=True) for record in report.per_thread],
        "counters": {
            "bytes_allocated": report.totals.bytes_allocated,
            "bytes_freed": report.totals.bytes_freed,
            "live_blocks": report.totals.live_blocks,
            "live_bytes": report.totals.live_bytes,
            "anomaly_count": report.totals.anomaly_count,
            "overflow_count": report.totals.overflow_count,
        },
    }


def serialize_report(report: ChurnReport) -> bytes:
    """Canonical bytes for a report; equal reports yield identical bytes."""
    return canonical_bytes(report_doc(report))


# ---------------------------------------------------------------------------
# parsing and validation


def _reject_duplicate_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ReportError(f"duplicate key {key!r} in document")
        seen.add(key)
    return dict(pairs)


def _reject_constant(name: str) -> Any:
    raise ReportError(f"non-finite number literal {name} is not allowed")


def _load_json(data: bytes | str, what: str) -> Any:
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ReportError(f"{what} is not valid UTF-8: {exc}") from None
    try:
        return json.loads(
            data, object_pairs_hook=_reject_duplicate_keys, parse_constant=_reject_constant, parse_float=Decimal
        )
    except json.JSONDecodeError as exc:
        raise ReportError(f"{what} syntax error at offset {exc.pos}: {exc.msg}", offset=exc.pos) from None
    except RecursionError:
        raise ReportError(f"{what} is nested too deeply") from None
    except (ValueError, ArithmeticError) as exc:
        # e.g. an integer literal past the int conversion limit, or an exponent past Decimal's
        raise ReportError(f"{what} has an invalid value: {exc}") from None


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


def _parse_model(doc: Any) -> CostModel:
    if not isinstance(doc, dict):
        raise ReportError("cost_model must be an object")
    version = _expect(doc, "model_version", str, "cost_model")
    weights_doc = _expect(doc, "weights", dict, "cost_model")
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


def _parse_churn(doc: Any, what: str, with_thread: bool) -> MarkerChurn:
    if not isinstance(doc, dict):
        raise ReportError(f"{what} must be an object")
    name = _expect(doc, "name", str, what)
    cost_micro = _expect_micro(doc, "cost", what)
    if cost_micro < 0:
        raise ReportError(f"{what} has negative cost")
    calls_doc = _expect(doc, "calls", dict, what)
    calls: dict[AllocFnKind, int] = {}
    calls_what = f"{what} calls"
    for kind, key in _KINDS:
        n = _expect(calls_doc, key, int, calls_what)
        if n < 0:
            raise ReportError(f"{what} has negative {key} count")
        calls[kind] = n
    if len(calls_doc) != len(calls):  # every known kind is present, so a key is unknown
        unknown = sorted(set(calls_doc) - set(AllocFnKind._value2member_map_))
        raise ReportError(f"{what} calls has unknown kinds {unknown!r}")
    bytes_allocated = _expect(doc, "bytes_allocated", int, what)
    bytes_freed = _expect(doc, "bytes_freed", int, what)
    if bytes_allocated < 0 or bytes_freed < 0:
        raise ReportError(f"{what} has negative byte totals")
    overflow = _expect(doc, "overflow", bool, what)
    auto_closed = _expect(doc, "auto_closed", bool, what)
    if sum(calls.values()) == 0 and cost_micro != 0:
        raise ReportError(f"{what} has zero calls but nonzero cost")
    thread_id = span_id = None
    if with_thread:
        thread_id = _expect(doc, "thread_id", str, what)
        span_id = _expect(doc, "span_id", str, what)
    else:
        if "thread_id" in doc or "span_id" in doc:
            raise ReportError(f"{what} is merged and must not carry thread attribution")
    return MarkerChurn(
        name=name,
        cost_micro=cost_micro,
        calls=calls,
        bytes_allocated=bytes_allocated,
        bytes_freed=bytes_freed,
        overflow=overflow,
        auto_closed=auto_closed,
        thread_id=thread_id,
        span_id=span_id,
    )


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
    totals = ReportTotals(
        bytes_allocated=_expect(counters_doc, "bytes_allocated", int, "counters"),
        bytes_freed=_expect(counters_doc, "bytes_freed", int, "counters"),
        live_blocks=_expect(counters_doc, "live_blocks", int, "counters"),
        live_bytes=_expect(counters_doc, "live_bytes", int, "counters"),
        anomaly_count=_expect(counters_doc, "anomaly_count", int, "counters"),
        overflow_count=_expect(counters_doc, "overflow_count", int, "counters"),
    )
    for fname, value in vars(totals).items():
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
    summed = merge_phases(per_thread)
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
        kind: (cand.calls[kind] if cand else 0) - (base.calls[kind] if base else 0) for kind in AllocFnKind
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
        phase=phase,
        status=status,
        baseline=base,
        candidate=cand,
        cost_delta_micro=cand_cost - base_cost,
        cost_delta_rel=rel,
        call_delta=call_delta,
        bytes_allocated_delta=(cand.bytes_allocated if cand else 0) - (base.bytes_allocated if base else 0),
        bytes_freed_delta=(cand.bytes_freed if cand else 0) - (base.bytes_freed if base else 0),
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


def _delta_doc(delta: ChurnDelta) -> dict[str, Any]:
    return {
        "phase": delta.phase,
        "status": delta.status,
        "baseline": None if delta.baseline is None else _churn_doc(delta.baseline, False),
        "candidate": None if delta.candidate is None else _churn_doc(delta.candidate, False),
        "cost_delta_abs": _Micro(delta.cost_delta_micro),
        "cost_delta_rel": None if delta.cost_delta_rel is None else float(delta.cost_delta_rel),
        "call_delta": {kind.value: n for kind, n in delta.call_delta.items()},
        "bytes_allocated_delta": delta.bytes_allocated_delta,
        "bytes_freed_delta": delta.bytes_freed_delta,
    }


def verdict_doc(verdict: RegressionVerdict) -> dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "thresholds": {
            "rel": float(verdict.thresholds.rel),
            "abs_floor": float(verdict.thresholds.abs_floor),
            "call_floor": verdict.thresholds.call_floor,
        },
        "regression_detected": verdict.regression_detected,
        "deltas": [_delta_doc(d) for d in verdict.deltas],
    }


def serialize_verdict(verdict: RegressionVerdict) -> bytes:
    return canonical_bytes(verdict_doc(verdict))


def parse_verdict(data: bytes | str) -> RegressionVerdict:
    """Parse and validate a verdict document produced by ``diff --format json``.

    Only the thresholds and each delta's records are read; every status and
    delta is recomputed from them, and the document must be the recomputed
    verdict, so a hand-edited status, delta or flag raises ReportError.
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
    recomputed = _load_json(serialize_verdict(verdict), "verdict")
    for i, (got, want) in enumerate(zip(deltas_doc, recomputed["deltas"])):
        if got != want:
            raise ReportError(f"deltas[{i}] does not match its records and thresholds")
    if doc != recomputed:
        raise ReportError("verdict does not match its canonical form")
    return verdict
