"""Churn report files, build-to-build diffing, and regression ranking.

Reports and verdicts serialize to a canonical JSON form, written by string
templates: the layout of ``json.dumps(indent=2, sort_keys=True,
ensure_ascii=False)``, with every non-integer number rendered as fixed-point
with six decimals, UTF-8, newline-terminated. Costs are integer micro-units,
rendered and read back exactly. Equal reports serialize to identical bytes on
any platform, and the readers accept only those bytes, so a content has one
byte form. A writer encodes each record into one byte buffer as it is made
(``_document``), so writing a document holds about one copy of it. A
report's thread records are read by matching them against a pattern built
from the writer's record template (``_match_report``). Bytes that miss it,
and every verdict, are read by ``_read``: it rebuilds the object, one record
per ``_parse_record`` call, writes it again and compares, and names the first
fault. So this decode path only names faults and reads verdicts.
"""

from __future__ import annotations

import functools
import io
import json
import math
import re
import sys
from operator import itemgetter
from typing import Any, Callable, Iterable, NamedTuple

from .aggregation import MarkerChurn, merge_phases
from .cost_model import COST_DECIMALS, MICRO, AllocFnKind, CostModel
from .errors import CostModelError, ModelMismatchError, ReportError

REPORT_SCHEMA_VERSION = "2"
VERDICT_SCHEMA_VERSION = "2"

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
    """Canonical per-build artifact: per-thread parts plus the whole-run counters.

    ``merged`` holds one record per phase name, the sum of that name's parts
    (``merge_phases``). It is computed when a report is built or parsed and is
    never written: a report file holds each span once.
    """

    build_id: str
    created_at: str
    model: CostModel
    merged: dict[str, MarkerChurn]
    per_thread: list[MarkerChurn]
    totals: ReportTotals


class ChurnDelta(NamedTuple):
    """One phase's baseline-to-candidate comparison: its status and the two
    records it was made from. A missing record makes a new or removed phase.

    The deltas are computed from the records, not stored, with a missing side
    counting as zero. ``cost_delta_micro`` is candidate minus baseline cost in
    micro-units. ``cost_delta_rel`` is candidate/baseline - 1 and is None
    unless both records exist and the baseline cost is above zero. A delta is
    a named tuple: derive an edited copy with ``_replace``.
    """

    phase: str
    status: str
    baseline: MarkerChurn | None
    candidate: MarkerChurn | None

    @property
    def cost_delta_micro(self) -> int:
        base, cand = self.baseline, self.candidate
        return (0 if cand is None else cand.cost_micro) - (0 if base is None else base.cost_micro)

    @property
    def cost_delta_rel(self) -> float | None:
        base, cand = self.baseline, self.candidate
        if base is None or cand is None or base.cost_micro <= 0:
            return None
        return cand.cost_micro / base.cost_micro - 1

    @property
    def byte_delta_magnitude(self) -> int:
        """Total size of the change in bytes allocated and bytes freed."""
        base, cand = self.baseline, self.candidate
        allocated = (0 if cand is None else cand.bytes_allocated) - (0 if base is None else base.bytes_allocated)
        freed = (0 if cand is None else cand.bytes_freed) - (0 if base is None else base.bytes_freed)
        return abs(allocated) + abs(freed)


class RegressionVerdict(NamedTuple):
    """Diff outcome: thresholds used, ranked deltas, and the overall gate."""

    thresholds: Thresholds
    deltas: list[ChurnDelta]

    @property
    def regression_detected(self) -> bool:
        return any(d.status == STATUS_REGRESSION for d in self.deltas)


# ---------------------------------------------------------------------------
# canonical writer


# The C function that json.dumps(s, ensure_ascii=False) ends in: same bytes, no encoder object.
_quote = json.encoder.encode_basestring


def _record_layout(nl: str) -> tuple[str, str]:
    """The two ``%`` templates of a record whose closing brace starts line
    ``nl``: without and with the ``span_id``/``thread_id`` pair. Every field
    slot is ``%s``; ``%d`` would truncate a float that a caller put in a
    trusted field."""
    i = nl + "  "
    j = i + "  "
    head = (
        f'{{{i}"auto_closed": %s,{i}"bytes_allocated": %s,{i}"bytes_freed": %s,'
        f'{i}"calls": {{{j}"calloc": %s,{j}"free": %s,{j}"malloc": %s,{j}"realloc": %s{i}}},'
        f'{i}"cost": %s,{i}"name": %s,{i}"overflow": %s'
    )
    return f"{head}{nl}}}", f'{head},{i}"span_id": %s,{i}"thread_id": %s{nl}}}'


# The record layouts the writers use, built once: a report's thread record and a verdict row's record.
_THREAD_RECORD = _record_layout("\n    ")
_ROW_RECORD = _record_layout("\n      ")
_ROW = '{\n      "baseline": %s,\n      "candidate": %s,\n      "phase": %s,\n      "status": %s\n    }'


def _churn_text(r: MarkerChurn, layout: tuple[str, str]) -> str:
    """A record as one string, from ``layout``'s template (``_record_layout``).

    The bytes are those ``json.dumps(indent=2, sort_keys=True,
    ensure_ascii=False)`` gives for the document of the record's fields, with
    the cost as a six-decimal literal; the document holds ``thread_id`` and
    ``span_id`` unless both are None (a merged record). Field types are
    trusted here: ``MarkerChurn`` checks them when it is built.
    """
    name, micro, malloc, calloc, realloc, free, allocated, freed, overflow, auto_closed, thread_id, span_id = r
    fields = (
        "true" if auto_closed else "false", allocated, freed, calloc, free, malloc, realloc,
        # %d would truncate a float cost; format_cost raises ValueError for one.
        "%d.%06d" % divmod(micro, MICRO) if type(micro) is int and micro >= 0 else format_cost(micro),
        _quote(name), "true" if overflow else "false",
    )
    if thread_id is None and span_id is None:
        return layout[0] % fields
    return layout[1] % (*fields, "null" if span_id is None else _quote(span_id),
                        "null" if thread_id is None else _quote(thread_id))


def _delta_text(d: ChurnDelta) -> str:
    """A verdict row as one string, from one template, each side's record by
    ``_churn_text``.

    The bytes are those ``json.dumps`` gives, as for a record, for the row's
    document: ``baseline`` and ``candidate`` (a record or null), ``phase``
    and ``status``. Field types are trusted, not checked.
    """
    phase, status, base, cand = d
    return _ROW % (
        "null" if base is None else _churn_text(base, _ROW_RECORD),
        "null" if cand is None else _churn_text(cand, _ROW_RECORD),
        _quote(phase), _quote(status),
    )


def _fixed(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite number {value!r}")
    value = round(value, COST_DECIMALS)
    return f"{value if value else 0.0:.6f}"  # 0.0 normalizes -0.0


# What the writers put around and between the members of a top-level array
# (``json.dumps(indent=2)``'s layout), and what ``_match_report`` reads there.
_OPEN, _NEXT, _CLOSE, _NONE = "[\n    ", ",\n    ", "\n  ]", "[]"
_THREADS_KEY = '\n  "threads": '
_REPORT_TAIL = "\n}\n"


def _document(head: str, texts: Iterable[str], tail: str) -> bytes:
    """``head``, then the top-level array of the member ``texts``, then
    ``tail``, in UTF-8.

    Each member is encoded into one buffer as it is made, so writing holds
    about one copy of the document: no list of parts and no joined ``str``.
    ``getvalue`` hands the buffer over without copying it.
    """
    buf = io.BytesIO()
    write = buf.write
    write(head.encode("utf-8"))
    sep = _OPEN
    for text in texts:
        write((sep + text).encode("utf-8"))
        sep = _NEXT
    write(((_NONE if sep == _OPEN else _CLOSE) + tail).encode("utf-8"))
    return buf.getvalue()


def serialize_report(report: ChurnReport) -> bytes:
    """Canonical bytes for a report; equal reports yield identical bytes.

    Its fields in sorted-key order, each thread record encoded as it is
    written (``_document``); ``merged`` is not written. Field types are
    trusted; a non-finite weight raises ValueError.
    """
    model, t = report.model, report.totals
    weights = [f"{_quote(key)}: {_fixed(w)}" for key, w in sorted((k.value, w) for k, w in model.weights.items())]
    weights_text = "{\n      " + ",\n      ".join(weights) + "\n    }" if weights else "{}"
    head = (
        f'{{\n  "build_id": {_quote(report.build_id)},\n  "cost_model": {{'
        f'\n    "model_version": {_quote(model.model_version)},\n    "weights": {weights_text}'
        f'\n  }},\n  "counters": {{\n    "anomaly_count": {t.anomaly_count},'
        f'\n    "bytes_allocated": {t.bytes_allocated},\n    "bytes_freed": {t.bytes_freed},'
        f'\n    "live_blocks": {t.live_blocks},\n    "live_bytes": {t.live_bytes},'
        f'\n    "overflow_count": {t.overflow_count}\n  }},'
        f'\n  "created_at": {_quote(report.created_at)},'
        f'\n  "schema_version": {_quote(REPORT_SCHEMA_VERSION)},{_THREADS_KEY}'
    )
    return _document(head, (_churn_text(r, _THREAD_RECORD) for r in report.per_thread), _REPORT_TAIL)


# ---------------------------------------------------------------------------
# parsing and validation


def _reject_constant(name: str) -> Any:
    raise ReportError(f"non-finite number literal {name} is not allowed")


class _Literal(str):  # a number with a fraction or exponent, kept as written; never a JSON string
    __slots__ = ()


_DECODER = json.JSONDecoder(parse_float=_Literal, parse_constant=_reject_constant)


def _read(data: bytes | str, what: str, build: Callable[[Any], Any], serialize: Callable[[Any], bytes]) -> Any:
    """Both readers' one rule: decode, ``build`` the object with the semantic
    checks, write it again and demand the input's exact bytes. Any other
    layout, spelling, key order, or duplicated or unknown key fails the
    comparison, named by the first differing byte; a field ``build`` cannot
    find or use fails here too. It only names faults and reads verdicts: it
    reads a report only when ``_match_report`` misses, to name the fault.
    """
    try:
        if isinstance(data, str):
            data = data.encode("utf-8")
        text = data.decode("utf-8")
    except UnicodeEncodeError as exc:
        raise ReportError(f"{what} holds a string that is not valid Unicode: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ReportError(f"{what} is not valid UTF-8: {exc}") from None
    try:
        doc = _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        offset = len(text[: exc.pos].encode("utf-8"))
        raise ReportError(f"{what} syntax error at offset {offset}: {exc.msg}", offset=offset) from None
    except RecursionError:
        raise ReportError(f"{what} is nested too deeply") from None
    except ValueError as exc:  # e.g. an integer literal past the int conversion limit
        raise ReportError(f"{what} has an invalid value: {exc}") from None
    try:
        result = build(doc)
        canonical = serialize(result)
    except UnicodeEncodeError as exc:  # an escape decoded to a lone surrogate
        raise ReportError(f"{what} holds a string that is not valid Unicode: {exc}") from None
    except (KeyError, TypeError, AttributeError, ValueError, ArithmeticError) as exc:
        raise ReportError(f"{what} does not match the schema ({type(exc).__name__}: {exc})") from None
    if canonical != data:
        at = next((i for i, (a, b) in enumerate(zip(canonical, data)) if a != b), min(len(canonical), len(data)))
        excerpts = f"expected {canonical[at:at + 24]!r}, found {data[at:at + 24]!r}"
        raise ReportError(f"{what} is not in canonical form at byte {at}: {excerpts}", offset=at)
    return result


# The bound makes every ratio of two accepted costs, and so every relative delta, a finite float.
_MAX_MICRO = int(sys.float_info.max)
_MAX_COST_LEN = len(format_cost(_MAX_MICRO))


# The type of each record field that has one, in the writer's (sorted) order;
# a thread record adds the ids. The calls and the cost are checked on their own.
_THREAD_TYPES = (("auto_closed", bool), ("bytes_allocated", int), ("bytes_freed", int), ("name", str),
                 ("overflow", bool), ("span_id", str), ("thread_id", str))
_MERGED_TYPES = _THREAD_TYPES[:5]
_CALL_KINDS = ("calloc", "free", "malloc", "realloc")
_COUNTERS = itemgetter(*ReportTotals._fields)


def _parse_record(doc: Any, with_thread: bool, what: str) -> MarkerChurn:
    """The record ``doc`` holds, or ReportError naming its first fault,
    labelled ``what``. It reads a verdict's records, and a report's only to
    name a fault, one record per call.

    Each rule is checked once, in this order: a field it cannot fetch (a
    missing key, a list for an object), each field's type, each call count's
    type and then its sign, the byte totals' sign, the cost's sign, then
    ``_charge_fault``'s cost rules. JSON gives exact int, bool and str
    values, and a ``_Literal`` for ``5.0``, so neither a bool nor ``5.0``
    passes for a count, nor a string for a cost. A merged record's ids
    are not read: an id key there is a layout fault.
    """
    try:
        auto_closed, allocated, freed, calls, cost, name, overflow = (
            doc["auto_closed"], doc["bytes_allocated"], doc["bytes_freed"], doc["calls"], doc["cost"],
            doc["name"], doc["overflow"])
        span_id, thread_id = (doc["span_id"], doc["thread_id"]) if with_thread else (None, None)
        counts = calloc, free, malloc, realloc = calls["calloc"], calls["free"], calls["malloc"], calls["realloc"]
    except (KeyError, TypeError) as exc:
        raise ReportError(f"{what} does not match the schema ({type(exc).__name__}: {exc})") from None
    values = (auto_closed, allocated, freed, name, overflow, span_id, thread_id)
    for (key, kind), value in zip(_THREAD_TYPES if with_thread else _MERGED_TYPES, values):
        if type(value) is not kind:
            raise ReportError(f"{what} field {key!r} has the wrong type")
    if type(cost) is str:
        raise ReportError(f"{what} field 'cost' has the wrong type")
    for kind, count in zip(_CALL_KINDS, counts):
        if type(count) is not int:
            raise ReportError(f"{what} calls field {kind!r} has the wrong type")
        if count < 0:
            raise ReportError(f"{what} has negative {kind} count")
    if allocated < 0 or freed < 0:
        raise ReportError(f"{what} has negative byte totals")
    # A cost with the writer's dot before six decimals is the integer of its
    # digits (just out of range if longer than the largest cost's literal).
    # Any other value reads as 0, which the byte comparison then rejects,
    # since the writer never writes it that way.
    micro = 0
    if type(cost) is _Literal and cost[-7:-6] == ".":
        if len(cost) > _MAX_COST_LEN:
            micro = _MAX_MICRO + 1
        else:
            try:
                micro = int(cost.replace(".", ""))
            except ValueError:
                pass
    if micro < 0:
        raise ReportError(f"{what} has negative cost")
    # tuple.__new__ skips the named tuple's Python-level __new__: the fields are already in order.
    record = tuple.__new__(MarkerChurn, (name, micro, malloc, calloc, realloc, free, allocated, freed,
                                         overflow, auto_closed, thread_id, span_id))
    fault = _charge_fault(record)
    if fault:
        raise ReportError(f"{what} {fault}")
    return record


def _charge_fault(record: MarkerChurn) -> str | None:
    """How a record of the right types and signs breaks the cost rules, or
    None: a cost past the largest a report holds, or a cost with no call."""
    _, micro, malloc, calloc, realloc, free, _, _, _, _, _, _ = record
    if micro > _MAX_MICRO:
        return "field 'cost' is out of range or not a whole number of micro-units"
    if micro and not malloc | calloc | realloc | free:
        return "has zero calls but nonzero cost"
    return None


def _parse_model(doc: Any) -> CostModel:
    weights = {AllocFnKind(key): weight for key, weight in doc["weights"].items()}
    try:
        return CostModel(weights, doc["model_version"])
    except CostModelError as exc:  # named by the report's field
        raise ReportError(str(exc).replace("cost model", "cost_model", 1)) from None


def _merged_threads(per_thread: list[MarkerChurn]) -> dict[str, MarkerChurn]:
    """A report's ``merged``, from thread records that each meet the record
    rules, once the records meet the rules between them: the order
    ``build_report`` writes them in, no span id twice, and no phase's summed
    cost past the largest a report holds."""
    span_ids: set[str] = set()
    # build_report's order: labels sorted, spans in begin order, ids label/NNNNNN.
    last: tuple = ("", -1, "")
    for i, record in enumerate(per_thread):
        span_id = record.span_id
        if span_id in span_ids:
            raise ReportError(f"threads[{i}] repeats span_id {span_id!r}")
        key = (record.thread_id, len(span_id), span_id)
        if key <= last:
            raise ReportError(f"threads[{i}] is out of order: not sorted by thread_id, then span_id")
        span_ids.add(span_id)
        last = key
    merged = merge_phases(per_thread)
    for name, record in merged.items():
        if record.cost_micro > _MAX_MICRO:
            raise ReportError(f"phase {name!r} field 'cost' is out of range or not a whole number of micro-units")
    return merged


def _build_report(doc: Any) -> ChurnReport:
    version = doc["schema_version"]
    if "deltas" in doc:
        raise ReportError("document is a verdict, not a report")
    if version != REPORT_SCHEMA_VERSION:
        raise ReportError(f"unknown schema_version {version!r} (expected {REPORT_SCHEMA_VERSION!r})")
    model = _parse_model(doc["cost_model"])
    per_thread = [_parse_record(record, True, f"threads[{i}]") for i, record in enumerate(doc["threads"])]
    merged = _merged_threads(per_thread)
    totals = ReportTotals(*_COUNTERS(doc["counters"]))
    for key, value in zip(ReportTotals._fields, totals):
        if type(value) is not int:
            raise ReportError(f"counters field {key!r} has the wrong type")
        if value < 0:
            raise ReportError(f"counters field {key!r} is negative")
    return ChurnReport(doc["build_id"], doc["created_at"], model, merged, per_thread, totals)


def _read_report(data: bytes | str) -> ChurnReport:
    return _read(data, "report", _build_report, serialize_report)


# The slot of each kind of field in the record pattern: only the text the writer gives for it.
_BOOL = "(true|false)"
_INT = "(0|[1-9][0-9]*)"
_COST = r"((?:0|[1-9][0-9]*)\.[0-9]{6})"
# A string's contents, unrolled: runs of characters _quote leaves as they are, between escapes.
_STRING = r'"([^"\\\x00-\x1f]*(?:\\[^\x00-\x1f][^"\\\x00-\x1f]*)*)"'


@functools.cache
def _thread_record_pattern() -> re.Pattern[str]:
    """The pattern of a thread record's text, one group per slot of
    ``_THREAD_RECORD[1]`` in ``_churn_text``'s fill order; built on the first
    read, not at import."""
    slots = (_BOOL, _INT, _INT, _INT, _INT, _INT, _INT, _COST, _STRING, _BOOL, _STRING, _STRING)
    texts = _THREAD_RECORD[1].split("%s")
    return re.compile("".join(re.escape(text) + slot for text, slot in zip(texts, slots)) + re.escape(texts[-1]))


def _unquote(contents: str) -> str:
    """The string that a string literal with escapes, ``"contents"``, holds;
    ValueError unless ``_quote`` writes that string back as the literal."""
    literal = f'"{contents}"'
    value = json.loads(literal)
    if _quote(value) != literal:
        raise ValueError(f"string literal {literal!r} is not in canonical form")
    return value


def _match_report(data: bytes | str) -> ChurnReport | None:
    """The report ``data`` holds, if ``data`` is the bytes ``serialize_report``
    writes for it and the report meets every reader rule; else None.

    The header, everything before the thread records, is read by ``_read``
    with an empty ``threads`` list: it is small, and its rules and messages
    stay in one place. Each record must then match, at its offset, the pattern
    built from the writer's own template (``_thread_record_pattern``), between
    the writer's separators; a string with an escape must be the one
    ``_quote`` writes. So only canonical bytes match, and the writer and the
    pattern cannot drift apart. The records then pass the rules
    ``_build_report`` applies, through the same ``_charge_fault`` and
    ``_merged_threads``.
    None is any miss: a failed match, a failed rule, or an error such as an
    integer past the conversion limit. ``parse_report`` leaves a miss to
    ``_read``, which names the fault.
    """
    try:
        text = (data.encode("utf-8") if isinstance(data, str) else data).decode("utf-8")
        at = text.find(_THREADS_KEY)
        if at < 0:
            return None
        at += len(_THREADS_KEY)
        header = _read_report(text[:at] + _NONE + _REPORT_TAIL)
        if not text.startswith(_OPEN, at):
            return header if text[at:] == _NONE + _REPORT_TAIL else None
        match = _thread_record_pattern().match
        per_thread: list[MarkerChurn] = []
        pos = at + len(_OPEN)
        while True:
            m = match(text, pos)
            if m is None:
                return None
            auto_closed, allocated, freed, calloc, free, malloc, realloc, cost, name, overflow, span_id, thread_id = (
                m.groups())
            per_thread.append(tuple.__new__(MarkerChurn, (
                name if "\\" not in name else _unquote(name),
                int(cost.replace(".", "")), int(malloc), int(calloc), int(realloc), int(free),
                int(allocated), int(freed), overflow == "true", auto_closed == "true",
                thread_id if "\\" not in thread_id else _unquote(thread_id),
                span_id if "\\" not in span_id else _unquote(span_id),
            )))
            pos = m.end()
            if not text.startswith(_NEXT, pos):
                break
            pos += len(_NEXT)
        if text[pos:] != _CLOSE + _REPORT_TAIL or any(map(_charge_fault, per_thread)):
            return None
        return header._replace(merged=_merged_threads(per_thread), per_thread=per_thread)
    except (ReportError, ValueError):
        return None


def parse_report(data: bytes | str) -> ChurnReport:
    """Parse a report, accepting it only in the canonical bytes ``serialize_report`` writes.

    ``merged`` is computed from the per-thread records with ``merge_phases``,
    as ``RecordingSession.build_report`` computes it. A report is read by
    matching it against the writer's record template (``_match_report``).
    Bytes that miss are read again by ``_read``, which raises ReportError
    naming the first violated rule, as a message or as a byte offset.
    """
    report = _match_report(data)
    return _read_report(data) if report is None else report


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
    if base is None:
        status = STATUS_NEW_PHASE
    elif cand is None:
        status = STATUS_REMOVED_PHASE
    else:
        status = _classify(base.cost_micro, cand.cost_micro, cand.total_calls - base.total_calls, th)
    return tuple.__new__(ChurnDelta, (phase, status, base, cand))


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
    base, cand = baseline.merged, candidate.merged
    deltas = [_compare(phase, base.get(phase), cand.get(phase), th) for phase in sorted(base.keys() | cand.keys())]
    unranked = RegressionVerdict(th, deltas)
    return unranked._replace(deltas=rank_regressions(unranked))


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
    rel = delta.cost_delta_rel
    return math.inf if rel is None else rel


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
    report: each row encoded as it is written (``_document``). A non-finite
    threshold raises ValueError."""
    th = verdict.thresholds
    call_floor = "null" if th.call_floor is None else th.call_floor
    tail = (
        f',\n  "regression_detected": {"true" if verdict.regression_detected else "false"},'
        f'\n  "schema_version": {_quote(VERDICT_SCHEMA_VERSION)},'
        f'\n  "thresholds": {{\n    "abs_floor": {_fixed(float(th.abs_floor))},'
        f'\n    "call_floor": {call_floor},\n    "rel": {_fixed(float(th.rel))}\n  }}\n}}\n'
    )
    return _document('{\n  "deltas": ', map(_delta_text, verdict.deltas), tail)


def _build_verdict(doc: Any) -> RegressionVerdict:
    version = doc["schema_version"]
    if "threads" in doc:
        raise ReportError("document is a report, not a verdict")
    if version != VERDICT_SCHEMA_VERSION:
        raise ReportError(f"unknown schema_version {version!r} (expected {VERDICT_SCHEMA_VERSION!r})")
    th = doc["thresholds"]
    try:
        thresholds = Thresholds(float(th["rel"]), float(th["abs_floor"]), th["call_floor"])
    except (ArithmeticError, TypeError, ValueError) as exc:
        raise ReportError(f"verdict has invalid thresholds: {exc}") from None
    deltas: list[ChurnDelta] = []
    phases: set[str] = set()
    for i, item in enumerate(doc["deltas"]):
        phase = item["phase"]
        if phase in phases:
            raise ReportError(f"deltas[{i}] repeats phase {phase!r}")
        phases.add(phase)
        records = []
        for side in ("baseline", "candidate"):
            record = item[side]
            if record is not None:
                record = _parse_record(record, False, f"deltas[{i}] {side}")
                if record.name != phase:
                    raise ReportError(f"deltas[{i}] {side} record is named {record.name!r}, not {phase!r}")
            records.append(record)
        if records == [None, None]:
            raise ReportError(f"deltas[{i}] carries neither a baseline nor a candidate record")
        deltas.append(_compare(phase, records[0], records[1], thresholds))
    return RegressionVerdict(thresholds, deltas)


def parse_verdict(data: bytes | str) -> RegressionVerdict:
    """Parse a verdict, accepting it only in the canonical bytes ``serialize_verdict`` writes.

    Only the thresholds and each delta's records are read. Every status and
    ``regression_detected`` are recomputed from them and written back, so a
    hand-edited status or flag is named, like any other edit, by the first
    byte that departs from the result.
    """
    return _read(data, "verdict", _build_verdict, serialize_verdict)
