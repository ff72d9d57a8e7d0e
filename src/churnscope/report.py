"""Churn records, report files, build-to-build diffing, and regression ranking.

A span's record, ``MarkerChurn``, is built where the span closes
(``recorder``); this module holds the record type, the check every string
field passes (``utf8_bytes``), and the one merge (``merge_phases``), which
sums records into one per phase name.

Reports and verdicts serialize to a canonical JSON form, written by string
templates: the layout of ``json.dumps(indent=2, sort_keys=True,
ensure_ascii=False)``, with every non-integer number rendered as fixed-point
with six decimals, UTF-8, newline-terminated. Costs are integer micro-units,
rendered and read back exactly. Equal reports serialize to identical bytes on
any platform, and the reader accepts only those bytes, so a content has one
byte form. A writer encodes and writes each record as it is made
(``_document``): ``write_report`` streams a report into a file, holding one
record at a time, and ``serialize_report`` and ``serialize_verdict`` write
into one byte buffer that they return, so they hold about one copy of the
document.

Each layout has one template (``_Template``). The writer fills it; the
reader matches its pattern, then applies the rules no pattern expresses. On
a miss the reader walks the template to the first byte that departs from it
(``_walk``), so every byte-level fault has one message form.
"""

from __future__ import annotations

import functools
import io
import math
import re
import sys
from collections import namedtuple
from typing import Any, BinaryIO, Callable, Iterable, NoReturn

try:
    from _json import encode_basestring as _quote  # what json.encoder re-exports, without importing json
except ImportError:  # an interpreter without json's C accelerator
    from json.encoder import encode_basestring as _quote

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


_ThresholdFields = namedtuple("_ThresholdFields", ("rel", "abs_floor", "call_floor"))


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

    rel: float
    abs_floor: float
    call_floor: int | None

    def __new__(cls, rel: float = DEFAULT_REL_THRESHOLD, abs_floor: float = DEFAULT_ABS_FLOOR,
                call_floor: int | None = None) -> Thresholds:
        # An unchecked NaN or inf would crash the gate, and a negative floor
        # would silently disable it.
        for name, value in (("rel", rel), ("abs_floor", abs_floor)):
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if not number or not 0 <= value <= sys.float_info.max:
                raise ValueError(f"threshold {name} must be a finite number >= 0, got {value!r}")
        integer = isinstance(call_floor, int) and not isinstance(call_floor, bool)
        if call_floor is not None and (not integer or call_floor < 0):
            raise ValueError(f"threshold call_floor must be null or an integer >= 0, got {call_floor!r}")
        # Gate on the six decimals a verdict records, so parse_verdict can recompute it; -0.0 is stored as 0.0.
        rel, abs_floor = round(rel, COST_DECIMALS) or 0.0, round(abs_floor, COST_DECIMALS) or 0.0
        return super().__new__(cls, rel, abs_floor, call_floor)

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> Thresholds:
        return cls(*super()._make(iterable))


class ReportTotals(namedtuple("ReportTotals", ("bytes_allocated", "bytes_freed", "live_blocks", "live_bytes",
                                              "anomaly_count", "overflow_count"), defaults=(0,) * 6)):
    """Whole-run counters, including activity outside any span."""

    __slots__ = ()

    bytes_allocated: int
    bytes_freed: int
    live_blocks: int
    live_bytes: int
    anomaly_count: int
    overflow_count: int


class ChurnReport(namedtuple("ChurnReport", ("build_id", "created_at", "model", "per_thread", "totals"))):
    """Canonical per-build artifact: per-thread parts plus the whole-run counters.

    The five fields are the report; ``merged``, one record per phase name,
    is a view of ``per_thread`` (``merge_phases``), computed on its first
    read and kept. Equality is the five fields', as a tuple's. Edit
    a report with ``_replace``, which gives a fresh view; a ``per_thread``
    list mutated in place after ``merged`` was read leaves the view stale.
    """

    build_id: str
    created_at: str
    model: CostModel
    per_thread: list[MarkerChurn]
    totals: ReportTotals

    @property
    def merged(self) -> dict[str, MarkerChurn]:
        """Each phase's parts summed, keyed in name order: ``merge_phases(self.per_thread)``, once."""
        cache = self.__dict__
        merged = cache.get("merged")
        if merged is None:
            merged = cache["merged"] = merge_phases(self.per_thread)
        return merged


class ChurnDelta(namedtuple("ChurnDelta", ("phase", "status", "baseline", "candidate"))):
    """One phase's baseline-to-candidate comparison: its status and the two
    records it was made from. A missing record makes a new or removed phase.

    The deltas are computed from the records, not stored, with a missing side
    counting as zero. ``cost_delta_micro`` is candidate minus baseline cost in
    micro-units. ``cost_delta_rel`` is candidate/baseline - 1 and is None
    unless both records exist and the baseline cost is above zero. A delta is
    a named tuple: derive an edited copy with ``_replace``.
    """

    __slots__ = ()

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


class RegressionVerdict(namedtuple("RegressionVerdict", ("thresholds", "deltas"))):
    """Diff outcome: thresholds used, ranked deltas, and the overall gate."""

    __slots__ = ()

    thresholds: Thresholds
    deltas: list[ChurnDelta]

    @property
    def regression_detected(self) -> bool:
        return any(d.status == STATUS_REGRESSION for d in self.deltas)


# ---------------------------------------------------------------------------
# canonical writer: one template per layout, which the reader matches too


class _Template:
    """A writer's ``%`` template and the kind of each ``%s`` slot, in fill
    order: the pattern of the only text the writer gives there, or a nested
    record template whose slot may hold ``null`` instead. Every slot is
    ``%s``; ``%d`` would truncate a float that a caller put in a trusted field.
    A plain class, as it is built at import: a named tuple class costs more."""

    __slots__ = ("text", "kinds")

    def __init__(self, text: str, kinds: tuple[Any, ...]) -> None:
        self.text, self.kinds = text, kinds


# The slot kinds, each with one group. In every template a slot is followed by "," or a newline.
_BOOL = "(true|false)"
_COUNT = "(0|[1-9][0-9]*)"
_FIXED = r"((?:0|[1-9][0-9]*)\.[0-9]{6})"  # a cost, weight or threshold
_FLOOR = "(null|0|[1-9][0-9]*)"
# A string's contents, unrolled: runs of characters _quote leaves as they are, between escapes.
_STRING = r'"([^"\\\x00-\x1f]*(?:\\[^\x00-\x1f][^"\\\x00-\x1f]*)*)"'
# What a fault names as expected where a slot's text does not fit its kind.
_KIND_NAMES = {_BOOL: "true or false", _COUNT: "a count", _FIXED: "a number with six decimals",
               _FLOOR: "null or a count", _STRING: "a string"}


def _record_template(nl: str, ids: bool) -> _Template:
    """The template of a record whose closing brace starts line ``nl``: with
    the ``span_id``/``thread_id`` pair (a report's thread record) or without
    it (a verdict's merged record)."""
    i = nl + "  "
    j = i + "  "
    head = (
        f'{{{i}"auto_closed": %s,{i}"bytes_allocated": %s,{i}"bytes_freed": %s,'
        f'{i}"calls": {{{j}"calloc": %s,{j}"free": %s,{j}"malloc": %s,{j}"realloc": %s{i}}},'
        f'{i}"cost": %s,{i}"name": %s,{i}"overflow": %s'
    )
    kinds = (_BOOL, *[_COUNT] * 6, _FIXED, _STRING, _BOOL)
    if ids:
        return _Template(f'{head},{i}"span_id": %s,{i}"thread_id": %s{nl}}}', (*kinds, _STRING, _STRING))
    return _Template(f"{head}{nl}}}", kinds)


# A report's thread record, and a verdict row whose two records are merged ones or null.
_THREAD_RECORD = _record_template("\n    ", True)
_ROW_RECORD = _record_template("\n      ", False)
_ROW = _Template('{\n      "baseline": %s,\n      "candidate": %s,\n      "phase": %s,\n      "status": %s\n    }',
                 (_ROW_RECORD, _ROW_RECORD, _STRING, _STRING))

# The weight slots' kinds, in the header's (sorted) key order.
_WEIGHT_KINDS = (AllocFnKind.CALLOC, AllocFnKind.FREE, AllocFnKind.MALLOC, AllocFnKind.REALLOC)
_HEADER = _Template(
    '{\n  "build_id": %s,\n  "cost_model": {\n    "model_version": %s,\n    "weights": {\n      "calloc": %s,'
    '\n      "free": %s,\n      "malloc": %s,\n      "realloc": %s\n    }\n  },\n  "counters": {'
    '\n    "anomaly_count": %s,\n    "bytes_allocated": %s,\n    "bytes_freed": %s,\n    "live_blocks": %s,'
    '\n    "live_bytes": %s,\n    "overflow_count": %s\n  },\n  "created_at": %s,'
    f'\n  "schema_version": {_quote(REPORT_SCHEMA_VERSION)},\n  "threads": ',
    (_STRING, _STRING, *[_FIXED] * 4, *[_COUNT] * 6, _STRING),
)
_REPORT_TAIL = _Template("\n}\n", ())
_VERDICT_HEAD = _Template('{\n  "deltas": ', ())
_VERDICT_TAIL = _Template(
    f',\n  "regression_detected": %s,\n  "schema_version": {_quote(VERDICT_SCHEMA_VERSION)},'
    '\n  "thresholds": {\n    "abs_floor": %s,\n    "call_floor": %s,\n    "rel": %s\n  }\n}\n',
    (_BOOL, _FIXED, _FLOOR, _FIXED),
)
# What the writers put around and between the members of a top-level array (``json.dumps(indent=2)``'s layout).
_OPEN, _NEXT, _CLOSE, _NONE = "[\n    ", ",\n    ", "\n  ]", "[]"


# Each document: its name, its array's key, the schema_version its templates hold, and the templates
# of its head, of each member of its array, and of its tail.
_REPORT = ("report", "threads", REPORT_SCHEMA_VERSION, _HEADER, _THREAD_RECORD, _REPORT_TAIL)
_VERDICT = ("verdict", "deltas", VERDICT_SCHEMA_VERSION, _VERDICT_HEAD, _ROW, _VERDICT_TAIL)


class _Unwritable(ValueError):
    """A record its layout's reader refuses. The message names the field;
    the writer names the first place it holds ``record``, which is where it
    was refused, since one record fails the same way wherever it is."""

    def __init__(self, record: MarkerChurn, message: str) -> None:
        super().__init__(message)
        self.record = record


def _churn_text(r: MarkerChurn, template: _Template) -> str:
    """A record as one string, from ``template``: ``_THREAD_RECORD`` or ``_ROW_RECORD``.

    The bytes are those ``json.dumps(indent=2, sort_keys=True,
    ensure_ascii=False)`` gives for the document of the record's fields, with
    the cost as a six-decimal literal; a thread record's document holds
    ``thread_id`` and ``span_id``, a row's merged record neither. Field types
    are trusted here: ``MarkerChurn`` checks them when it is built. A record
    its template's reader refuses raises ``_Unwritable``: a cost that is not
    an int >= 0, a negative count or byte total, a cost that breaks the cost
    rules (``_charge_fault``), a thread record's id that is not a str, or a
    merged record's id that is not None.
    """
    name, micro, malloc, calloc, realloc, free, allocated, freed, overflow, auto_closed, thread_id, span_id = r
    if type(micro) is not int or micro < 0:  # %d would truncate a float cost
        raise _Unwritable(r, f"field 'cost_micro' must be an int >= 0, got {micro!r}")
    calls = malloc | calloc | realloc | free
    if (calls | allocated | freed) < 0 or micro > _MAX_MICRO or micro and not calls:  # named only on failure
        sign = next(((f, v) for f, v in zip(MarkerChurn._fields[2:8], r[2:8]) if v < 0), None)
        raise _Unwritable(r, _charge_fault(r) if sign is None else "field %r must be an int >= 0, got %r" % sign)
    fields = (
        "true" if auto_closed else "false", allocated, freed, calloc, free, malloc, realloc,
        "%d.%06d" % divmod(micro, MICRO), _quote(name), "true" if overflow else "false",
    )
    if template is _THREAD_RECORD:
        try:
            return template.text % (*fields, _quote(span_id), _quote(thread_id))
        except TypeError:  # from _quote
            field, value = ("span_id", span_id) if isinstance(thread_id, str) else ("thread_id", thread_id)
            raise _Unwritable(r, f"field {field!r} must be a str, got {value!r}") from None
    if thread_id is None and span_id is None:
        return template.text % fields
    field, value = ("span_id", span_id) if thread_id is None else ("thread_id", thread_id)
    raise _Unwritable(r, f"field {field!r} must be None in a merged record, got {value!r}")


def _delta_text(d: ChurnDelta) -> str:
    """A verdict row as one string, from ``_ROW``, each side's record by
    ``_churn_text``. An unchanged phase's record is written once: a candidate
    equal to the baseline reuses the baseline's text.

    The bytes are those ``json.dumps`` gives, as for a record, for the row's
    document: ``baseline`` and ``candidate`` (a record or null), ``phase``
    and ``status``. Field types are trusted, not checked.
    """
    phase, status, base, cand = d
    base_text = "null" if base is None else _churn_text(base, _ROW_RECORD)
    return _ROW.text % (
        base_text,
        base_text if cand == base else "null" if cand is None else _churn_text(cand, _ROW_RECORD),
        _quote(phase), _quote(status),
    )


def _fixed(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite number {value!r}")
    value = round(value, COST_DECIMALS)
    return f"{value if value else 0.0:.6f}"  # 0.0 normalizes -0.0


def _document(write: Callable[[bytes], Any], head: str, texts: Iterable[str], tail: str) -> None:
    """Write ``head``, then the top-level array of the member ``texts``, then
    ``tail``, in UTF-8, through ``write``.

    Each member is encoded and written as it is made: no list of parts and
    no joined ``str``, so the writer holds one member at a time, and the
    document is held only by whatever ``write`` writes into.
    """
    write(head.encode("utf-8"))
    sep = _OPEN
    for text in texts:
        write((sep + text).encode("utf-8"))
        sep = _NEXT
    write(((_NONE if sep == _OPEN else _CLOSE) + tail).encode("utf-8"))


def write_report(report: ChurnReport, file: BinaryIO) -> None:
    """Write a report's canonical bytes into the binary ``file``, each
    record as it is made; equal reports write identical bytes.

    ``_HEADER`` filled with the report's fields, then each thread record
    (``_document``); ``merged``, a view, is not written or read.
    Record field types are trusted; a non-finite weight raises ValueError,
    and so does a total that is not an int >= 0, named as ``counters`` and
    its field, before anything is written, or a thread record
    ``parse_report`` would refuse on its own (``_churn_text``), named as
    ``threads[i]``, after the records before it were written.
    """
    model, t, records = report.model, report.totals, report.per_thread
    for field in ReportTotals._fields:  # not zip: its pair would outlive the loop in the tuple free list
        value = getattr(t, field)
        if type(value) is not int or value < 0:
            raise ValueError(f"cannot serialize counters: field {field!r} must be an int >= 0, got {value!r}")
    head = _HEADER.text % (
        _quote(report.build_id), _quote(model.model_version), *[_fixed(model.weights[k]) for k in _WEIGHT_KINDS],
        t.anomaly_count, t.bytes_allocated, t.bytes_freed, t.live_blocks, t.live_bytes, t.overflow_count,
        _quote(report.created_at),
    )
    try:
        _document(file.write, head, (_churn_text(r, _THREAD_RECORD) for r in records), _REPORT_TAIL.text)
    except _Unwritable as exc:
        i = next(i for i, r in enumerate(records) if r is exc.record)
        raise ValueError(f"cannot serialize threads[{i}]: {exc}") from None


def serialize_report(report: ChurnReport) -> bytes:
    """Canonical bytes for a report, as ``write_report`` writes them, and
    with its errors. ``getvalue`` hands the buffer over without copying it,
    so this holds about one copy of the document."""
    buf = io.BytesIO()
    write_report(report, buf)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# reading: match the templates, then apply the rules no pattern expresses


# The bound makes every ratio of two accepted costs, and so every relative delta, a finite float.
_MAX_MICRO = int(sys.float_info.max)
_MAX_COST_LEN = len(format_cost(_MAX_MICRO))


def _regex(template: _Template) -> str:
    literals = template.text.split("%s")
    slots = [kind if type(kind) is str else f"(?:null|{_regex(kind)})" for kind in template.kinds]
    return "".join(re.escape(literal) + slot for literal, slot in zip(literals, [*slots, ""]))


@functools.cache
def _pattern(template: _Template) -> re.Pattern[str]:
    """The pattern of ``template``'s text: each literal as written and each
    slot its kind's pattern, so one group per slot in fill order (a nested
    record's groups in its place). Compiled on the first read, not at import."""
    return re.compile(_regex(template))


def _unquote(contents: str) -> str:
    """The string that a string literal with escapes, ``"contents"``, holds;
    ValueError unless ``_quote`` writes that string back as the literal, and
    UnicodeEncodeError (a ValueError) for a string with no UTF-8 form."""
    import json  # only a literal with an escape gets here, so json stays off the import path

    literal = f'"{contents}"'
    value = json.loads(literal)
    if _quote(value) != literal:
        value.encode("utf-8")  # an escaped lone surrogate raises here
        raise ValueError(f"string literal {literal!r} is not in canonical form")
    return value


def _fault(text: str, at: int, label: str, expected: str, key: str | None = None) -> ReportError:
    """The one message of a byte-level fault: ``text`` departs at character
    ``at`` from what ``expected`` gives or names, in ``label`` (at its field
    ``key``, if any); the offset counts UTF-8 bytes."""
    offset = len(text[:at].encode("utf-8"))
    field = "" if key is None else f" field {key!r}"
    return ReportError(f"{label}{field} is not in canonical form at byte {offset}: "
                       f"expected {expected!r}, found {text[at:at + 24]!r}", offset=offset)


def _expect(text: str, pos: int, literal: str, label: str, end: bool = False) -> int:
    """Where ``literal`` ends when ``text`` holds it at ``pos`` (and ends with
    it, if ``end``); else ReportError at its first byte that differs."""
    stop = pos + len(literal)
    if text.startswith(literal, pos) and (not end or stop == len(text)):
        return stop
    at = next((i for i, (a, b) in enumerate(zip(literal, text[pos:stop])) if a != b), min(stop, len(text)) - pos)
    raise _fault(text, pos + at, label, literal[at:at + 24])


def _walk(text: str, pos: int, template: _Template, label: str, end: bool = False) -> int:
    """Lay ``template`` over ``text`` from ``pos``, literal by literal and
    slot by slot, and raise ReportError where they part: at a literal's first
    differing byte, or at the start of a slot whose text does not fit its
    kind, as the writer gives it (escapes as ``_quote`` writes them, a count
    ``int`` converts). A nested record is walked under ``label`` and its
    slot's key. So the walk parts exactly where ``_pattern(template)`` or
    reading a slot fails; else it returns where the template ends."""
    literals = template.text.split("%s")
    for literal, kind in zip(literals, template.kinds):
        pos = _expect(text, pos, literal, label)
        key = literal.rsplit('"', 2)[1]
        if type(kind) is _Template:
            pos = pos + 4 if text.startswith("null", pos) else _walk(text, pos, kind, f"{label} {key}")
            continue
        # A slot's text may not run on into more of a number or word: "5.0" is no count then ".0".
        m = re.compile(kind + "(?![0-9A-Za-z.+-])").match(text, pos)
        try:
            if m is not None and kind == _COUNT:
                int(m[1])
            elif m is not None and kind == _STRING and "\\" in m[1]:
                _unquote(m[1])
        except UnicodeEncodeError as exc:
            raise ReportError(f"{label} field {key!r} holds a string that is not valid Unicode: {exc}") from None
        except ValueError:
            m = None
        if m is None:
            raise _fault(text, pos, label, _KIND_NAMES[kind], key)
        pos = m.end()
    return _expect(text, pos, literals[-1], label, end)


def _miss(text: str, layout: tuple[Any, ...], pos: int, template: _Template, label: str, end: bool = False) -> NoReturn:
    """Raise ReportError for ``text``, which misses ``template`` at ``pos``.

    A document of the other kind is named from its first key, and one of
    another ``schema_version`` from its top-level ``schema_version`` line;
    any other miss by where the walk of ``template`` (``_walk``) stops.
    """
    what, _, version, *_ = layout
    other, _, _, other_head, *_ = _VERDICT if layout is _REPORT else _REPORT
    if text.startswith(other_head.text.split("%s")[0]):
        raise ReportError(f"document is a {other}, not a {what}")
    found = re.search(r'\n  "schema_version": "([^"\\]*)"', text)
    if found and found[1] != version:
        raise ReportError(f"unknown schema_version {found[1]!r} (expected {version!r})")
    _walk(text, pos, template, label, end)
    # Not reached: the walk parts wherever the pattern misses. A miss is never accepted.
    raise ReportError(f"{label} is not in canonical form")


def _read_document(data: bytes | str, layout: tuple[Any, ...], read: Callable[[tuple[Any, ...]], Any]) -> tuple[
        str, re.Match[str], list[Any], re.Match[str]]:
    """``data`` as text (UTF-8), matched against ``layout``'s templates: the
    head's match, each member's slot texts made into a value by ``read``, and
    the tail's match. A member whose slot ``read`` cannot read (ValueError) is
    walked as one that does not match: the first fault raises ReportError
    (``_miss``).
    """
    what, array, _, head_template, member, tail_template = layout
    try:
        text = (data.encode("utf-8") if isinstance(data, str) else data).decode("utf-8")
    except UnicodeEncodeError as exc:
        raise ReportError(f"{what} holds a string that is not valid Unicode: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ReportError(f"{what} is not valid UTF-8: {exc}") from None
    head = _pattern(head_template).match(text) or _miss(text, layout, 0, head_template, what)
    pos = head.end()
    members: list[Any] = []
    if text.startswith(_OPEN, pos):
        pos += len(_OPEN)
        match = _pattern(member).match
        while True:
            m = match(text, pos)
            if m is not None:
                try:
                    members.append(read(m.groups()))
                except ValueError:
                    m = None
            if m is None:
                _miss(text, layout, pos, member, f"{array}[{len(members)}]")
            pos = m.end()
            if not text.startswith(_NEXT, pos):
                break
            pos += len(_NEXT)
        pos = _expect(text, pos, _NEXT if text.startswith(",", pos) else _CLOSE, what)
    else:
        pos = _expect(text, pos, _NONE, what)
    tail = _pattern(tail_template).fullmatch(text, pos) or _miss(text, layout, pos, tail_template, what, True)
    return text, head, members, tail


def _record(slots: tuple[Any, ...]) -> MarkerChurn:
    """The record of a thread record template's slot texts, in fill order (a
    merged record's ids None); ValueError for a string whose escapes
    ``_quote`` would not write or a count past int conversion. A cost longer
    than the largest cost reads as just past it."""
    auto_closed, allocated, freed, calloc, free, malloc, realloc, cost, name, overflow, span_id, thread_id = slots
    # tuple.__new__ skips the named tuple's Python-level __new__: the fields are already in order.
    return tuple.__new__(MarkerChurn, (
        name if "\\" not in name else _unquote(name),
        int(cost.replace(".", "")) if len(cost) <= _MAX_COST_LEN else _MAX_MICRO + 1,
        int(malloc), int(calloc), int(realloc), int(free), int(allocated), int(freed),
        overflow == "true", auto_closed == "true",
        thread_id if thread_id is None or "\\" not in thread_id else _unquote(thread_id),
        span_id if span_id is None or "\\" not in span_id else _unquote(span_id),
    ))


def _charge_fault(record: MarkerChurn) -> str | None:
    """How a record breaks the cost rules, or None: a cost past the largest
    a report holds, or a cost with no call."""
    _, micro, malloc, calloc, realloc, free, _, _, _, _, _, _ = record
    if micro > _MAX_MICRO:
        return "field 'cost' is out of range or not a whole number of micro-units"
    if micro and not malloc | calloc | realloc | free:
        return "has zero calls but nonzero cost"
    return None


def _check_written(m: re.Match[str], group: int, written: str, label: str, key: str) -> None:
    """ReportError at ``m``'s slot ``group`` unless it holds ``written``, a recomputed or rewritten value."""
    if m[group] != written:
        raise _fault(m.string, m.start(group), label, written[:24], key)


def _check_threads(report: ChurnReport) -> None:
    """ReportError unless ``report``'s thread records meet the cost rules
    (``_charge_fault``) and the rules between them: the order
    ``build_report`` writes them in, no span id twice, and no phase's summed
    cost past the largest a report holds. That last rule reads
    ``report.merged``, so a parsed report's phases are merged here, once."""
    span_ids: set[str] = set()
    # build_report's order: labels sorted, spans in begin order, ids label/NNNNNN.
    last: tuple = ("", -1, "")
    for i, record in enumerate(report.per_thread):
        fault = _charge_fault(record)
        if fault:
            raise ReportError(f"threads[{i}] {fault}")
        span_id = record.span_id
        if span_id in span_ids:
            raise ReportError(f"threads[{i}] repeats span_id {span_id!r}")
        key = (record.thread_id, len(span_id), span_id)
        if key <= last:
            raise ReportError(f"threads[{i}] is out of order: not sorted by thread_id, then span_id")
        span_ids.add(span_id)
        last = key
    for name, record in report.merged.items():
        if record.cost_micro > _MAX_MICRO:
            raise ReportError(f"phase {name!r} field 'cost' is out of range or not a whole number of micro-units")


def parse_report(data: bytes | str) -> ChurnReport:
    """Parse a report, accepting it only in the canonical bytes ``serialize_report`` writes.

    The bytes must match the patterns of the writer's own templates. Then
    come the rules no pattern expresses: the cost model's (named
    ``cost_model``), each weight written back as its literal, and the
    records' (``_check_threads``). The last of these reads the report's
    ``merged``, so the report returned has its phases merged already, once.
    A fault raises ReportError: a byte-level one names the header
    (``report``) or record (``threads[i]``), the field where there is one,
    and the byte offset; a rule has its own message.
    """
    text, head, per_thread, _ = _read_document(data, _REPORT, _record)
    build_id, version, *weights, anomalies, allocated, freed, blocks, live, overflows, created_at = head.groups()
    try:
        build_id, version, created_at = [s if "\\" not in s else _unquote(s) for s in (build_id, version, created_at)]
        totals = ReportTotals(int(allocated), int(freed), int(blocks), int(live), int(anomalies), int(overflows))
    except ValueError:
        _miss(text, _REPORT, 0, _HEADER, "report")
    try:
        model = CostModel(dict(zip(_WEIGHT_KINDS, map(float, weights))), version)
    except CostModelError as exc:  # named by the report's field
        raise ReportError(str(exc).replace("cost model", "cost_model", 1)) from None
    for group, kind in enumerate(_WEIGHT_KINDS, 3):
        _check_written(head, group, _fixed(model.weights[kind]), "report", kind.value)
    report = ChurnReport(build_id, created_at, model, per_thread, totals)
    _check_threads(report)
    return report


# ---------------------------------------------------------------------------
# diffing


def _limits(th: Thresholds) -> tuple[int, int, int | None]:
    """The gate's thresholds as exact integers, once per verdict: ``MICRO + rel`` and
    ``abs_floor`` in micro-units, read off the literals a verdict writes, and ``call_floor``."""
    rel, floor = int(_fixed(th.rel).replace(".", "")), int(_fixed(th.abs_floor).replace(".", ""))
    return MICRO + rel, floor, th.call_floor


def _classify(base: int, cand: int, call_delta_total: int, limits: tuple[int, int, int | None]) -> str:
    # Costs are micro-units, compared in exact integers: a phase regresses
    # when it grows by more than rel, or from a zero-cost baseline past
    # abs_floor. Regression and improvement use mirrored tests (roles
    # swapped), so diff(A, B) regressions are exactly diff(B, A) improvements.
    grown, floor, call_floor = limits
    if base > 0 and cand * MICRO > base * grown:
        return STATUS_REGRESSION
    if base == 0 and cand > floor:
        return STATUS_REGRESSION
    if cand > 0 and base * MICRO > cand * grown:
        return STATUS_IMPROVEMENT
    if cand == 0 and base > floor:
        return STATUS_IMPROVEMENT
    if call_floor is not None:
        if call_delta_total > call_floor:
            return STATUS_REGRESSION
        if call_delta_total < -call_floor:
            return STATUS_IMPROVEMENT
    return STATUS_NEUTRAL


def _compare(phase: str, base: MarkerChurn | None, cand: MarkerChurn | None, limits: tuple) -> ChurnDelta:
    """One phase's delta under ``_limits(thresholds)``; a missing record makes it a new or removed phase.
    An unchanged phase (equal records) is neutral without arithmetic, as ``_classify(x, x, 0, limits)`` is
    under every checked ``Thresholds`` (``rel``, ``abs_floor`` and ``call_floor`` >= 0)."""
    if base is None:
        status = STATUS_NEW_PHASE
    elif cand is None:
        status = STATUS_REMOVED_PHASE
    elif base == cand:
        status = STATUS_NEUTRAL
    else:
        status = _classify(base.cost_micro, cand.cost_micro, cand.total_calls - base.total_calls, limits)
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
    base, cand, limits = baseline.merged, candidate.merged, _limits(th)
    deltas = [_compare(phase, base.get(phase), cand.get(phase), limits) for phase in sorted(base.keys() | cand.keys())]
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
    report: each row encoded and written into one buffer as it is made
    (``_document``), then ``_VERDICT_TAIL`` filled. A non-finite threshold
    raises ValueError, and so does a row record ``parse_verdict`` would
    refuse on its own (``_churn_text``), named as ``deltas[i]`` and its
    side."""
    th, deltas = verdict.thresholds, verdict.deltas
    tail = _VERDICT_TAIL.text % (
        "true" if verdict.regression_detected else "false", _fixed(float(th.abs_floor)),
        "null" if th.call_floor is None else th.call_floor, _fixed(float(th.rel)),
    )
    buf = io.BytesIO()
    try:
        _document(buf.write, _VERDICT_HEAD.text, map(_delta_text, deltas), tail)
    except _Unwritable as exc:
        label = next(f"deltas[{i}] {side}" for i, d in enumerate(deltas)
                     for side, r in (("baseline", d.baseline), ("candidate", d.candidate)) if r is exc.record)
        raise ValueError(f"cannot serialize {label}: {exc}") from None
    return buf.getvalue()


def _read_row(slots: tuple[Any, ...]) -> tuple[str, str, MarkerChurn | None, MarkerChurn | None]:
    """A verdict row's phase, its status as written and its two records, from
    the slot texts of ``_ROW`` (each record's ten, or None for null). An
    unchanged phase's record is read once: when the two records' slot texts
    are equal, one record is built and both sides hold it."""
    phase, base_slots, cand_slots = slots[20], slots[:10], slots[10:20]
    base = None if base_slots[0] is None else _record(base_slots + (None, None))
    cand = base if cand_slots == base_slots else None if cand_slots[0] is None else _record(cand_slots + (None, None))
    return phase if "\\" not in phase else _unquote(phase), slots[21], base, cand


def parse_verdict(data: bytes | str) -> RegressionVerdict:
    """Parse a verdict, accepting it only in the canonical bytes ``serialize_verdict`` writes.

    It is read as ``parse_report`` reads a report. Only the thresholds and
    the rows' records are data; the rules are the thresholds' and, per row,
    an unrepeated phase, its records' cost rules and names, and one record at
    least. Each status and ``regression_detected`` are recomputed, so a
    hand-edited one is named at its slot, in the byte-level message form.
    """
    text, _, rows, tail = _read_document(data, _VERDICT, _read_row)
    flag, abs_floor, call_floor, rel = tail.groups()
    try:
        thresholds = Thresholds(float(rel), float(abs_floor), None if call_floor == "null" else int(call_floor))
    except ValueError as exc:
        raise ReportError(f"verdict has invalid thresholds: {exc}") from None
    _check_written(tail, 2, _fixed(thresholds.abs_floor), "verdict", "abs_floor")
    _check_written(tail, 4, _fixed(thresholds.rel), "verdict", "rel")
    deltas: list[ChurnDelta] = []
    phases: set[str] = set()
    limits = _limits(thresholds)
    for i, (phase, status, base, cand) in enumerate(rows):
        if phase in phases:
            raise ReportError(f"deltas[{i}] repeats phase {phase!r}")
        phases.add(phase)
        for side, record in (("baseline", base), ("candidate", None if cand is base else cand)):
            if record is not None:
                fault = _charge_fault(record)
                if fault:
                    raise ReportError(f"deltas[{i}] {side} {fault}")
                if record.name != phase:
                    raise ReportError(f"deltas[{i}] {side} record is named {record.name!r}, not {phase!r}")
        if base is None and cand is None:
            raise ReportError(f"deltas[{i}] carries neither a baseline nor a candidate record")
        delta = _compare(phase, base, cand, limits)
        if delta.status != status:  # named at its slot: each row holds the key's literal once
            at = [m.end() for m in re.finditer(re.escape(_ROW.text.split("%s")[-2]), text)][i]
            raise _fault(text, at, f"deltas[{i}]", _quote(delta.status), "status")
        deltas.append(delta)
    verdict = RegressionVerdict(thresholds, deltas)
    _check_written(tail, 1, "true" if verdict.regression_detected else "false", "verdict", "regression_detected")
    return verdict
