import json
import math
import random
import re

import pytest

from churnscope import (
    AllocFnKind,
    ChurnDelta,
    ChurnReport,
    MarkerChurn,
    RecordingSession,
    ReportError,
    TracingAllocator,
    default_cost_model,
    diff_reports,
    marker,
    parse_report,
    serialize_report,
    serialize_verdict,
)
from churnscope import report as report_module
from churnscope.report import STATUSES, ReportTotals, _Micro, canonical_bytes, format_cost

from factories import report_with_units

GOLDEN = """\
{
  "build_id": "b1",
  "cost_model": {
    "model_version": "paper-v1",
    "weights": {
      "calloc": 2.000000,
      "free": 1.000000,
      "malloc": 1.000000,
      "realloc": 3.000000
    }
  },
  "counters": {
    "anomaly_count": 0,
    "bytes_allocated": 1024,
    "bytes_freed": 1024,
    "live_blocks": 0,
    "live_bytes": 0,
    "overflow_count": 0
  },
  "created_at": "2026-01-01T00:00:00Z",
  "phases": {
    "demo": {
      "auto_closed": false,
      "bytes_allocated": 1024,
      "bytes_freed": 1024,
      "calls": {
        "calloc": 0,
        "free": 1,
        "malloc": 1,
        "realloc": 0
      },
      "cost": 20.000000,
      "name": "demo",
      "overflow": false
    }
  },
  "schema_version": "1",
  "threads": [
    {
      "auto_closed": false,
      "bytes_allocated": 1024,
      "bytes_freed": 1024,
      "calls": {
        "calloc": 0,
        "free": 1,
        "malloc": 1,
        "realloc": 0
      },
      "cost": 20.000000,
      "name": "demo",
      "overflow": false,
      "span_id": "main/000000",
      "thread_id": "main"
    }
  ]
}
"""


def golden_report():
    session = RecordingSession(build_id="b1", created_at="2026-01-01T00:00:00Z")
    rec = session.recorder("main")
    heap = TracingAllocator(rec)
    with marker(rec, "demo"):
        heap.free(heap.malloc(1024))
    session.seal_all()
    return session.build_report()


def test_serialize_matches_golden_bytes():
    assert serialize_report(golden_report()) == GOLDEN.encode("utf-8")


def test_round_trip_is_byte_identical():
    data = serialize_report(golden_report())
    assert serialize_report(parse_report(data)) == data


def test_equal_reports_serialize_identically():
    a = report_with_units({"alpha": 3, "beta": 5})
    b = report_with_units({"alpha": 3, "beta": 5})
    assert serialize_report(a) == serialize_report(b)


def test_costs_render_fixed_point_six_decimals():
    data = serialize_report(report_with_units({"p": 1})).decode()
    assert '"cost": 10.000000' in data


def test_non_dyadic_costs_round_trip():
    session = RecordingSession(build_id="b", created_at="2026-01-01T00:00:00Z")
    rec = session.recorder("main")
    heap = TracingAllocator(rec)
    rng = random.Random(5001)
    with marker(rec, "awkward"):
        for _ in range(50):
            heap.free(heap.malloc(rng.randrange(3, 99999)))
    session.seal_all()
    data = serialize_report(session.build_report())
    assert serialize_report(parse_report(data)) == data


def test_parse_rejects_unknown_schema_version():
    doc = json.loads(serialize_report(golden_report()))
    doc["schema_version"] = "99"
    with pytest.raises(ReportError, match="schema_version"):
        parse_report(json.dumps(doc))


def test_parse_reports_syntax_error_offset():
    data = serialize_report(golden_report())[:40]
    with pytest.raises(ReportError) as excinfo:
        parse_report(data)
    assert excinfo.value.offset is not None
    assert "offset" in str(excinfo.value)


def test_parse_rejects_merge_inconsistency():
    doc = json.loads(serialize_report(golden_report()))
    doc["phases"]["demo"]["cost"] += 0.5
    with pytest.raises(ReportError, match="merge-consistency"):
        parse_report(json.dumps(doc))


def test_parse_rejects_call_count_mismatch():
    doc = json.loads(serialize_report(golden_report()))
    doc["phases"]["demo"]["calls"]["malloc"] += 1
    with pytest.raises(ReportError, match="call counts"):
        parse_report(json.dumps(doc))


def _two_part_golden():
    """The golden report with its span repeated: phase 'demo' is the sum of two parts."""
    doc = json.loads(GOLDEN)
    second = dict(doc["threads"][0], span_id="main/000001")
    doc["threads"].append(second)
    phase = doc["phases"]["demo"]
    phase.update(cost=40.0, bytes_allocated=2048, bytes_freed=2048, calls={"calloc": 0, "free": 2, "malloc": 2, "realloc": 0})
    return doc


def _only_in_phases(doc):
    doc["phases"]["extra"] = dict(doc["phases"]["demo"], name="extra")


def _only_in_threads(doc):
    doc["threads"].append(dict(doc["threads"][0], name="extra", span_id="main/000001"))


def _set_in(*path_and_value):
    *path, key, value = path_and_value

    def edit(doc):
        for step in path:
            doc = doc[step]
        doc[key] = value

    return edit


_MERGE_FAULT = "merge-consistency failure for 'demo': "
_NAME_FAULT = "phases and per-thread records disagree on phase names: 'extra'"


@pytest.mark.parametrize(
    "two_parts, edit, message",
    [
        (False, _set_in("phases", "demo", "cost", 20.5), _MERGE_FAULT + "cost is not the sum of parts"),
        (False, _set_in("phases", "demo", "calls", "malloc", 2), _MERGE_FAULT + "call counts differ"),
        (False, _set_in("phases", "demo", "bytes_allocated", 1025), _MERGE_FAULT + "byte totals differ"),
        (False, _set_in("phases", "demo", "bytes_freed", 1023), _MERGE_FAULT + "byte totals differ"),
        (False, _set_in("phases", "demo", "overflow", True), _MERGE_FAULT + "flags differ"),
        (False, _set_in("threads", 0, "overflow", True), _MERGE_FAULT + "flags differ"),
        (False, _set_in("phases", "demo", "auto_closed", True), _MERGE_FAULT + "flags differ"),
        (False, _set_in("threads", 0, "auto_closed", True), _MERGE_FAULT + "flags differ"),
        (False, _only_in_phases, _NAME_FAULT),
        (False, _only_in_threads, _NAME_FAULT),
        (True, lambda doc: None, None),
        (True, _set_in("threads", 1, "cost", 20.000001), _MERGE_FAULT + "cost is not the sum of parts"),
        (True, _set_in("threads", 1, "calls", "free", 2), _MERGE_FAULT + "call counts differ"),
        (True, _set_in("threads", 1, "bytes_freed", 1000), _MERGE_FAULT + "byte totals differ"),
        (True, _set_in("threads", 1, "auto_closed", True), _MERGE_FAULT + "flags differ"),
    ],
    ids=[
        "phase-cost", "phase-calls", "phase-bytes-allocated", "phase-bytes-freed", "phase-overflow",
        "thread-overflow", "phase-auto-closed", "thread-auto-closed", "name-only-in-phases",
        "name-only-in-threads", "two-parts-consistent", "two-parts-cost", "two-parts-calls",
        "two-parts-bytes", "two-parts-auto-closed",
    ],
)
def test_parse_names_each_merge_fault(two_parts, edit, message):
    doc = _two_part_golden() if two_parts else json.loads(GOLDEN)
    edit(doc)
    if message is None:
        parse_report(json.dumps(doc))
        return
    with pytest.raises(ReportError) as excinfo:
        parse_report(json.dumps(doc))
    assert str(excinfo.value) == message


def test_parse_rejects_negative_counters():
    doc = json.loads(serialize_report(golden_report()))
    doc["counters"]["anomaly_count"] = -1
    with pytest.raises(ReportError, match="negative"):
        parse_report(json.dumps(doc))


def test_parse_rejects_negative_calls():
    doc = json.loads(serialize_report(golden_report()))
    doc["phases"]["demo"]["calls"]["free"] = -1
    doc["threads"][0]["calls"]["free"] = -1
    with pytest.raises(ReportError, match="negative"):
        parse_report(json.dumps(doc))


def test_parse_rejects_duplicate_keys():
    data = serialize_report(golden_report()).decode()
    data = data.replace('"build_id": "b1",', '"build_id": "b1",\n  "build_id": "b2",', 1)
    with pytest.raises(ReportError, match="duplicate"):
        parse_report(data)


@pytest.mark.parametrize(
    "old, new",
    [('"build_id": "b1"', '"build_id": "\\ud800"'), ('"demo"', '"x\\uDFFF"'), ('"b1"', '"\\ud83d\\u0041"')],
    ids=["build_id", "phase", "high-then-ascii"],
)
def test_parse_rejects_lone_surrogate_escapes(old, new):
    with pytest.raises(ReportError, match="not valid Unicode"):
        parse_report(GOLDEN.replace(old, new))


def test_parse_rejects_raw_surrogates():
    with pytest.raises(ReportError, match="not valid Unicode"):
        parse_report(GOLDEN.replace('"b1"', '"\ud800"'))
    with pytest.raises(ReportError, match="UTF-8"):
        parse_report(GOLDEN.encode().replace(b'"b1"', '"\ud800"'.encode("utf-8", "surrogatepass")))


def test_parse_accepts_escaped_surrogate_pair():
    report = parse_report(GOLDEN.replace('"b1"', '"\\ud83d\\ude00"'))
    assert report.build_id == "\U0001F600"
    assert serialize_report(report) == GOLDEN.replace("b1", "\U0001F600").encode()


def test_parse_rejects_zero_calls_nonzero_cost():
    doc = json.loads(serialize_report(golden_report()))
    for record in (doc["phases"]["demo"], doc["threads"][0]):
        record["calls"] = {k: 0 for k in record["calls"]}
        record["cost"] = 3.0
        record["bytes_allocated"] = 0
        record["bytes_freed"] = 0
    with pytest.raises(ReportError, match="zero calls"):
        parse_report(json.dumps(doc))


def test_parse_rejects_thread_attribution_on_merged_record():
    doc = json.loads(serialize_report(golden_report()))
    doc["phases"]["demo"]["thread_id"] = "main"
    with pytest.raises(ReportError, match="thread attribution"):
        parse_report(json.dumps(doc))


def test_parse_rejects_phase_name_key_mismatch():
    doc = json.loads(serialize_report(golden_report()))
    doc["phases"]["other"] = doc["phases"].pop("demo")
    with pytest.raises(ReportError):
        parse_report(json.dumps(doc))


def test_parse_rejects_missing_fields():
    doc = json.loads(serialize_report(golden_report()))
    del doc["counters"]
    with pytest.raises(ReportError, match="counters"):
        parse_report(json.dumps(doc))


def test_parse_rejects_duplicate_span_ids():
    doc = json.loads(serialize_report(golden_report()))
    # A second copy of the one span, with the phase total doubled to match, so
    # only the repeated span_id is wrong.
    doc["threads"].append(dict(doc["threads"][0]))
    phase = doc["phases"]["demo"]
    phase["cost"] *= 2
    phase["calls"] = {k: 2 * n for k, n in phase["calls"].items()}
    phase["bytes_allocated"] *= 2
    phase["bytes_freed"] *= 2
    with pytest.raises(ReportError, match="span_id"):
        parse_report(json.dumps(doc))


# 400 zeros overflow a float; 5000 also pass the int-string conversion limit
# of interpreters that have one.
@pytest.mark.parametrize(
    "zeros, match", [(400, "out of range"), (5000, "invalid value|out of range")]
)
def test_parse_rejects_cost_too_large_for_a_float(zeros, match):
    data = serialize_report(golden_report()).decode()
    data = data.replace('"cost": 20.000000', '"cost": 1' + "0" * zeros, 1)
    with pytest.raises(ReportError, match=match):
        parse_report(data)


def test_parse_rejects_deeply_nested_document():
    depth = 100_000
    with pytest.raises(ReportError, match="nested too deeply"):
        parse_report("[" * depth + "]" * depth)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_parse_rejects_non_finite_literals(literal):
    data = serialize_report(golden_report()).decode()
    data = data.replace('"live_bytes": 0', f'"live_bytes": {literal}', 1)
    with pytest.raises(ReportError, match="non-finite"):
        parse_report(data)


def test_parse_revalidates_many_parts_merge():
    report = report_with_units({"p": 2})
    # split the phase across extra synthetic spans on other threads
    extra = [
        MarkerChurn(
            name="p",
            cost_micro=7_250_000,
            calls={AllocFnKind.MALLOC: 1, AllocFnKind.CALLOC: 0,
                   AllocFnKind.REALLOC: 0, AllocFnKind.FREE: 0},
            bytes_allocated=152,
            bytes_freed=0,
            thread_id=f"w{i}",
            span_id=f"w{i}/000000",
        )
        for i in range(3)
    ]
    report.per_thread.extend(extra)
    merged = report.merged["p"]
    report.merged["p"] = MarkerChurn(
        name="p",
        cost_micro=merged.cost_micro + 3 * 7_250_000,
        calls={k: merged.calls[k] + (3 if k is AllocFnKind.MALLOC else 0) for k in AllocFnKind},
        bytes_allocated=merged.bytes_allocated + 3 * 152,
        bytes_freed=merged.bytes_freed,
    )
    data = serialize_report(report)
    assert serialize_report(parse_report(data)) == data


def test_canonical_writer_normalizes_negative_zero():
    assert canonical_bytes(-0.0) == b"0.000000\n"
    assert canonical_bytes(-1e-9) == b"0.000000\n"


def test_canonical_writer_rejects_non_finite():
    with pytest.raises(ValueError):
        canonical_bytes(math.inf)


@pytest.mark.parametrize("doc", [{1: 2}, {"a": {None: 1}}, [{("k",): "v"}]], ids=["int", "none", "tuple"])
def test_canonical_writer_rejects_non_string_keys(doc):
    with pytest.raises(TypeError):
        canonical_bytes(doc)


def test_canonical_writer_matches_json_dumps_on_float_free_documents():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    # Any character but a surrogate, with quotes, backslashes and control characters boosted.
    text = st.text(
        st.characters(exclude_categories=("Cs",)) | st.sampled_from('"\\\x00\x1f\x7f\u2028é'), max_size=8
    )
    leaves = st.none() | st.booleans() | st.integers() | st.integers(-(2**80), 2**80) | text
    documents = st.recursive(
        leaves, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(text, inner, max_size=4)
    )

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(documents)
    def check(doc):
        want = json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
        assert canonical_bytes(doc) == want.encode()

    check()


def test_canonical_writer_sorts_keys_and_handles_utf8():
    data = canonical_bytes({"z": 1, "a": {"nested": "café"}, "m": []})
    text = data.decode("utf-8")
    assert text.index('"a"') < text.index('"m"') < text.index('"z"')
    assert "café" in text


def test_format_cost_renders_integers_exactly():
    assert format_cost(0) == "0.000000"
    assert format_cost(20_000_000) == "20.000000"
    assert format_cost(-1) == "-0.000001"
    assert format_cost(10**30 + 7) == "1000000000000000000000000.000007"


def test_cost_literals_read_back_to_the_same_integer():
    # 2**53 + 1 micro-units has no exact float, so a float parse would move it.
    micro = 2**53 + 1
    report = report_with_units({"p": 1})
    part = report.per_thread[0]
    report.per_thread[0] = part._replace(cost_micro=micro)
    report.merged["p"] = report.merged["p"]._replace(cost_micro=micro)
    data = serialize_report(report)
    assert f'"cost": {format_cost(micro)}'.encode() in data
    parsed = parse_report(data)
    assert parsed.merged["p"].cost_micro == micro
    assert parsed.per_thread[0].cost_micro == micro
    assert serialize_report(parsed) == data


@pytest.mark.parametrize(
    "literal, match",
    [
        ("20.0000001", "not a whole number of micro-units"),
        ("2e-7", "not a whole number of micro-units"),
        ("1e-999999999", "not a whole number of micro-units"),
        ("1." + "0" * 500 + "1", "not a whole number of micro-units"),
        ("1e400", "out of range"),
        ("1e99999999999999999999", "invalid value"),
        ("-1.000000", "negative cost"),
        ('"20"', "wrong type"),
        ("true", "wrong type"),
    ],
)
def test_parse_rejects_cost_literals_that_are_not_micro_units(literal, match):
    data = GOLDEN.replace('"cost": 20.000000', f'"cost": {literal}')
    with pytest.raises(ReportError, match=match):
        parse_report(data)


def test_parse_accepts_equal_cost_literals_in_other_forms():
    data = GOLDEN.replace('"cost": 20.000000', '"cost": 2.0e1').replace('"cost": 2.0e1', '"cost": 20', 1)
    assert serialize_report(parse_report(data)) == GOLDEN.encode()


def test_parse_rejects_unknown_call_kind():
    doc = json.loads(serialize_report(golden_report()))
    for record in (doc["phases"]["demo"], doc["threads"][0]):
        record["calls"]["mmap"] = 0
    with pytest.raises(ReportError, match="unknown kinds \\['mmap'\\]"):
        parse_report(json.dumps(doc))


@pytest.mark.parametrize(
    "path, what",
    [
        ((), "report"),
        (("cost_model",), "cost_model"),
        (("phases", "demo"), "phase 'demo'"),
        (("threads", 0), "threads[0]"),
        (("counters",), "counters"),
    ],
    ids=["top", "cost_model", "phase", "thread", "counters"],
)
def test_parse_rejects_unknown_fields(path, what):
    # The schema allows no other field at any of these levels; a dropped field would be lost silently.
    doc = json.loads(GOLDEN)
    target = doc
    for key in path:
        target = target[key]
    target["note"] = [1]
    with pytest.raises(ReportError, match=f"^{re.escape(what)} has unknown field 'note'$"):
        parse_report(json.dumps(doc))


RECORD_FIELDS = ("name", "cost", "calls", "bytes_allocated", "bytes_freed", "overflow", "auto_closed")
CALL_KINDS = ("malloc", "calloc", "realloc", "free")


def _delete(key):
    return lambda record: record.pop(key)


def _set(key, value):
    return lambda record: record.update({key: value})


def _set_call(kind, value):
    return lambda record: record["calls"].update({kind: value})


def _zero_calls(record):
    record["calls"] = dict.fromkeys(CALL_KINDS, 0)


def _single_faults(thread):
    """(id, edit, message after the record's name) for one fault in a phase or thread record."""
    fields = RECORD_FIELDS + (("thread_id", "span_id") if thread else ())
    cases = [(f"missing-{key}", _delete(key), f"is missing required field {key!r}") for key in fields]
    cases += [
        (f"missing-calls-{kind}", lambda r, kind=kind: r["calls"].pop(kind), f"calls is missing required field {kind!r}")
        for kind in CALL_KINDS
    ]
    wrong = [("name", 1), ("cost", "20"), ("cost", True), ("calls", [1]), ("bytes_allocated", True),
             ("bytes_freed", 1.5), ("overflow", 0), ("auto_closed", None)]
    if thread:
        wrong += [("thread_id", 7), ("span_id", None)]
    cases += [(f"type-{key}-{value!r}", _set(key, value), f"field {key!r} has the wrong type") for key, value in wrong]
    cases += [(f"type-calls-{kind}", _set_call(kind, True), f"calls field {kind!r} has the wrong type")
              for kind in CALL_KINDS]
    cases += [(f"negative-{kind}", _set_call(kind, -1), f"has negative {kind} count") for kind in CALL_KINDS]
    cases += [(f"negative-{key}", _set(key, -1), "has negative byte totals") for key in ("bytes_allocated", "bytes_freed")]
    cases += [
        ("negative-cost", _set("cost", -1.0), "has negative cost"),
        ("fractional-cost", _set("cost", 20.0000001),
         "field 'cost' is out of range or not a whole number of micro-units"),
        ("unknown-kind", _set_call("mmap", 0), "calls has unknown kinds ['mmap']"),
        ("zero-calls", _zero_calls, "has zero calls but nonzero cost"),
    ]
    if not thread:
        cases += [(f"merged-{key}", _set(key, "main"), "is merged and must not carry thread attribution")
                  for key in ("thread_id", "span_id")]
    return [pytest.param(thread, edit, message, id=f"{'thread' if thread else 'phase'}-{name}")
            for name, edit, message in cases]


@pytest.mark.parametrize("thread, edit, message", _single_faults(False) + _single_faults(True))
def test_parse_names_each_single_record_fault(thread, edit, message):
    doc = json.loads(GOLDEN)
    record, what = (doc["threads"][0], "threads[0]") if thread else (doc["phases"]["demo"], "phase 'demo'")
    edit(record)
    with pytest.raises(ReportError) as excinfo:
        parse_report(json.dumps(doc))
    assert str(excinfo.value) == f"{what} {message}"


def _record_as_dict(record):
    """The document a record is written as, built field by field for the generic writer."""
    doc = {
        "name": record.name,
        "cost": _Micro(record.cost_micro),
        "calls": {kind.value: n for kind, n in record.calls.items()},
        "bytes_allocated": record.bytes_allocated,
        "bytes_freed": record.bytes_freed,
        "overflow": record.overflow,
        "auto_closed": record.auto_closed,
    }
    if record.thread_id is not None or record.span_id is not None:
        doc["thread_id"] = record.thread_id
        doc["span_id"] = record.span_id
    return doc


def test_record_writer_matches_generic_writer():
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings
    from hypothesis import strategies as st

    text = st.text(
        st.characters(exclude_categories=("Cs",)) | st.sampled_from('"\\\x00\x1f\x7f\u2028é☃\U0001F600'), max_size=12
    )
    count = st.integers(0, 2**40) | st.integers(0, 10**40)
    records = st.builds(
        MarkerChurn,
        name=text,
        cost_micro=st.integers(-(10**30), 10**30),
        calls=st.fixed_dictionaries({kind: count for kind in AllocFnKind}),
        bytes_allocated=count,
        bytes_freed=count,
        overflow=st.booleans(),
        auto_closed=st.booleans(),
        thread_id=st.none() | text,
        span_id=st.none() | text,
    )
    quoted = MarkerChurn('a "b" \\c\n é☃', 10**25 + 1, dict.fromkeys(AllocFnKind, 10**30), 2**64, 0, True, False)

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(records)
    @example(quoted)
    @example(quoted._replace(overflow=False, auto_closed=True, thread_id="t\u00e9", span_id='t"/000001'))
    def check(record):
        plain = _record_as_dict(record)
        # A report holds records two levels deep, a verdict three.
        for shape in (
            lambda r: {"phases": {record.name: r}, "threads": [r]},
            lambda r: {"deltas": [{"baseline": r, "candidate": None, "phase": record.name}]},
        ):
            assert canonical_bytes(shape(record)) == canonical_bytes(shape(plain))

    check()


def _delta_as_dict(delta):
    """The document a verdict row is written as, built field by field for the generic writer."""
    return {
        "phase": delta.phase,
        "status": delta.status,
        "baseline": None if delta.baseline is None else _record_as_dict(delta.baseline),
        "candidate": None if delta.candidate is None else _record_as_dict(delta.candidate),
        "cost_delta_abs": _Micro(delta.cost_delta_micro),
        "cost_delta_rel": delta.cost_delta_rel,
        "call_delta": {kind.value: n for kind, n in delta.call_delta.items()},
        "bytes_allocated_delta": delta.bytes_allocated_delta,
        "bytes_freed_delta": delta.bytes_freed_delta,
    }


def test_row_writer_matches_generic_writer():
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings
    from hypothesis import strategies as st

    text = st.text(
        st.characters(exclude_categories=("Cs",)) | st.sampled_from('"\\\x00\x1f\x7f\u2028é☃\U0001F600'), max_size=12
    )
    count = st.integers(0, 2**40) | st.integers(0, 10**40)
    delta = st.integers(-(2**40), 2**40) | st.integers(-(10**40), 10**40)
    records = st.builds(
        MarkerChurn,
        name=text,
        cost_micro=st.integers(0, 10**40),
        calls=st.fixed_dictionaries({kind: count for kind in AllocFnKind}),
        bytes_allocated=count,
        bytes_freed=count,
        overflow=st.booleans(),
        auto_closed=st.booleans(),
    )
    rows = st.builds(
        ChurnDelta,
        phase=text,
        status=st.sampled_from(STATUSES),
        baseline=st.none() | records,
        candidate=st.none() | records,
        cost_delta_micro=delta,
        cost_delta_rel=st.none() | st.floats(allow_nan=False, allow_infinity=False),
        call_delta=st.fixed_dictionaries({kind: delta for kind in AllocFnKind}),
        bytes_allocated_delta=delta,
        bytes_freed_delta=delta,
    )
    record = MarkerChurn('a "b" \\c\n é☃', 10**25 + 1, dict.fromkeys(AllocFnKind, 10**30), 2**64, 0, True, False)
    calls = dict.fromkeys(AllocFnKind, -(10**40))
    quoted = ChurnDelta('a "b" \\c\n é☃', "regression", record, record, -(10**40), -0.5, calls, -1, -(10**40))

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(rows)
    @example(quoted)
    @example(quoted._replace(baseline=None, cost_delta_rel=None, status="new_phase"))
    @example(quoted._replace(candidate=None, cost_delta_rel=None, status="removed_phase"))
    @example(quoted._replace(cost_delta_rel=-0.0000004, cost_delta_micro=0))
    def check(row):
        plain = _delta_as_dict(row)
        # A verdict holds its rows two levels deep; a row also writes at the top level.
        assert canonical_bytes({"deltas": [row]}) == canonical_bytes({"deltas": [plain]})
        assert canonical_bytes(row) == canonical_bytes(plain)

    check()


def _verdict_of(n):
    """A verdict of n rows: every phase's cost doubles."""
    calls = dict.fromkeys(AllocFnKind, 1)
    base = {f"p{i:04d}": MarkerChurn(f"p{i:04d}", 1_000_000 + i, calls) for i in range(n)}
    cand = {name: r._replace(cost_micro=2 * r.cost_micro) for name, r in base.items()}
    model = default_cost_model()
    return diff_reports(
        ChurnReport("b", "t", model, base, [], ReportTotals()), ChurnReport("c", "t", model, cand, [], ReportTotals())
    )


def test_verdict_rows_are_not_written_as_generic_dicts(monkeypatch):
    # Deterministic guard for the row writer: the generic dict writer runs a
    # fixed number of times per verdict (the document and its thresholds),
    # however many rows it holds.
    calls = []
    write_dict = report_module._write_dict

    def counting(value, out, nl):
        calls.append(len(value))
        write_dict(value, out, nl)

    monkeypatch.setattr(report_module, "_write_dict", counting)
    counts = []
    for n in (2, 2000):
        verdict = _verdict_of(n)
        assert len(verdict.deltas) == n
        calls.clear()
        serialize_verdict(verdict)
        counts.append(len(calls))
    assert counts[0] == counts[1] == 2


def test_documents_hold_no_named_tuples_but_records_and_rows():
    # The writer writes any other tuple subclass (ReportTotals, Thresholds) as
    # a list, so the documents must hold those as dicts.
    def tuple_types(value):
        if isinstance(value, dict):
            return set().union(*map(tuple_types, value.values()))
        if type(value) in (list, tuple):
            return set().union(*map(tuple_types, value))
        return {type(value)} if isinstance(value, tuple) else set()

    assert tuple_types(report_module.report_doc(golden_report())) == {MarkerChurn}
    assert tuple_types(report_module.verdict_doc(_verdict_of(2))) == {ChurnDelta}
