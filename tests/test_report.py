import gc
import json
import math
import random
import re
import sys
import tracemalloc

import pytest

from churnscope import (
    AllocFnKind,
    ChurnDelta,
    ChurnReport,
    CostModel,
    MarkerChurn,
    RecordingSession,
    RegressionVerdict,
    ReportError,
    Thresholds,
    TracingAllocator,
    WorkloadSpec,
    diff_reports,
    marker,
    merge_phases,
    parse_report,
    parse_verdict,
    run_workload,
    serialize_report,
    write_report,
    serialize_verdict,
)
import churnscope.report as report_module
from churnscope.report import (
    _BOOL, _COUNT, _FIXED, _FLOOR, _HEADER, _ROW_RECORD, _STRING, _THREAD_RECORD, _VERDICT_TAIL, STATUSES, ReportTotals,
    format_cost,
)
from churnscope.workloads import VARIANTS, workload_names

from factories import Literal, canonical_json, first_difference, float_literal, report_with_units

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
  "schema_version": "2",
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


# The golden report as schema "1" wrote it: the same parts, plus a stored
# copy of each merged phase.
GOLDEN_V1 = GOLDEN.replace('  "schema_version": "2",\n', """\
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
""")


def golden_report():
    session = RecordingSession(build_id="b1", created_at="2026-01-01T00:00:00Z")
    rec = session.recorder("main")
    heap = TracingAllocator(rec)
    with marker(rec, "demo"):
        heap.free(heap.malloc(1024))
    session.seal_all()
    return session.build_report()


# The golden report against itself: one neutral row, whose two records are phase 'demo' merged.
GOLDEN_VERDICT_BYTES = serialize_verdict(diff_reports(golden_report(), golden_report()))


def golden_verdict_doc():
    return json.loads(GOLDEN_VERDICT_BYTES, parse_float=Literal)


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


GOLDEN_BYTES = GOLDEN.encode()


def golden_doc():
    """The golden report as a document, each cost and weight literal kept as written."""
    return json.loads(GOLDEN, parse_float=Literal)


def rejected_at(data, parse=parse_report, label=None, key=None):
    """Parse ``data``, which must be refused for its bytes; return the byte
    offset the error names. With ``label``, the error must name that place,
    and the field ``key`` if one is given."""
    with pytest.raises(ReportError) as excinfo:
        parse(data)
    offset, message = excinfo.value.offset, str(excinfo.value)
    assert offset is not None and f" is not in canonical form at byte {offset}: expected " in message
    if label is not None:
        assert message.startswith(label + ("" if key is None else f" field {key!r}") + " is not in canonical form")
    assert "\n" not in message
    return offset


def test_parse_rejects_unknown_schema_version():
    doc = golden_doc()
    doc["schema_version"] = "99"
    with pytest.raises(ReportError, match="schema_version"):
        parse_report(canonical_json(doc))


def test_parse_reports_syntax_error_offset():
    # A document that stops short is named where it stops.
    data = serialize_report(golden_report())[:40]
    assert rejected_at(data, label="report") == 40


def test_syntax_error_offset_counts_bytes():
    # "é" is two bytes in UTF-8: the fault after a build_id of five sits five bytes past its character.
    data = GOLDEN.replace('"b1"', '"ééééé"').replace('"cost_model": {', '"cost_model" {')
    at = data.index('"cost_model" {') + len('"cost_model"')
    for given in (data, data.encode()):
        assert rejected_at(given, label="report") == len(data[:at].encode()) == at + 5


def _two_part_golden():
    """The golden report with its span repeated: phase 'demo' is the sum of two parts."""
    doc = golden_doc()
    first = doc["threads"][0]
    doc["threads"].append(dict(first, span_id="main/000001", calls=dict(first["calls"])))
    return doc


def _only_in_threads(doc):
    doc["threads"].append(dict(doc["threads"][0], name="extra", span_id="main/000001"))


def _set_in(*path_and_value):
    *path, key, value = path_and_value

    def edit(doc):
        for step in path:
            doc = doc[step]
        doc[key] = value

    return edit


def _demo(cost_micro=20_000_000, malloc=1, free=1, allocated=1024, freed=1024, auto_closed=False, name="demo"):
    """The golden phase 'demo' as the reader merges it, with the given sums."""
    return MarkerChurn(name, cost_micro, malloc, 0, 0, free, allocated, freed, False, auto_closed)


_HALF_PAST_BOUND = int(sys.float_info.max) // 2 + 1  # each part's cost in range, their sum past it


# A report stores only its parts; each phase is merged from them when the
# report is read. Each edit below leaves a report that parses and writes back
# byte for byte, and its merged phases hold the parts' sums, with flags OR'd.
# The one merge fault left is a sum past the largest cost, named by its phase.
@pytest.mark.parametrize(
    "two_parts, edit, merged",
    [
        (False, _set_in("threads", 0, "overflow", True), {"demo": _demo()._replace(overflow=True)}),
        (False, _set_in("threads", 0, "auto_closed", True), {"demo": _demo(auto_closed=True)}),
        (False, _only_in_threads, {"demo": _demo(), "extra": _demo(name="extra")}),
        (True, lambda doc: None, {"demo": _demo(40_000_000, 2, 2, 2048, 2048)}),
        (True, _set_in("threads", 1, "cost", 20.000001), {"demo": _demo(40_000_001, 2, 2, 2048, 2048)}),
        (True, _set_in("threads", 1, "calls", "free", 2), {"demo": _demo(40_000_000, 2, 3, 2048, 2048)}),
        (True, _set_in("threads", 1, "bytes_freed", 1000), {"demo": _demo(40_000_000, 2, 2, 2048, 2024)}),
        (True, _set_in("threads", 1, "auto_closed", True), {"demo": _demo(40_000_000, 2, 2, 2048, 2048, True)}),
        (True, lambda doc: [part.update(cost=Literal(format_cost(_HALF_PAST_BOUND))) for part in doc["threads"]],
         "phase 'demo' field 'cost' is out of range or not a whole number of micro-units"),
    ],
    ids=[
        "thread-overflow", "thread-auto-closed", "name-only-in-threads", "two-parts-consistent", "two-parts-cost",
        "two-parts-calls", "two-parts-bytes", "two-parts-auto-closed", "two-parts-sum-past-bound",
    ],
)
def test_parse_names_each_merge_fault(two_parts, edit, merged):
    doc = _two_part_golden() if two_parts else golden_doc()
    edit(doc)
    data = canonical_json(doc)
    if isinstance(merged, str):
        with pytest.raises(ReportError) as excinfo:
            parse_report(data)
        assert str(excinfo.value) == merged
    else:
        report = parse_report(data)
        assert report.merged == merged and list(report.merged) == sorted(merged)
        assert serialize_report(report) == data


def test_parse_rejects_negative_counters():
    doc = golden_doc()
    doc["counters"]["anomaly_count"] = -1
    data = canonical_json(doc)
    assert rejected_at(data, label="report", key="anomaly_count") == data.index(b"-1")


@pytest.mark.parametrize(
    "old, new, label, key",
    [('"anomaly_count": 0,', '"anomaly_count": 5.0,', "report", "anomaly_count"),
     ('"malloc": 1,', '"malloc": 5.0,', "threads[0]", "malloc")],
)
def test_parse_rejects_a_count_written_as_a_float(old, new, label, key):
    # 5.0 is no count: the count's slot is where the bytes depart from the writer's template.
    data = GOLDEN.replace(old, new)
    assert rejected_at(data, label=label, key=key) == data.index("5.0")


def test_parse_rejects_negative_calls():
    doc = golden_doc()
    doc["threads"][0]["calls"]["free"] = -1
    data = canonical_json(doc)
    assert rejected_at(data, label="threads[0]", key="free") == data.index(b"-1")


def test_parse_rejects_duplicate_keys():
    data = GOLDEN.replace('"build_id": "b1",', '"build_id": "b1",\n  "build_id": "b2",', 1)
    # The second copy of the key departs from the template where "cost_model" belongs.
    assert rejected_at(data, label="report") == data.index('"build_id": "b2"') + 1


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


def test_parse_rejects_escaped_surrogate_pair():
    # The escape means the same string as the raw character, but the writer writes the raw one.
    raw = GOLDEN.replace("b1", "\U0001F600")
    assert parse_report(raw).build_id == "\U0001F600"
    escaped = GOLDEN.replace('"b1"', '"\\ud83d\\ude00"')
    assert rejected_at(escaped, label="report", key="build_id") == GOLDEN.index('"b1"')


@pytest.mark.parametrize("old, new, message", [
    ('"bytes_freed": 1024,\n      "calls"', '"bytes_freed": 01024,\n      "calls"',
     "threads[0] field 'bytes_freed' is not in canonical form at byte 535: expected 'a count', found '01024,"),
    ('"calloc": 0,', '"calloc": -0,',
     "threads[0] field 'calloc' is not in canonical form at byte 576: expected 'a count', found '-0,"),
    ('"cost": 20.000000', '"cost": 020.000000',
     "threads[0] field 'cost' is not in canonical form at byte 663: expected 'a number with six decimals', "
     "found '020.000000,"),
], ids=["zero-padded-count", "negative-zero-count", "zero-padded-cost"])
def test_parse_rejects_a_thread_record_number_spelled_otherwise(old, new, message):
    with pytest.raises(ReportError) as excinfo:
        parse_report(GOLDEN.replace(old, new))
    assert str(excinfo.value).startswith(message)


def test_parse_rejects_zero_calls_nonzero_cost():
    doc = golden_doc()
    record = doc["threads"][0]
    record["calls"] = {k: 0 for k in record["calls"]}
    record["cost"] = 3.0
    record["bytes_allocated"] = 0
    record["bytes_freed"] = 0
    with pytest.raises(ReportError, match=r"^threads\[0\] has zero calls but nonzero cost$"):
        parse_report(canonical_json(doc))


def test_parse_rejects_thread_attribution_on_merged_record():
    # A verdict row's records are merged phases: the writer gives them no thread or span id.
    doc = golden_verdict_doc()
    doc["deltas"][0]["candidate"].update(thread_id="main", span_id="main/000000")
    data = canonical_json(doc)
    assert rejected_at(data, parse_verdict) == first_difference(data, GOLDEN_VERDICT_BYTES)


def test_parse_rejects_phase_name_key_mismatch():
    # A merged record is written only in a verdict row, under the row's phase.
    doc = golden_verdict_doc()
    doc["deltas"][0]["phase"] = "other"
    with pytest.raises(ReportError) as excinfo:
        parse_verdict(canonical_json(doc))
    assert str(excinfo.value) == "deltas[0] baseline record is named 'demo', not 'other'"


def test_parse_rejects_missing_fields():
    doc = golden_doc()
    del doc["counters"]
    data = canonical_json(doc)
    assert rejected_at(data, label="report") == first_difference(data, GOLDEN_BYTES)


def test_parse_rejects_duplicate_span_ids():
    doc = golden_doc()
    doc["threads"].append(dict(doc["threads"][0]))  # a second copy of the one span
    with pytest.raises(ReportError, match=r"^threads\[1\] repeats span_id 'main/000000'$"):
        parse_report(canonical_json(doc))


def test_parse_rejects_threads_out_of_order():
    # One content, one byte form: swapped records would also write back to the swapped bytes.
    data = serialize_report(run_workload(WorkloadSpec("multithread", seed=1, scale=1), RecordingSession(
        build_id="b", created_at="2026-01-01T00:00:00Z")))
    doc = json.loads(data, parse_float=Literal)
    doc["threads"][0], doc["threads"][1] = doc["threads"][1], doc["threads"][0]
    with pytest.raises(ReportError, match=r"^threads\[1\] is out of order"):
        parse_report(canonical_json(doc))


def test_threads_are_ordered_by_span_number_past_six_digits():
    # Span ids are label/NNNNNN: the seven-digit id of the millionth span sorts after the others.
    doc = _two_part_golden()
    doc["threads"][1]["span_id"] = "main/1000000"
    data = canonical_json(doc)
    assert serialize_report(parse_report(data)) == data
    doc["threads"].reverse()
    with pytest.raises(ReportError, match=r"^threads\[1\] is out of order"):
        parse_report(canonical_json(doc))


# 400 zeros overflow a float; 5000 also pass the int-string conversion limit
# of interpreters that have one.
@pytest.mark.parametrize(
    "zeros, match", [(400, "out of range"), (5000, "invalid value|out of range")]
)
def test_parse_rejects_cost_too_large_for_a_float(zeros, match):
    data = GOLDEN.replace('"cost": 20.000000', '"cost": 1' + "0" * zeros + ".000000")
    with pytest.raises(ReportError, match=match):
        parse_report(data)


def test_parse_rejects_deeply_nested_document():
    depth = 100_000
    assert rejected_at("[" * depth + "]" * depth, label="report") == 0


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_parse_rejects_non_finite_literals(literal):
    data = serialize_report(golden_report()).decode()
    data = data.replace('"live_bytes": 0', f'"live_bytes": {literal}', 1)
    assert rejected_at(data, label="report", key="live_bytes") == data.index(literal)


def test_a_call_count_reads_the_same_in_every_reader():
    # A count is one int field: total_calls, the merge and the writer all read it.
    record = MarkerChurn("p", 5_000_000, malloc_calls=3, thread_id="main", span_id="main/000000")
    merged = merge_phases([record])["p"]
    assert record.total_calls == merged.total_calls == 3 and merged.calls[AllocFnKind.MALLOC] == 3
    data = serialize_report(golden_report()._replace(per_thread=[record]))
    assert b'"malloc": 3,' in data
    parsed = parse_report(data)
    assert parsed.per_thread == [record] and parsed.merged == {"p": merged}


def test_parse_revalidates_many_parts_merge():
    report = report_with_units({"p": 2})
    # Read before the in-place edit below, which a view read earlier does not see.
    merged = report.merged["p"]
    # split the phase across extra synthetic spans on other threads
    extra = [
        MarkerChurn(
            name="p",
            cost_micro=7_250_000,
            malloc_calls=1,
            bytes_allocated=152,
            bytes_freed=0,
            thread_id=f"w{i}",
            span_id=f"w{i}/000000",
        )
        for i in range(3)
    ]
    report.per_thread.extend(extra)
    data = serialize_report(report)
    parsed = parse_report(data)
    # The phase is merged from the parts on read; the report stores none of it.
    assert parsed.merged["p"] == MarkerChurn(
        name="p",
        cost_micro=merged.cost_micro + 3 * 7_250_000,
        malloc_calls=merged.malloc_calls + 3,
        calloc_calls=merged.calloc_calls,
        realloc_calls=merged.realloc_calls,
        free_calls=merged.free_calls,
        bytes_allocated=merged.bytes_allocated + 3 * 152,
        bytes_freed=merged.bytes_freed,
    )
    assert serialize_report(parsed) == data


def test_a_replaced_report_diffs_as_its_written_form():
    base = report_with_units({"work": 10})
    assert base.merged["work"].cost_micro == 100_000_000  # read, and kept, before the edit
    candidate = base._replace(per_thread=report_with_units({"work": 20}).per_thread)
    written = parse_report(serialize_report(candidate))
    verdict = diff_reports(base, candidate)
    assert serialize_verdict(verdict) == serialize_verdict(diff_reports(base, written))
    assert verdict.regression_detected


def test_the_run_path_merges_nothing_and_a_parse_merges_once(monkeypatch):
    merges = []

    def counted(parts):
        merges.append(parts)
        return merge_phases(parts)

    # Every binding of merge_phases in the package, wherever a module imported it.
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "churnscope"]:
        if getattr(module, "merge_phases", None) is merge_phases:
            monkeypatch.setattr(module, "merge_phases", counted)
    report = report_with_units({"a": 1, "b": 2})
    data = serialize_report(report)
    assert len(merges) == 0
    parsed = parse_report(data)
    assert len(merges) == 1 and parsed.merged == merge_phases(parsed.per_thread)
    merges.clear()
    serialize_verdict(diff_reports(parse_report(data), parse_report(data)))
    assert len(merges) == 2


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
    data = serialize_report(report)
    assert f'"cost": {format_cost(micro)}'.encode() in data
    parsed = parse_report(data)
    assert parsed.merged["p"].cost_micro == micro
    assert parsed.per_thread[0].cost_micro == micro
    assert serialize_report(parsed) == data


# Each literal is rejected at the cost's slot: the writer writes a cost only
# as whole micro-units with six decimals and no sign, never as a string. The
# second column says what is wrong with it.
@pytest.mark.parametrize(
    "literal, fault",
    [
        ("20.0000001", "seven decimals"),
        ("2e-7", "exponent"),
        ("1e-999999999", "exponent"),
        ("1." + "0" * 500 + "1", "501 decimals"),
        ("1e400", "exponent"),
        ("1e99999999999999999999", "exponent"),
        ("-1.000000", "negative"),
        ('"20"', "string"),
        ('"-1.000000"', "string"),
        ('"20.000000"', "string"),
        ("true", "bool"),
    ],
)
def test_parse_rejects_cost_literals_that_are_not_micro_units(literal, fault):
    data = GOLDEN.replace('"cost": 20.000000', f'"cost": {literal}')
    assert rejected_at(data, label="threads[0]", key="cost") == GOLDEN.index('"cost": 20.000000') + len('"cost": ')


def test_parse_rejects_equal_cost_literals_in_other_forms():
    data = GOLDEN.replace('"cost": 20.000000', '"cost": 2.0e1').replace('"cost": 2.0e1', '"cost": 20', 1)
    assert rejected_at(data) == GOLDEN.index('"cost": 20.000000') + len('"cost": ')


def test_parse_rejects_unknown_call_kind():
    doc = golden_doc()
    doc["threads"][0]["calls"]["mmap"] = 0
    data = canonical_json(doc)
    assert rejected_at(data) == first_difference(data, GOLDEN_BYTES) == data.index(b'"mmap"') + 1


@pytest.mark.parametrize(
    "path",
    [(), ("cost_model",), ("deltas", 0, "baseline"), ("threads", 0), ("counters",)],
    ids=["top", "cost_model", "phase", "thread", "counters"],
)
def test_parse_rejects_unknown_fields(path):
    # The schemas allow no other field at any of these levels; a dropped field would be lost silently.
    # A merged phase record is written only in a verdict's rows.
    golden, parse = (GOLDEN_VERDICT_BYTES, parse_verdict) if path[:1] == ("deltas",) else (GOLDEN_BYTES, parse_report)
    doc = json.loads(golden, parse_float=Literal)
    target = doc
    for key in path:
        target = target[key]
    target["note"] = [1]
    data = canonical_json(doc)
    assert rejected_at(data, parse) == first_difference(data, golden) == data.index(b'"note"') + 1


@pytest.mark.parametrize("value", [None, 5, True])
def test_parse_names_threads_that_are_not_an_array_at_the_document_level(value):
    # There is no threads[0] record to carry the fault, so the report does, as a verdict does for its deltas.
    doc = golden_doc()
    doc["threads"] = value
    data = canonical_json(doc)
    assert rejected_at(data, label="report") == data.index(b'"threads": ') + len(b'"threads": ')


CALL_KINDS = ("malloc", "calloc", "realloc", "free")
RECORD_FIELDS = ("name", "cost", "calls", "bytes_allocated", "bytes_freed", "overflow", "auto_closed")
AT_EDIT = "at the edit"  # the offset where the edited input first departs from the golden bytes


def _delete(key):
    return lambda record: record.pop(key)


def _set(key, value):
    return lambda record: record.update({key: value})


def _set_call(kind, value):
    return lambda record: record["calls"].update({kind: value})


def _each(*edits):
    def edit(record):
        for one in edits:
            one(record)

    return edit


def _zero_calls(record):
    record["calls"] = dict.fromkeys(CALL_KINDS, 0)


# For each slot kind, texts of other kinds: a slot is given one of them in turn.
WRONG_KIND = {
    _BOOL: ['"true"', "1", "null"],
    _COUNT: ['"5"', "-1", "5.0", "05", "true"],
    _FIXED: ["20.0000001", "-1.000000", '"1.000000"', "2e1", "1"],
    _FLOOR: ["-1", '"2"', "1.5"],
    _STRING: ["true", "5", "null"],
}


def _slot_faults():
    """(id, data, parse, expected) with one slot of a template given text of
    another kind, for each slot of the templates the goldens hold: the report
    header and thread record, a verdict row's record and the verdict tail.
    The slots are found with the template's own literals; ``expected`` is the
    label, the field and the slot's byte offset."""
    report, verdict = GOLDEN, GOLDEN_VERDICT_BYTES.decode()
    places = [
        ("header", report, parse_report, 0, _HEADER, "report"),
        ("thread", report, parse_report, report.index("[\n    {") + 6, _THREAD_RECORD, "threads[0]"),
        ("phase", verdict, parse_verdict, verdict.index('"baseline": {') + 12, _ROW_RECORD, "deltas[0] baseline"),
        ("tail", verdict, parse_verdict, verdict.index(',\n  "regression_detected"'), _VERDICT_TAIL, "verdict"),
    ]
    for place, golden, parse, at, template, label in places:
        literals = template.text.split("%s")
        slots = re.compile("(.*?)".join(map(re.escape, literals))).match(golden, at)
        for i, kind in enumerate(template.kinds):
            key = literals[i].rsplit('"', 2)[1]
            wrong = WRONG_KIND[kind][i % len(WRONG_KIND[kind])]
            data = golden[:slots.start(i + 1)] + wrong + golden[slots.end(i + 1):]
            yield f"{place}-slot-{key}-{wrong}", data, parse, (label, key, len(golden[:slots.start(i + 1)].encode()))


def _record_faults(thread):
    """(id, data, parse, expected) for one fault edited into a report's
    ``threads[0]`` or a verdict's first baseline record (a merged phase).

    A layout fault is named where the edit departs from the template. A
    rule is named by its own message, labelled with where the record sits.
    """
    label = "threads[0]" if thread else "deltas[0] baseline"
    golden, parse = (GOLDEN_BYTES, parse_report) if thread else (GOLDEN_VERDICT_BYTES, parse_verdict)
    fields = RECORD_FIELDS + (("thread_id", "span_id") if thread else ())
    cases = [(f"missing-{key}", _delete(key), AT_EDIT) for key in fields]
    cases += [(f"missing-calls-{kind}", lambda r, kind=kind: r["calls"].pop(kind), AT_EDIT) for kind in CALL_KINDS]
    cases += [
        ("type-calls-[1]", _set("calls", [1]), AT_EDIT),
        ("unknown-kind", _set_call("mmap", 0), AT_EDIT),
        ("zero-calls", _zero_calls, f"{label} has zero calls but nonzero cost"),
        ("cost-out-of-range", _set("cost", Literal("1" + "0" * 400 + ".000000")),
         f"{label} field 'cost' is out of range or not a whole number of micro-units"),
    ]
    if not thread:
        cases += [(f"merged-{key}", _set(key, "main"), AT_EDIT) for key in ("thread_id", "span_id")]
        # A merged record's ids are a layout fault, so a fault in an earlier slot is the one named.
        cases += [
            ("merged-span_id-7-negative-malloc", _each(_set("span_id", 7), _set_call("malloc", -1)), ("malloc", b"-1")),
            ("merged-thread_id-None-negative-bytes", _each(_set("thread_id", None), _set("bytes_freed", -1)),
             ("bytes_freed", b"-1")),
        ]
    for name, edit, expected in cases:
        doc = json.loads(golden, parse_float=Literal)
        edit(doc["threads"][0] if thread else doc["deltas"][0]["baseline"])
        data = canonical_json(doc)
        if expected == AT_EDIT:
            expected = (label, None, first_difference(data, golden))
        elif isinstance(expected, tuple):
            key, text = expected
            expected = (label, key, data.index(text))
        yield f"{'thread' if thread else 'phase'}-{name}", data, parse, expected


@pytest.mark.parametrize("data, parse, expected", [
    pytest.param(data, parse, expected, id=name)
    for name, data, parse, expected in [*_slot_faults(), *_record_faults(False), *_record_faults(True)]
])
def test_parse_names_each_single_record_fault(data, parse, expected):
    with pytest.raises(ReportError) as excinfo:
        parse(data)
    if isinstance(expected, str):
        assert str(excinfo.value) == expected and excinfo.value.offset is None
    else:
        label, key, offset = expected
        field = "" if key is None else f" field {key!r}"
        assert str(excinfo.value).startswith(f"{label}{field} is not in canonical form at byte {offset}: expected ")
        assert excinfo.value.offset == offset


# The writers' reference is json.dumps of the plain document (see
# canonical_json): a cost is its integer count of micro-units with exactly
# six decimals; any other number is rounded to six decimals, and a negative
# number that rounds to zero is written as 0.000000.


def _cost_literal(micro):
    whole, frac = divmod(abs(micro), 10**6)
    return Literal(f"{'-' if micro < 0 else ''}{whole}.{frac:06d}")


def _record_doc(record):
    doc = {
        "name": record.name,
        "cost": _cost_literal(record.cost_micro),
        "calls": {
            "malloc": record.malloc_calls,
            "calloc": record.calloc_calls,
            "realloc": record.realloc_calls,
            "free": record.free_calls,
        },
        "bytes_allocated": record.bytes_allocated,
        "bytes_freed": record.bytes_freed,
        "overflow": record.overflow,
        "auto_closed": record.auto_closed,
    }
    if record.thread_id is not None or record.span_id is not None:
        doc["thread_id"] = record.thread_id
        doc["span_id"] = record.span_id
    return doc


def reference_report_bytes(report):
    return canonical_json({
        "schema_version": "2",
        "build_id": report.build_id,
        "created_at": report.created_at,
        "cost_model": {
            "model_version": report.model.model_version,
            "weights": {kind.value: Literal(float_literal(w)) for kind, w in report.model.weights.items()},
        },
        "threads": [_record_doc(record) for record in report.per_thread],
        "counters": report.totals._asdict(),
    })


def reference_verdict_bytes(verdict):
    th = verdict.thresholds
    return canonical_json({
        "schema_version": "2",
        "thresholds": {
            "rel": Literal(float_literal(th.rel)),
            "abs_floor": Literal(float_literal(th.abs_floor)),
            "call_floor": th.call_floor,
        },
        "regression_detected": any(d.status == "regression" for d in verdict.deltas),
        "deltas": [
            {
                "phase": d.phase,
                "status": d.status,
                "baseline": None if d.baseline is None else _record_doc(d.baseline),
                "candidate": None if d.candidate is None else _record_doc(d.candidate),
            }
            for d in verdict.deltas
        ],
    })


def _writer_strategies():
    """Hypothesis strategies for whole reports and verdicts: names with quotes,
    backslashes, control and non-BMP characters, counts and costs past 2**64,
    non-integer weights and thresholds. Nearly every record is one its writer
    takes (a thread record with both ids, a merged one with neither, each with
    a cost >= 0 and a call if it costs), so nearly each drawn document is
    compared with json.dumps; the records a writer refuses are the tests'
    explicit examples. About half the
    rows are an unchanged phase: a neutral row named for its record, whose
    candidate is an equal record but a distinct object."""
    from hypothesis import strategies as st

    text = st.text(
        st.characters(exclude_categories=("Cs", "Co")) | st.sampled_from('"\\\x00\x1f\x7f\u2028é☃\U0001F600'),
        max_size=12,
    )
    count = st.integers(0, 2**40) | st.integers(2**64, 10**40)

    def records(ids):
        return st.builds(
            MarkerChurn,
            name=text,
            cost_micro=count,
            malloc_calls=count,
            calloc_calls=count,
            realloc_calls=count,
            free_calls=count,
            bytes_allocated=count,
            bytes_freed=count,
            overflow=st.booleans(),
            auto_closed=st.booleans(),
            thread_id=ids,
            span_id=ids,
        )

    merged = records(st.none())
    weights = st.fixed_dictionaries({kind: st.floats(0, 1e9) for kind in AllocFnKind})
    reports = st.builds(
        ChurnReport,
        build_id=text,
        created_at=text,
        model=st.builds(CostModel, weights, text.filter(bool)),  # a model's version is never empty
        per_thread=st.lists(records(text), max_size=4),
        totals=st.builds(ReportTotals, *[count] * len(ReportTotals._fields)),
    )
    rows = st.builds(
        ChurnDelta,
        phase=text,
        status=st.sampled_from(STATUSES),
        baseline=st.none() | merged,
        candidate=st.none() | merged,
    )
    unchanged = merged.map(lambda r: ChurnDelta(r.name, "neutral", r, MarkerChurn(*r)))
    thresholds = st.builds(
        Thresholds, rel=st.floats(0, 1e6), abs_floor=st.floats(0, 1e6), call_floor=st.none() | st.integers(0, 2**70)
    )
    verdicts = st.builds(RegressionVerdict, thresholds, st.lists(rows | unchanged, max_size=4))
    return reports, verdicts


def _breaks_a_record_rule(r):
    """Whether a reader refuses record ``r`` on its own: a negative cost, count
    or byte total, a cost past the largest a report holds, or a cost with no call."""
    return min(r[1:8]) < 0 or r.cost_micro > int(sys.float_info.max) or bool(r.cost_micro and not r.total_calls)


def test_report_writer_matches_json_dumps():
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings

    reports, _ = _writer_strategies()
    golden = golden_report()
    part = golden.per_thread[0]._replace(name='a "b" \\c\n é☃', thread_id="t\u00e9", span_id="t\u00e9/000000")

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(reports)
    @example(golden)
    @example(golden._replace(per_thread=[]))
    @example(golden._replace(per_thread=[part]))
    @example(golden._replace(model=CostModel({k: w * 0.37 for k, w in golden.model.weights.items()}, "scaled")))
    @example(golden._replace(per_thread=[part._replace(malloc_calls=0, free_calls=3)]))
    @example(golden._replace(per_thread=[part._replace(cost_micro=-1_000_001)]))
    @example(golden._replace(per_thread=[part, part._replace(span_id=None)]))
    def check(report):
        # The reader refuses a total that is not an int >= 0, and a record that breaks a
        # record's own rules or misses an id, in any form, so the writer refuses them.
        totals = [f for f, v in zip(ReportTotals._fields, report.totals) if type(v) is not int or v < 0]
        unwritable = [i for i, r in enumerate(report.per_thread)
                      if _breaks_a_record_rule(r) or None in (r.thread_id, r.span_id)]
        if totals or unwritable:
            refusal = (rf"^cannot serialize counters: field '{totals[0]}' " if totals
                       else rf"^cannot serialize threads\[{unwritable[0]}\]: (field |has zero calls)")
            with pytest.raises(ValueError, match=refusal):
                serialize_report(report)
            return
        data = serialize_report(report)
        assert data == reference_report_bytes(report)
        # Read back, the bytes write back as themselves, or break a rule between records.
        try:
            reread = serialize_report(parse_report(data))
        except ReportError as exc:
            assert exc.offset is None, str(exc)
        else:
            assert reread == data

    check()


def _canonical_reports():
    yield "golden", GOLDEN_BYTES
    for name in workload_names():
        for variant in VARIANTS:
            session = RecordingSession(build_id=f"{name}-{variant}", created_at="2026-01-01T00:00:00Z")
            yield f"{name}-{variant}", serialize_report(run_workload(WorkloadSpec(name, 1, 7, variant), session))
    odd = 'q"\\\x01\x1f\x7f\u2028\U0001F600'
    part = golden_report().per_thread[0]._replace(name=odd, thread_id=odd, span_id=odd + "/000000")
    yield "odd-strings", serialize_report(golden_report()._replace(per_thread=[part]))


@pytest.mark.parametrize("data", [pytest.param(data, id=label) for label, data in _canonical_reports()])
def test_the_matcher_reads_every_canonical_report(data):
    # The one reader takes every report the writer gives, and it writes back as the same bytes.
    assert serialize_report(parse_report(data)) == data


def test_verdict_writer_matches_json_dumps():
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings

    _, verdicts = _writer_strategies()
    record = MarkerChurn('a "b" \\c\n é☃', 10**25 + 1, 10**30, 10**30, 10**30, 10**30, 2**64, 0, True, False)
    row = ChurnDelta(record.name, "regression", record, record)

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(verdicts)
    @example(RegressionVerdict(Thresholds(), []))
    @example(RegressionVerdict(Thresholds(call_floor=0), [row]))
    @example(RegressionVerdict(Thresholds(rel=1, abs_floor=0.1234567, call_floor=2**70), [
        row._replace(baseline=None, status="new_phase"),
        row._replace(candidate=None, status="removed_phase"),
        row._replace(status="neutral"),
    ]))
    @example(RegressionVerdict(Thresholds(rel=-0.0, abs_floor=-0.0), [row]))
    @example(RegressionVerdict(Thresholds(), [row._replace(baseline=record._replace(
        malloc_calls=1, calloc_calls=0, realloc_calls=0, free_calls=0))]))
    @example(RegressionVerdict(Thresholds(), [row._replace(candidate=record._replace(cost_micro=-999_999))]))
    @example(RegressionVerdict(Thresholds(), [row, row._replace(baseline=record._replace(thread_id="t"))]))
    @example(RegressionVerdict(Thresholds(), [row._replace(status="neutral", candidate=MarkerChurn(*record))]))
    def check(verdict):
        # As for reports: the reader refuses a record that breaks a record's own rules or carries an id.
        unwritable = [i for i, d in enumerate(verdict.deltas) for r in (d.baseline, d.candidate)
                      if r is not None and (_breaks_a_record_rule(r) or (r.thread_id, r.span_id) != (None, None))]
        if unwritable:
            refusal = rf"^cannot serialize deltas\[{unwritable[0]}\] (baseline|candidate): "
            with pytest.raises(ValueError, match=refusal):
                serialize_verdict(verdict)
            return
        data = serialize_verdict(verdict)
        assert data == reference_verdict_bytes(verdict)
        unchanged = [d.baseline is not d.candidate and d.baseline == d.candidate for d in verdict.deltas]
        # Only a rule, or a status or flag the records and thresholds do not give, refuses it.
        try:
            parsed = parse_verdict(data)
        except ReportError as exc:
            recomputed = re.match(r"(deltas\[[0-9]+\] field 'status'|verdict field 'regression_detected') ", str(exc))
            assert exc.offset is None or recomputed, str(exc)
        else:
            assert parsed == verdict and serialize_verdict(parsed) == data
            # An unchanged phase reads back as one record that both sides hold.
            assert all(d.baseline is d.candidate for d, same in zip(parsed.deltas, unchanged) if same)
            drawn["read back"] += any(unchanged)
        drawn["unchanged rows"] += sum(unchanged)

    drawn = dict.fromkeys(("unchanged rows", "read back"), 0)
    check()
    assert drawn["unchanged rows"] >= 100 and drawn["read back"] >= 15, drawn


def _unchanged_verdict():
    """A verdict of two unchanged phases and a grown one, each record read from
    its own report, so an unchanged phase's two records are equal but distinct."""
    baseline = report_with_units({"a": 3, "b": 5, "c": 2})
    candidate = parse_report(serialize_report(report_with_units({"a": 3, "b": 5, "c": 4})))
    return diff_reports(baseline, candidate)


def test_an_unchanged_phase_is_written_and_read_as_one_record():
    verdict = _unchanged_verdict()
    unchanged = [d for d in verdict.deltas if d.baseline == d.candidate]
    assert [d.phase for d in unchanged] == ["a", "b"]
    assert all(d.status == "neutral" and d.baseline is not d.candidate for d in unchanged)
    data = serialize_verdict(verdict)
    assert data == reference_verdict_bytes(verdict)
    parsed = parse_verdict(data)
    assert parsed == verdict and serialize_verdict(parsed) == data
    assert [d.baseline is d.candidate for d in parsed.deltas] == [d.baseline == d.candidate for d in verdict.deltas]


def test_a_record_both_sides_share_is_checked_once(monkeypatch):
    data = serialize_verdict(_unchanged_verdict())
    checked = []
    check = report_module._charge_fault
    monkeypatch.setattr(report_module, "_charge_fault", lambda record: checked.append(record) or check(record))
    parsed = parse_verdict(data)
    distinct = []
    for d in parsed.deltas:
        distinct += [d.baseline] if d.baseline is d.candidate else [d.baseline, d.candidate]
    assert len(distinct) == 4  # a and b shared, c's two
    assert [id(r) for r in checked] == [id(r) for r in distinct]


@pytest.mark.parametrize("side", ["baseline", "candidate"])
@pytest.mark.parametrize("old, new, fault, offset", [
    (b'"cost": 50.000000', b'"cost": 50.00000', "deltas[2] {side} field 'cost' is not in canonical form at byte {at}: "
     "expected 'a number with six decimals', found {found!r}", "at"),
    (b'"cost": 50.000000', b'"cost": 99.000000', "deltas[2] field 'status' is not in canonical form at byte "
     "{status}: expected '\"{recomputed}\"', found {status_found!r}", "status"),
    (b'"malloc": 5', b'"malloc": 0', "deltas[2] {side} has zero calls but nonzero cost", None),
], ids=["respelled-cost", "other-cost", "zero-calls"])
def test_a_fault_in_one_copy_of_an_unchanged_record_is_named_on_its_side(side, old, new, fault, offset):
    # Only one side's copy of phase b's equal records is edited, so the two
    # slot texts differ and each side is read and checked on its own.
    data = serialize_verdict(_unchanged_verdict())
    copies = [m.start() for m in re.finditer(re.escape(old), data)]
    assert len(copies) == 2  # b's two records, and nothing else
    at = copies[side == "candidate"]
    edited = data[:at] + new + data[at + len(old):]
    at += old.index(b" ") + 1  # where the slot's value starts
    status = data.rindex(b'"status": "neutral"') + len(b'"status": ')  # b's row is the last
    with pytest.raises(ReportError) as excinfo:
        parse_verdict(edited)
    assert str(excinfo.value) == fault.format(side=side, at=at, found=edited[at:at + 24].decode(), status=status,
                                              recomputed="regression" if side == "candidate" else "improvement",
                                              status_found=edited[status:status + 24].decode())
    assert excinfo.value.offset == {"at": at, "status": status, None: None}[offset]


def _unchecked_thresholds(value):
    """A verdict whose two float thresholds are ``value``, built past the checks of ``Thresholds``."""
    return RegressionVerdict(tuple.__new__(Thresholds, (value, value, None)), [])


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_writers_reject_non_finite_numbers(value):
    report = golden_report()
    # A weight built past the checks of CostModel.
    model = tuple.__new__(CostModel, ({**report.model.weights, AllocFnKind.MALLOC: value}, "v"))
    with pytest.raises(ValueError, match="non-finite"):
        serialize_report(report._replace(model=model))
    with pytest.raises(ValueError, match="non-finite"):
        serialize_verdict(_unchecked_thresholds(value))


@pytest.mark.parametrize("cost", [1.5, 2e6, -1.5])
def test_writers_refuse_a_float_cost_instead_of_truncating_it(cost):
    # Records built past the checks of MarkerChurn, so the writers' own guard is what is tested.
    # Each bad record follows a good one: the writer has begun the document when it refuses.
    report = golden_report()
    part = report.per_thread[0]
    record = tuple.__new__(MarkerChurn, (part.name, cost, *part[2:11], "main/000001"))
    written = None
    expected = f"field 'cost_micro' must be an int >= 0, got {cost!r}$"
    with pytest.raises(ValueError, match=r"^cannot serialize threads\[1\]: " + expected):
        written = serialize_report(report._replace(per_thread=[part, record]))
    assert written is None
    merged = tuple.__new__(MarkerChurn, (part.name, cost, *part[2:10], None, None))
    good = diff_reports(report, report).deltas[0]
    # An unchanged phase's candidate, an equal record but a distinct object, is written from the
    # baseline's text: the baseline is refused first.
    for cand in (None, tuple.__new__(MarkerChurn, merged)):
        row = ChurnDelta("other", "neutral", merged, cand)
        with pytest.raises(ValueError, match=r"^cannot serialize deltas\[1\] baseline: " + expected):
            written = serialize_verdict(RegressionVerdict(Thresholds(), [good, row]))
        assert written is None


def _refused_reports():
    report = golden_report()
    part = report.per_thread[0]
    for field, value in (("thread_id", None), ("span_id", None), ("cost_micro", -1)):
        yield f"{field}-{value}", report._replace(per_thread=[part, part._replace(**{field: value})]), (
            rf"^cannot serialize threads\[1\]: field '{field}' must be {'a str' if value is None else 'an int >= 0'}, "
            rf"got {value}$")
    yield "no-ids", report._replace(per_thread=[part._replace(thread_id=None, span_id=None)]), (
        r"^cannot serialize threads\[0\]: field 'thread_id' must be a str, got None$")


def _refused_verdicts():
    report = golden_report()
    good = diff_reports(report, report).deltas[0]
    merged = good.baseline
    for field, value in (("thread_id", "main"), ("span_id", "main/000000"), ("cost_micro", -1)):
        for side in ("baseline", "candidate"):
            row = good._replace(**{side: merged._replace(**{field: value})})
            expected = "an int >= 0" if field == "cost_micro" else "None in a merged record"
            yield f"{side}-{field}", RegressionVerdict(Thresholds(), [good, row]), (
                rf"^cannot serialize deltas\[1\] {side}: field '{field}' must be {expected}, got {value!r}$")


@pytest.mark.parametrize("write, doc, message", [
    *[pytest.param(serialize_report, doc, message, id=f"report-{name}") for name, doc, message in _refused_reports()],
    *[pytest.param(serialize_verdict, doc, message, id=f"verdict-{name}")
      for name, doc, message in _refused_verdicts()],
])
def test_writers_never_write_what_their_readers_refuse(write, doc, message):
    # A thread record is read only with both ids and a row's record only
    # with neither, each with a non-negative cost; else the writer names the record and field.
    written = None
    with pytest.raises(ValueError, match=message):
        written = write(doc)
    assert written is None


# A count, byte total or cost that a reader refuses in a record on its own,
# and the refusal's words: a sign as the cost's, a cost rule as the reader's.
RECORD_COUNT_FAULTS = {
    "malloc_calls--1": ({"malloc_calls": -1}, "field 'malloc_calls' must be an int >= 0, got -1"),
    "bytes_freed--5": ({"bytes_freed": -5}, "field 'bytes_freed' must be an int >= 0, got -5"),
    "cost-without-calls": (dict.fromkeys(("malloc_calls", "calloc_calls", "realloc_calls", "free_calls"), 0),
                           "has zero calls but nonzero cost"),
    "cost-10**400": ({"cost_micro": 10**400}, "field 'cost' is out of range or not a whole number of micro-units"),
}


@pytest.mark.parametrize("edit, message", RECORD_COUNT_FAULTS.values(), ids=RECORD_COUNT_FAULTS)
def test_writers_refuse_the_counts_and_costs_their_readers_refuse(edit, message):
    report = golden_report()
    part = report.per_thread[0]
    assert part.cost_micro and part.total_calls
    bad = report._replace(per_thread=[part._replace(**edit)])
    with pytest.raises(ReportError):  # the reader's refusal of the same content
        parse_report(reference_report_bytes(bad))
    with pytest.raises(ValueError, match=rf"^cannot serialize threads\[0\]: {re.escape(message)}$"):
        serialize_report(bad)
    good = diff_reports(report, report).deltas[0]
    for side in ("baseline", "candidate"):
        verdict = RegressionVerdict(Thresholds(), [good, good._replace(**{side: good.baseline._replace(**edit)})])
        with pytest.raises(ReportError):
            parse_verdict(reference_verdict_bytes(verdict))
        with pytest.raises(ValueError, match=rf"^cannot serialize deltas\[1\] {side}: {re.escape(message)}$"):
            serialize_verdict(verdict)


@pytest.mark.parametrize("field, value", [("live_blocks", 1.5), ("anomaly_count", -1), ("bytes_freed", True)])
def test_report_writer_refuses_a_total_its_reader_refuses(field, value):
    report = golden_report()
    bad = report._replace(totals=report.totals._replace(**{field: value}))
    with pytest.raises(ReportError):
        parse_report(reference_report_bytes(bad))
    message = f"cannot serialize counters: field '{field}' must be an int >= 0, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        serialize_report(bad)


def test_writers_blame_no_later_record_for_an_earlier_failure():
    # A name with no UTF-8 form, built past the checks of MarkerChurn, fails
    # as its record is encoded; the refused record after it is never reached.
    report = golden_report()
    part = report.per_thread[0]
    unencodable = tuple.__new__(MarkerChurn, ("\ud800", *part[1:]))
    with pytest.raises(UnicodeEncodeError):
        serialize_report(report._replace(per_thread=[unencodable, part._replace(cost_micro=-1)]))
    good = diff_reports(report, report).deltas[0]
    merged = tuple.__new__(MarkerChurn, ("\ud800", *good.baseline[1:]))
    rows = [good._replace(baseline=merged), good._replace(candidate=good.candidate._replace(cost_micro=-1))]
    with pytest.raises(UnicodeEncodeError):
        serialize_verdict(RegressionVerdict(Thresholds(), rows))


def test_writers_hold_about_one_copy_of_the_document():
    # Allocated bytes, not time, so the figure is the same on every run. A
    # writer that joins parts into a str and then encodes it peaks at about
    # 2.3 times the document.
    report = report_with_units({f"p{i:04d}": 1 for i in range(3000)})
    verdict = diff_reports(report, report_with_units({f"p{i:04d}": 1 + i % 2 for i in range(0, 3000, 3)}))
    assert len(report.per_thread) >= 3000 and len(verdict.deltas) >= 2000
    for write, doc in ((serialize_report, report), (serialize_verdict, verdict)):
        gc.collect()
        tracemalloc.start()
        try:
            data = write(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * len(data), f"{write.__name__}: peak {peak} B for a {len(data)} B document"


def test_write_report_holds_one_record_at_a_time():
    # Into a file that keeps nothing, the writer holds only the record it
    # is writing: a writer that builds the document first peaks above it.
    report = report_with_units({f"p{i:04d}": 1 for i in range(3000)})
    data = serialize_report(report)

    class Sink:
        def __init__(self):
            self.size = 0

        def write(self, chunk):
            self.size += len(chunk)

    sink = Sink()
    gc.collect()
    tracemalloc.start()
    try:
        write_report(report, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.size == len(data)
    assert peak < len(data) // 100, f"peak {peak} B for a {len(data)} B document"


@pytest.mark.parametrize("value", [-0.0, -1e-9, -4.9e-7])
def test_writers_write_negative_zero_as_zero(value):
    # Thresholds(rel=-0.0) passes its checks; the other values only reach the writer unchecked.
    for verdict in (_unchecked_thresholds(value), RegressionVerdict(Thresholds(-0.0, -0.0), [])):
        data = serialize_verdict(verdict)
        assert b'"abs_floor": 0.000000,' in data and b'"rel": 0.000000\n' in data
    report = golden_report()
    weights = dict.fromkeys(AllocFnKind, value)
    data = serialize_report(report._replace(model=report.model._replace(weights=weights)))
    assert data.count(b": 0.000000") == len(AllocFnKind)


def test_writers_sort_keys_and_write_utf8():
    report = golden_report()
    part = report.per_thread[0]._replace(name="é☃", thread_id="\U0001F600")
    text = serialize_report(report._replace(per_thread=[part])).decode("utf-8")
    keys = re.findall(r'^  "([a-z_]+)": ', text, re.MULTILINE)
    assert keys == ["build_id", "cost_model", "counters", "created_at", "schema_version", "threads"]
    assert '"name": "é☃",' in text and '"thread_id": "\U0001F600"\n' in text
