"""The public result and settings types: named tuples with a fixed shape."""

import pytest

import churnscope
from churnscope import (
    AllocEvent,
    AllocFnKind,
    ChurnDelta,
    ChurnReport,
    CostModel,
    CounterSnapshot,
    DEFAULT_WEIGHTS,
    MarkerChurn,
    RecordingSession,
    RegressionVerdict,
    Thresholds,
    WorkloadSpec,
    diff_reports,
    merge_phases,
    parse_report,
    parse_verdict,
    run_workload,
    serialize_report,
    serialize_verdict,
    span_churn,
)
from churnscope.report import STATUSES, ReportTotals
from churnscope.workloads import WORKLOADS, Workload

from factories import report_with_units

# Each type, its fields in order, one value for each field, built by keyword, and its fields' defaults.
SHAPES = [
    (AllocEvent, ("thread_id", "seq", "kind", "nbytes", "addr", "old_addr"),
     ("main", 3, AllocFnKind.REALLOC, 64, 0x20, 0x10), {}),
    (CounterSnapshot, ("malloc_calls", "calloc_calls", "realloc_calls", "free_calls", "bytes_allocated",
                       "bytes_freed", "cost_nano", "anomaly_count"), tuple(range(1, 9)), {}),
    (ReportTotals, ("bytes_allocated", "bytes_freed", "live_blocks", "live_bytes", "anomaly_count",
                    "overflow_count"), (1, 2, 3, 4, 5, 6), dict.fromkeys(ReportTotals._fields, 0)),
    (ChurnReport, ("build_id", "created_at", "model", "per_thread", "totals"),
     ("b", "1970-01-01T00:00:00Z", CostModel(), [], ReportTotals()), {}),
    (WorkloadSpec, ("name", "seed", "scale", "variant"), ("table", 7, 3, "regressed"),
     {"seed": 1, "scale": 1, "variant": "baseline"}),
    (Workload, ("phases", "run", "regressed_phase"),
     (("fill",), WORKLOADS["table"].run, "fill"), {}),
    (CostModel, ("weights", "model_version"), (dict.fromkeys(AllocFnKind, 2.0), "v"), {}),
    (Thresholds, ("rel", "abs_floor", "call_floor"), (0.5, 2.0, 3), {}),
    (ChurnDelta, ("phase", "status", "baseline", "candidate"), ("p", "new_phase", None, None), {}),
    (RegressionVerdict, ("thresholds", "deltas"), (Thresholds(), []), {}),
    (MarkerChurn, ("name", "cost_micro", "malloc_calls", "calloc_calls", "realloc_calls", "free_calls",
                   "bytes_allocated", "bytes_freed", "overflow", "auto_closed", "thread_id", "span_id"),
     ("p", 5, 1, 2, 3, 4, 64, 32, True, False, "main", "main/000000"),
     {**dict.fromkeys(("malloc_calls", "calloc_calls", "realloc_calls", "free_calls", "bytes_allocated",
                       "bytes_freed"), 0),
      "overflow": False, "auto_closed": False, "thread_id": None, "span_id": None}),
]


@pytest.mark.parametrize("cls, fields, values, defaults", SHAPES, ids=[shape[0].__name__ for shape in SHAPES])
def test_named_tuple_fields_and_keyword_construction(cls, fields, values, defaults):
    assert issubclass(cls, tuple) and cls._fields == fields and cls._field_defaults == defaults
    value = cls(**dict(zip(fields, values)))
    assert value == values and cls(*values) == value
    assert value._asdict() == dict(zip(fields, values))
    assert value._replace(**value._asdict()) == value
    # A tuple with no per-instance dict, whose class keeps its own docstring and annotates each field.
    # A report's dict holds only its merged view, kept on the first read.
    if cls is ChurnReport:
        assert vars(value) == {} and value.merged == {} and vars(value) == {"merged": {}}
    else:
        assert not hasattr(value, "__dict__")
    assert cls.__doc__ and not cls.__doc__.startswith(f"{cls.__name__}(")
    assert tuple(cls.__annotations__) == fields


def test_named_tuple_defaults():
    assert Thresholds() == (0.01, 1.0, None)
    assert ReportTotals() == (0, 0, 0, 0, 0, 0)
    assert WorkloadSpec("strings") == ("strings", 1, 1, "baseline")
    assert CostModel() == (DEFAULT_WEIGHTS, "paper-v1")
    assert CostModel().weights is not CostModel().weights
    assert MarkerChurn("p", 0) == ("p", 0, 0, 0, 0, 0, 0, 0, False, False, None, None)


PART = MarkerChurn("p", 5_000_000, 3, thread_id="main", span_id="main/000000")


@pytest.mark.parametrize("build, field", [
    (lambda: MarkerChurn("p", 5_000_000, {"malloc": 3}, thread_id="main", span_id="main/000000"), "malloc_calls"),
    (lambda: MarkerChurn("p", 5_000_000, malloc_calls=3.0), "malloc_calls"),
    (lambda: PART._replace(malloc_calls=1.5), "malloc_calls"),
    (lambda: MarkerChurn._make(["p", 5.0, *PART[2:]]), "cost_micro"),
    (lambda: PART._replace(cost_micro=True), "cost_micro"),
    (lambda: PART._replace(bytes_freed=None), "bytes_freed"),
    (lambda: PART._replace(overflow=1), "overflow"),
    (lambda: PART._replace(name=b"p"), "name"),
    (lambda: PART._replace(thread_id=7), "thread_id"),
], ids=["calls-dict", "float-count", "replace", "make", "bool-cost", "none-bytes", "int-flag", "bytes-name", "int-id"])
def test_marker_churn_refuses_a_field_of_the_wrong_type(build, field):
    with pytest.raises(ValueError, match=f"^MarkerChurn {field} must be (int|bool|str|str or None), got "):
        build()


@pytest.mark.parametrize("build, field", [
    (lambda: MarkerChurn("\udcff", 0, thread_id="t", span_id="t/000000"), "name"),
    (lambda: PART._replace(thread_id="t\ud800"), "thread_id"),
    (lambda: MarkerChurn._make([*PART[:11], "main/\udfff"]), "span_id"),
], ids=["name", "replace-thread-id", "make-span-id"])
def test_marker_churn_refuses_a_string_with_no_utf8_form(build, field):
    # Else serialize_report raised a bare UnicodeEncodeError that named no field.
    with pytest.raises(ValueError, match=f"^MarkerChurn {field} '.*' is not valid Unicode \\(surrogates not allowed"):
        build()


def test_regression_verdict_is_a_named_tuple():
    verdict = RegressionVerdict(Thresholds(), [])
    assert isinstance(verdict, tuple) and RegressionVerdict._fields == ("thresholds", "deltas")
    assert repr(verdict) == (
        "RegressionVerdict(thresholds=Thresholds(rel=0.01, abs_floor=1.0, call_floor=None), deltas=[])"
    )
    verdict = verdict._replace(deltas=["row"])
    assert verdict == RegressionVerdict(thresholds=Thresholds(), deltas=["row"])
    assert verdict != RegressionVerdict(Thresholds(rel=0.5), ["row"])
    assert verdict != RegressionVerdict(Thresholds(), [])


def assert_whole(value):
    """``value`` has every field of its named tuple type, equals its twin built
    by keyword and hashes like it; a record's ``calls`` view reads its four
    count fields.

    Records and deltas are built with ``tuple.__new__``, which skips the
    argument-count check of the type's own ``__new__``.
    """
    cls = type(value)
    assert len(value) == len(cls._fields), f"{cls.__name__} has {len(value)} of {len(cls._fields)} fields"
    twin = cls(**{field: getattr(value, field) for field in cls._fields})
    assert type(twin) is cls and twin == value and hash(twin) == hash(value)
    if cls is MarkerChurn:
        counts = (value.malloc_calls, value.calloc_calls, value.realloc_calls, value.free_calls)
        assert all(type(n) is int for n in counts)
        assert value.calls == dict(zip(AllocFnKind, counts)) and value.total_calls == sum(counts)


def assert_whole_deltas(deltas):
    for delta in deltas:
        assert_whole(delta)
        for record in (delta.baseline, delta.candidate):
            if record is not None:
                assert_whole(record)


def test_records_and_deltas_hold_every_field():
    reports = []
    for variant in ("baseline", "regressed"):
        session = RecordingSession(build_id=variant, created_at="2026-01-01T00:00:00Z")
        report = run_workload(WorkloadSpec("multithread", 1, 2, variant), session)
        spans = [span for rec in session.recorders() for span in rec.spans()]
        assert spans
        parts = [span_churn(span) for span in spans]
        for record in [*parts, *merge_phases(parts).values(), *report.per_thread, *report.merged.values()]:
            assert_whole(record)
        parsed = parse_report(serialize_report(report))
        for record in [*parsed.per_thread, *parsed.merged.values()]:
            assert_whole(record)
        reports.append(parsed)
    # Every status: "a" only in the baseline, "b" improves, "c" only in the candidate.
    reports += [report_with_units({"a": 1, "b": 3}), report_with_units({"b": 2, "c": 1})]
    statuses = set()
    for base, cand in (reports[:2], reports[2:]):
        verdict = diff_reports(base, cand)
        statuses |= {delta.status for delta in verdict.deltas}
        assert_whole_deltas(verdict.deltas)
        assert_whole_deltas(parse_verdict(serialize_verdict(verdict)).deltas)
    assert statuses == set(STATUSES)


# The public names, pinned: removing or adding one is a visible, deliberate change.
PUBLIC_NAMES = [
    "AllocEvent", "AllocFnKind", "BumpAllocator", "ChurnDelta", "ChurnReport", "ChurnscopeError", "CostModel",
    "CostModelError", "CounterSnapshot", "DEFAULT_RING_CAPACITY", "DEFAULT_WEIGHTS", "MarkerChurn", "MarkerSpan",
    "ModelMismatchError", "RecorderSealedError", "RecorderStateError", "RecordingSession", "RegressionVerdict",
    "ReportError", "SpanStateError", "ThreadAffinityError", "ThreadRecorder", "Thresholds", "TracingAllocator",
    "WORKLOADS", "WorkloadError", "WorkloadSpec", "begin_marker", "diff_reports", "end_marker", "event_cost",
    "load_cost_model", "marker", "merge_phases", "parse_report", "parse_verdict", "rank_regressions", "run_workload",
    "serialize_report", "serialize_verdict", "span_churn", "utc_timestamp", "workload_names",
    "write_report",
]


def test_public_names_are_pinned_sorted_and_importable():
    assert churnscope.__all__ == PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    namespace = {}
    exec("from churnscope import *", namespace)
    assert sorted(name for name in namespace if name != "__builtins__") == PUBLIC_NAMES
