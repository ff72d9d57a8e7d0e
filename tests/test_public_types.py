"""The public result and settings types: named tuples with a fixed shape."""

import pytest

from churnscope import (
    AllocEvent,
    AllocFnKind,
    ChurnDelta,
    ChurnReport,
    CostModel,
    RegressionVerdict,
    Thresholds,
    WorkloadSpec,
    default_cost_model,
)
from churnscope.report import ReportTotals
from churnscope.workloads import WORKLOADS, Workload

# Each type, its fields in the order its earlier dataclass declared them, and
# one value for each field, built by keyword.
SHAPES = [
    (AllocEvent, ("thread_id", "seq", "kind", "nbytes", "addr", "old_addr"),
     ("main", 3, AllocFnKind.REALLOC, 64, 0x20, 0x10)),
    (ReportTotals, ("bytes_allocated", "bytes_freed", "live_blocks", "live_bytes", "anomaly_count",
                    "overflow_count"), (1, 2, 3, 4, 5, 6)),
    (ChurnReport, ("build_id", "created_at", "model", "merged", "per_thread", "totals"),
     ("b", "1970-01-01T00:00:00Z", default_cost_model(), {}, [], ReportTotals())),
    (WorkloadSpec, ("name", "seed", "scale", "variant"), ("table", 7, 3, "regressed")),
    (Workload, ("phases", "run", "regressed_phase"),
     (("fill",), WORKLOADS["table"].run, "fill")),
    (CostModel, ("weights", "model_version"), ({AllocFnKind.FREE: 2.0}, "v")),
    (Thresholds, ("rel", "abs_floor", "call_floor"), (0.5, 2.0, 3)),
    (ChurnDelta, ("phase", "status", "baseline", "candidate"), ("p", "new_phase", None, None)),
]


@pytest.mark.parametrize("cls, fields, values", SHAPES, ids=[shape[0].__name__ for shape in SHAPES])
def test_named_tuple_fields_and_keyword_construction(cls, fields, values):
    assert issubclass(cls, tuple) and cls._fields == fields
    value = cls(**dict(zip(fields, values)))
    assert value == values and cls(*values) == value
    assert value._asdict() == dict(zip(fields, values))
    assert value._replace(**value._asdict()) == value


def test_named_tuple_defaults():
    assert Thresholds() == (0.01, 1.0, None)
    assert ReportTotals() == (0, 0, 0, 0, 0, 0)
    assert WorkloadSpec("strings") == ("strings", 1, 1, "baseline")
    assert CostModel() == ({}, "paper-v1")
    assert CostModel().weights is not CostModel().weights


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
