"""churnscope: allocator-churn profiling between markers, and report diffing.

The toolkit wraps the four standard allocator entry points, records every
call into the calling thread's recorder, costs named marker spans with a
weighted log2 byte rule, and writes canonical per-build reports that a CI
job can diff to detect and rank performance regressions.
"""

from .aggregation import MarkerChurn, merge_phases
from .cost_model import (
    AllocFnKind,
    CostModel,
    DEFAULT_WEIGHTS,
    event_cost,
    load_cost_model,
)
from .errors import (
    ChurnscopeError,
    CostModelError,
    ModelMismatchError,
    RecorderSealedError,
    RecorderStateError,
    ReportError,
    SpanStateError,
    ThreadAffinityError,
    WorkloadError,
)
from .markers import MarkerSpan, begin_marker, end_marker, marker, span_churn
from .recorder import (
    AllocEvent,
    BumpAllocator,
    CounterSnapshot,
    DEFAULT_RING_CAPACITY,
    ThreadRecorder,
    TracingAllocator,
)
from .report import (
    ChurnDelta,
    ChurnReport,
    RegressionVerdict,
    Thresholds,
    diff_reports,
    parse_report,
    parse_verdict,
    rank_regressions,
    serialize_report,
    serialize_verdict,
    write_report,
)
from .session import RecordingSession, utc_timestamp
from .workloads import WORKLOADS, WorkloadSpec, run_workload, workload_names

__version__ = "0.1.0"

__all__ = [
    "AllocEvent",
    "AllocFnKind",
    "BumpAllocator",
    "ChurnDelta",
    "ChurnReport",
    "ChurnscopeError",
    "CostModel",
    "CostModelError",
    "CounterSnapshot",
    "DEFAULT_RING_CAPACITY",
    "DEFAULT_WEIGHTS",
    "MarkerChurn",
    "MarkerSpan",
    "ModelMismatchError",
    "RecorderSealedError",
    "RecorderStateError",
    "RecordingSession",
    "RegressionVerdict",
    "ReportError",
    "SpanStateError",
    "ThreadAffinityError",
    "ThreadRecorder",
    "Thresholds",
    "TracingAllocator",
    "WORKLOADS",
    "WorkloadError",
    "WorkloadSpec",
    "begin_marker",
    "diff_reports",
    "end_marker",
    "event_cost",
    "load_cost_model",
    "marker",
    "merge_phases",
    "parse_report",
    "parse_verdict",
    "rank_regressions",
    "run_workload",
    "serialize_report",
    "serialize_verdict",
    "span_churn",
    "utc_timestamp",
    "workload_names",
    "write_report",
]
