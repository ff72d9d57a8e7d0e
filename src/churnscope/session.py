"""Recording session: one cost model, per-thread recorders, report assembly.

A session fixes its cost model before the first event and hands each thread
its own recorder. Threads record independently with no shared state; after
all recorders are sealed, `build_report` merges the per-thread results into
the canonical per-build report.
"""

from __future__ import annotations

import threading
from datetime import datetime, timezone

from .aggregation import merge_phases, span_churn
from .cost_model import CostModel, default_cost_model, validate_cost_model
from .errors import CostModelError, RecorderStateError
from .recorder import ThreadRecorder, checked_ring_capacity
from .report import ChurnReport, ReportTotals


def utc_timestamp(epoch: float | int | None = None) -> str:
    """ISO-8601 UTC second-resolution timestamp, optionally from an epoch."""
    if epoch is None:
        moment = datetime.now(timezone.utc)
    else:
        try:
            moment = datetime.fromtimestamp(epoch, tz=timezone.utc)
        except OverflowError:
            raise ValueError(f"epoch {epoch} is out of range") from None
    return moment.strftime("%Y-%m-%dT%H:%M:%SZ")


class RecordingSession:
    """Registry of per-thread recorders sharing one cost model.

    ``recorder(label)`` returns the calling thread's recorder, creating it
    on first use. Labels name threads in reports; pass explicit, stable
    labels when report determinism across runs matters (OS thread ids are
    not stable). The registry lock guards only creation, never recording.
    """

    def __init__(
        self,
        model: CostModel | None = None,
        ring_capacity: int | None = None,
        build_id: str = "local",
        created_at: str | None = None,
    ):
        model = model if model is not None else default_cost_model()
        violations = validate_cost_model(model)
        if violations:
            raise CostModelError("invalid cost model: " + "; ".join(violations))
        self._model = model
        self._ring_capacity = checked_ring_capacity(ring_capacity)
        # A report that serialize_report writes must parse back.
        if not isinstance(build_id, str):
            raise ValueError(f"build_id must be a string, got {build_id!r}")
        if created_at is not None and not isinstance(created_at, str):
            raise ValueError(f"created_at must be None or a string, got {created_at!r}")
        self.build_id = build_id
        self.created_at = created_at
        self._lock = threading.Lock()
        # Thread-local handle rather than a get_ident()-keyed map: the OS
        # reuses thread ids, thread-local slots die with their thread.
        self._tls = threading.local()
        self._by_label: dict[str, ThreadRecorder] = {}

    @property
    def model(self) -> CostModel:
        return self._model

    def recorder(self, label: str | None = None) -> ThreadRecorder:
        """Get or create the calling thread's recorder."""
        rec: ThreadRecorder | None = getattr(self._tls, "recorder", None)
        if rec is not None:
            if label is not None and label != rec.thread_id:
                raise ValueError(
                    f"thread already registered as {rec.thread_id!r}, not {label!r}"
                )
            return rec
        with self._lock:
            if label is None:
                label = f"thread-{len(self._by_label)}"
            elif not isinstance(label, str):
                raise ValueError(f"thread label must be a string, got {label!r}")
            if label in self._by_label:
                raise ValueError(f"thread label {label!r} already in use")
            rec = ThreadRecorder(label, self._model, self._ring_capacity)
            self._by_label[label] = rec
        self._tls.recorder = rec
        return rec

    def recorders(self) -> list[ThreadRecorder]:
        """All recorders, ordered by label."""
        with self._lock:
            return [self._by_label[label] for label in sorted(self._by_label)]

    def seal_all(self) -> None:
        """Seal every recorder. Only call once all recording threads have
        quiesced (finished or joined)."""
        for rec in self.recorders():
            rec.seal()

    def build_report(self) -> ChurnReport:
        """Assemble the canonical report from the sealed recorders.

        Span costs are integer micro-units and each merged record is the
        exact sum of its parts, so a parsed report always satisfies the
        merged-equals-sum check. Parts are grouped by name in one pass, so the
        cost is linear in the number of spans however many names they use.
        """
        recs = self.recorders()
        for rec in recs:
            if not rec.sealed:
                raise RecorderStateError(
                    f"recorder {rec.thread_id!r} is not sealed; call seal_all() first"
                )
        # Recorders come ordered by label and spans in begin order.
        parts = [span_churn(span, self._model) for rec in recs for span in rec.spans()]
        totals = ReportTotals()
        for rec in recs:
            snap = rec.snapshot()
            totals.bytes_allocated += snap.bytes_allocated
            totals.bytes_freed += snap.bytes_freed
            totals.anomaly_count += snap.anomaly_count
            totals.overflow_count += snap.overflow_count
            live = rec.live_table()
            totals.live_blocks += len(live)
            totals.live_bytes += sum(live.values())
        return ChurnReport(
            build_id=self.build_id,
            created_at=self.created_at if self.created_at is not None else utc_timestamp(),
            model=self._model,
            merged=merge_phases(parts),
            per_thread=parts,
            totals=totals,
        )
