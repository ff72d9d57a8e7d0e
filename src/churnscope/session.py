"""Recording session: one cost model, per-thread recorders, report assembly.

A session fixes its cost model before the first event and hands each thread
its own recorder. Threads record independently with no shared state; after
all recorders are sealed, `build_report` gathers each span's record, made
when the span closed, into the canonical per-build report.
"""

from __future__ import annotations

import math
import threading
import time

from .aggregation import utf8_bytes
from .cost_model import CostModel
from .errors import RecorderStateError
from .markers import span_churn
from .recorder import ThreadRecorder, checked_ring_capacity
from .report import ChurnReport, ReportTotals


def utc_timestamp(epoch: float | int | None = None) -> str:
    """ISO-8601 UTC second-resolution timestamp, optionally from an epoch.

    It gives the string ``datetime.fromtimestamp`` gives, the year written
    with four digits as ``datetime.isoformat`` writes it, without importing
    ``datetime``: a float epoch is rounded to the microsecond, half to even,
    before its second is taken. An epoch with a year outside 1-9999, or one
    ``gmtime`` cannot represent, is refused by a message naming the epoch.
    """
    seconds = epoch
    if isinstance(epoch, float) and math.isfinite(epoch):
        fraction, whole = math.modf(epoch)
        micro = round(fraction * 1e6)
        seconds = int(whole) + (micro >= 1_000_000) - (micro < 0)
    try:
        year, month, day, hour, minute, second = time.gmtime(seconds)[:6]
    except (OverflowError, OSError):
        year = 0  # refused below, with the same message as a year past 9999
    if not 1 <= year <= 9999:
        raise ValueError(f"epoch {epoch} is out of range")
    return f"{year:04d}-{month:02d}-{day:02d}T{hour:02d}:{minute:02d}:{second:02d}Z"


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
        self._model = model if model is not None else CostModel()
        self._ring_capacity = checked_ring_capacity(ring_capacity)
        # A report that serialize_report writes must parse back.
        if not isinstance(build_id, str):
            raise ValueError(f"build_id must be a string, got {build_id!r}")
        utf8_bytes("build_id", build_id)
        if created_at is not None:
            if not isinstance(created_at, str):
                raise ValueError(f"created_at must be None or a string, got {created_at!r}")
            utf8_bytes("created_at", created_at)
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
        """Get or create the calling thread's recorder. Unlabelled, it is named
        ``thread-N`` for the first free N from the number of recorders."""
        rec: ThreadRecorder | None = getattr(self._tls, "recorder", None)
        if rec is not None:
            if label is not None and label != rec.thread_id:
                raise ValueError(
                    f"thread already registered as {rec.thread_id!r}, not {label!r}"
                )
            return rec
        with self._lock:
            if label is None:
                n = len(self._by_label)
                while f"thread-{n}" in self._by_label:  # taken by an explicit label
                    n += 1
                label = f"thread-{n}"
            elif not isinstance(label, str):
                raise ValueError(f"thread label must be a string, got {label!r}")
            else:
                utf8_bytes("thread label", label)
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

        Each span is one part: the record it was costed into when it closed
        (``seal()`` closes any still open), so nothing is costed here. Nothing
        is merged either: the report's ``merged`` sums its parts by name on
        its first read, so a run that only writes its report never merges.
        """
        recs = self.recorders()
        for rec in recs:
            if not rec.sealed:
                raise RecorderStateError(
                    f"recorder {rec.thread_id!r} is not sealed; call seal_all() first"
                )
        # Recorders come ordered by label and spans in begin order.
        parts = [span_churn(span) for rec in recs for span in rec.spans()]
        allocated = freed = live_blocks = live_bytes = anomalies = overflows = 0
        for rec in recs:
            snap = rec.snapshot()
            allocated += snap.bytes_allocated
            freed += snap.bytes_freed
            anomalies += snap.anomaly_count
            overflows += max(0, snap.seq - rec.ring_capacity)  # ThreadRecorder's eviction rule
            live = rec.live_table()
            live_blocks += len(live)
            live_bytes += sum(live.values())
        totals = ReportTotals(allocated, freed, live_blocks, live_bytes, anomalies, overflows)
        return ChurnReport(
            build_id=self.build_id,
            created_at=self.created_at if self.created_at is not None else utc_timestamp(),
            model=self._model,
            per_thread=parts,
            totals=totals,
        )
