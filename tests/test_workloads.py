import gc
import weakref

import pytest

from churnscope import (
    AllocFnKind,
    RecordingSession,
    WORKLOADS,
    WorkloadError,
    WorkloadSpec,
    diff_reports,
    run_workload,
    serialize_report,
    workload_names,
)
from churnscope import recorder, workloads
from churnscope.report import STATUS_NEUTRAL, STATUS_REGRESSION
from churnscope.workloads import SplitMix64

from replay_oracle import replay


def session():
    return RecordingSession(build_id="b", created_at="2026-01-01T00:00:00Z",
                            ring_capacity=1 << 16)


def run(name, seed=1, scale=1, variant="baseline"):
    return run_workload(WorkloadSpec(name, seed=seed, scale=scale, variant=variant), session())


@pytest.fixture
def marker_seqs(monkeypatch):
    """The ``seq`` read at each span's begin and end marker, keyed by its
    recorder and span id (two sessions may repeat an id), for every span a
    workload opens, through ``marker`` or directly."""
    seqs = {}
    begin, end = recorder.begin_marker, recorder.end_marker

    def begin_at_seq(rec, name):
        seq = rec.snapshot().seq
        span = begin(rec, name)
        seqs[rec, span.span_id] = [seq, None]
        return span

    def end_at_seq(span):
        seqs[span.recorder, span.span_id][1] = span.recorder.snapshot().seq
        return end(span)

    for module in (recorder, workloads):
        monkeypatch.setattr(module, "begin_marker", begin_at_seq)
        monkeypatch.setattr(module, "end_marker", end_at_seq)
    return seqs


def test_splitmix_sequence_is_fixed():
    rng = SplitMix64(0)
    first = [rng.next_u64() for _ in range(3)]
    # reference values for the documented constants
    assert first == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_splitmix_is_deterministic_per_seed():
    a = SplitMix64(42)
    b = SplitMix64(42)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


@pytest.mark.parametrize("lo, hi", [(0, 0), (5, 4)])
def test_splitmix_randrange_refuses_an_empty_range(lo, hi):
    with pytest.raises(ValueError, match="^empty range$"):
        SplitMix64(0).randrange(lo, hi)


def test_registered_workload_names():
    assert workload_names() == ["buffers", "multithread", "strings", "table"]


@pytest.mark.parametrize("name", workload_names())
def test_workload_runs_are_byte_identical(name):
    spec = WorkloadSpec(name, seed=1, scale=2)
    first = serialize_report(run_workload(spec, session()))
    second = serialize_report(run_workload(spec, session()))
    assert first == second


@pytest.mark.parametrize("name", workload_names())
def test_workload_phase_names_as_registered(name):
    report = run(name)
    assert set(report.merged) == set(WORKLOADS[name].phases)


@pytest.mark.parametrize("name", workload_names())
def test_workload_conserves_and_is_anomaly_free(name):
    for variant in ("baseline", "regressed"):
        report = run(name, variant=variant)
        assert report.totals.bytes_allocated == report.totals.bytes_freed
        assert report.totals.live_blocks == 0
        assert report.totals.live_bytes == 0
        assert report.totals.anomaly_count == 0


def test_scale_doubles_call_counts_exactly():
    one = run("strings", seed=1, scale=1)
    two = run("strings", seed=1, scale=2)
    for name, record in one.merged.items():
        for kind in AllocFnKind:
            assert two.merged[name].calls[kind] == 2 * record.calls[kind]


def test_regressed_strings_flags_format_only(marker_seqs):
    sess = session()
    baseline = run_workload(WorkloadSpec("strings", seed=1, scale=1), sess)
    regressed_session = session()
    regressed = run_workload(
        WorkloadSpec("strings", seed=1, scale=1, variant="regressed"), regressed_session
    )
    verdict = diff_reports(baseline, regressed)
    statuses = {d.phase: d.status for d in verdict.deltas}
    assert statuses == {"format": STATUS_REGRESSION, "build": STATUS_NEUTRAL}

    # expected delta recomputed from the raw event logs of both runs
    model = sess.model
    expected = 0
    for sess_obj, sign in ((regressed_session, 1), (sess, -1)):
        for rec in sess_obj.recorders():
            for span in rec.spans():
                if span.name == "format":
                    oracle = replay(rec.events(), model, *marker_seqs[rec, span.span_id])
                    expected += sign * oracle.cost_micro
    delta = {d.phase: d for d in verdict.deltas}["format"]
    assert delta.cost_delta_micro == expected


@pytest.mark.parametrize("name", workload_names())
def test_each_regressed_variant_increases_its_designed_phase(name):
    baseline = run(name)
    regressed = run(name, variant="regressed")
    verdict = diff_reports(baseline, regressed)
    statuses = {d.phase: d.status for d in verdict.deltas}
    designed = WORKLOADS[name].regressed_phase
    assert statuses[designed] == STATUS_REGRESSION
    for phase, status in statuses.items():
        if phase != designed:
            assert status == STATUS_NEUTRAL
    assert verdict.deltas[0].phase == designed


def test_multithread_merged_churn_is_schedule_independent():
    reference = serialize_report(run("multithread", seed=9, scale=3))
    for _ in range(5):
        assert serialize_report(run("multithread", seed=9, scale=3)) == reference


def test_multithread_has_overlapping_spans_on_worker0(marker_seqs):
    sess = session()
    run_workload(WorkloadSpec("multithread", seed=1, scale=1), sess)
    recs = {rec.thread_id: rec for rec in sess.recorders()}
    worker = recs["worker-0"]
    spans = worker.spans()
    sync = next(s for s in spans if s.name == "sync")
    cache = next(s for s in spans if s.name == "cache")
    (sync_begin, sync_end), (cache_begin, cache_end) = (
        marker_seqs[worker, sync.span_id], marker_seqs[worker, cache.span_id])
    assert sync_begin < cache_begin < sync_end < cache_end


@pytest.mark.parametrize("name, threads", [("strings", 1), ("multithread", 3)])
def test_a_finished_session_is_freed_without_the_cycle_collector(name, threads):
    """A recorder lists its closed spans' records, not handles that refer
    back to it, so once the caller drops a session and its report, reference
    counting alone frees every recorder: no ``gc.collect()`` is needed."""
    gc.disable()
    try:
        sess = session()
        report = run_workload(WorkloadSpec(name, seed=1, scale=7), sess)
        recorders = [weakref.ref(rec) for rec in sess.recorders()]
        assert len(recorders) == threads
        del sess, report
        assert [ref().thread_id for ref in recorders if ref() is not None] == []
    finally:
        gc.enable()


def test_unknown_workload_rejected():
    with pytest.raises(WorkloadError, match="unknown workload"):
        run_workload(WorkloadSpec("nope"), session())


def test_bad_scale_and_seed_and_variant_rejected():
    with pytest.raises(WorkloadError, match="scale"):
        run_workload(WorkloadSpec("strings", scale=0), session())
    with pytest.raises(WorkloadError, match="seed"):
        run_workload(WorkloadSpec("strings", seed=-1), session())
    with pytest.raises(WorkloadError, match="variant"):
        run_workload(WorkloadSpec("strings", variant="slower"), session())
    # A bool is not an int here, as everywhere else: True would run as 1.
    with pytest.raises(WorkloadError, match="^scale must be a positive integer, got True$"):
        run_workload(WorkloadSpec("strings", scale=True), session())
    with pytest.raises(WorkloadError, match="^seed must be a 64-bit unsigned integer, got True$"):
        run_workload(WorkloadSpec("strings", seed=True), session())
