"""Acceptance suite: one test per shipping criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one status line per
criterion alongside the pytest verdicts.
"""

import random
import time
import warnings

import pytest

from churnscope import (
    AllocFnKind,
    CostModel,
    MarkerChurn,
    RecordingSession,
    ThreadRecorder,
    TracingAllocator,
    WorkloadSpec,
    begin_marker,
    diff_reports,
    end_marker,
    event_cost,
    merge_phases,
    run_workload,
    serialize_report,
    span_churn,
    workload_names,
)
from churnscope.cli import main
from churnscope.report import STATUS_NEUTRAL, STATUS_REGRESSION

from eventgen import drive_with_spans
from factories import calls_fields
from replay_oracle import replay

MODEL = CostModel()


def note(criterion: int, message: str) -> None:
    print(f"[criterion {criterion:>2}] {message}")


def pinned_session(ring_capacity=1 << 16):
    return RecordingSession(
        build_id="acceptance",
        created_at="2026-01-01T00:00:00Z",
        ring_capacity=ring_capacity,
    )


def test_criterion_01_cost_function_spot_checks():
    start = time.perf_counter()
    checks = [
        (AllocFnKind.MALLOC, 1024, 10.0),
        (AllocFnKind.REALLOC, 4096, 36.0),
        (AllocFnKind.CALLOC, 256, 16.0),
        (AllocFnKind.FREE, 512, 9.0),
    ]
    for kind, nbytes, expected in checks:
        assert abs(event_cost(MODEL, kind, nbytes) - expected) <= 1e-12
    for kind in AllocFnKind:
        assert event_cost(MODEL, kind, 0) == 0.0
        assert event_cost(MODEL, kind, 1) == 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    note(1, f"PASS cost spot checks exact to 1e-12 in {elapsed:.3f}s")


def test_criterion_02_default_weights():
    assert MODEL.weights == {
        AllocFnKind.CALLOC: 2.0,
        AllocFnKind.FREE: 1.0,
        AllocFnKind.MALLOC: 1.0,
        AllocFnKind.REALLOC: 3.0,
    }
    note(2, "PASS default weights are calloc 2, free 1, malloc 1, realloc 3")


def test_criterion_03_workload_determinism():
    start = time.perf_counter()
    for name in workload_names():
        spec = WorkloadSpec(name, seed=1, scale=3)
        reference = serialize_report(run_workload(spec, pinned_session()))
        for _ in range(9):
            again = serialize_report(run_workload(spec, pinned_session()))
            assert again == reference, f"workload {name} report drifted between runs"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    note(3, f"PASS 10 runs per workload byte-identical in {elapsed:.2f}s")


def test_criterion_04_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(0xACCE97)
    sequences = 0
    spans_checked = 0
    lengths = [rng.randrange(20, 320) for _ in range(995)] + [10_000] * 5
    for case, n_ops in enumerate(lengths):
        rec = ThreadRecorder(f"t{case}", MODEL, ring_capacity=1 << 15)
        heap = TracingAllocator(rec)
        spans = drive_with_spans(rec, heap, rng, n_ops)
        events = rec.events()
        assert len(events) == rec.snapshot().seq  # full log retained
        for span, begin_seq, end_seq in spans:
            churn = span_churn(span)
            oracle = replay(events, MODEL, begin_seq, end_seq)
            assert churn.calls == oracle.calls
            assert churn.bytes_allocated == oracle.bytes_allocated
            assert churn.bytes_freed == oracle.bytes_freed
            assert churn.cost_micro == oracle.cost_micro
            spans_checked += 1
        sequences += 1
    elapsed = time.perf_counter() - start
    assert sequences >= 1000
    assert elapsed < 60.0
    note(4, f"PASS {sequences} sequences, {spans_checked} spans vs replay in {elapsed:.2f}s")


def test_criterion_05_additivity_and_merge_properties():
    rng = random.Random(0xADD17)
    violations = 0

    # (a) random span bisection additivity, 500 cases
    for case in range(500):
        rec = ThreadRecorder(f"bisect{case}", MODEL, ring_capacity=1 << 14)
        heap = TracingAllocator(rec)
        # The counters at the three marker points: whole and left begin at the
        # first, left ends and right begins at the second, right and whole end at the third.
        points = [rec.snapshot()]
        whole = begin_marker(rec, "whole")
        left = begin_marker(rec, "left")
        for _ in range(rng.randrange(0, 25)):
            heap.free(heap.malloc(rng.randrange(0, 1 << 14)))
        points.append(rec.snapshot())
        end_marker(left)
        right = begin_marker(rec, "right")
        for _ in range(rng.randrange(0, 25)):
            heap.free(heap.calloc(rng.randrange(0, 9), 128))
        points.append(rec.snapshot())
        end_marker(right)
        end_marker(whole)
        w, l, r = (span_churn(s) for s in (whole, left, right))
        windows = [(points[0], points[2]), (points[0], points[1]), (points[1], points[2])]
        # Costs add exactly in the nano-unit running total; each record is its
        # span's total rounded to micro-units on its own.
        nano = [end.cost_nano - start.cost_nano for start, end in windows]
        if nano[0] != nano[1] + nano[2]:
            violations += 1
        events = rec.events()
        oracle = [replay(events, MODEL, start.seq, end.seq) for start, end in windows]
        if [c.cost_micro for c in (w, l, r)] != [o.cost_micro for o in oracle]:
            violations += 1
        if any(w.calls[k] != l.calls[k] + r.calls[k] for k in AllocFnKind):
            violations += 1
        if (w.bytes_allocated, w.bytes_freed) != (
            l.bytes_allocated + r.bytes_allocated,
            l.bytes_freed + r.bytes_freed,
        ):
            violations += 1

    # (b) merge commutativity and associativity, 500 cases
    def rand_part(thread, span):
        return MarkerChurn(
            name="p",
            cost_micro=rng.randrange(0, 500 * 10**6),
            **calls_fields({k: rng.randrange(0, 20) for k in AllocFnKind}),
            bytes_allocated=rng.randrange(0, 1 << 16),
            bytes_freed=rng.randrange(0, 1 << 16),
            thread_id=thread,
            span_id=f"{thread}/{span:06d}",
        )

    for _ in range(500):
        a, b, c = (rand_part(f"t{i}", 0) for i in range(3))
        merged = merge_phases([a, b, c])
        shuffled = [a, b, c]
        rng.shuffle(shuffled)
        commuted = merge_phases(shuffled)
        if commuted != merged:
            violations += 1
        nested = merge_phases([*merge_phases([a, b]).values(), c])
        if nested != merged or merge_phases([a, *merge_phases([b, c]).values()]) != merged:
            violations += 1

    # (c) parent containment dominance, 500 cases
    for case in range(500):
        rec = ThreadRecorder(f"nest{case}", MODEL, ring_capacity=1 << 14)
        heap = TracingAllocator(rec)
        parent = begin_marker(rec, "outer")
        for _ in range(rng.randrange(0, 8)):
            heap.free(heap.malloc(rng.randrange(0, 4096)))
        child = begin_marker(rec, "inner")
        for _ in range(rng.randrange(0, 8)):
            heap.free(heap.malloc(rng.randrange(0, 4096)))
        end_marker(child)
        for _ in range(rng.randrange(0, 4)):
            heap.malloc(rng.randrange(0, 4096))
        end_marker(parent)
        pc, cc = span_churn(parent), span_churn(child)
        if cc.cost_micro > pc.cost_micro:
            violations += 1
        if any(cc.calls[k] > pc.calls[k] for k in AllocFnKind):
            violations += 1
        if cc.bytes_allocated > pc.bytes_allocated or cc.bytes_freed > pc.bytes_freed:
            violations += 1

    assert violations == 0
    note(5, "PASS additivity, merge, and containment properties: 0 violations in 1500 cases")


def test_criterion_06_conservation_after_every_workload():
    for name in workload_names():
        for variant in ("baseline", "regressed"):
            report = run_workload(
                WorkloadSpec(name, seed=1, scale=2, variant=variant), pinned_session()
            )
            assert report.totals.bytes_allocated == report.totals.bytes_freed, name
            assert report.totals.live_blocks == 0, name
            assert report.totals.live_bytes == 0, name
            assert report.totals.anomaly_count == 0, name
    note(6, "PASS every workload drains its live table with zero anomalies")


def test_criterion_07_ring_overflow_immunity():
    rng_tiny = random.Random(0x0F10)
    rng_big = random.Random(0x0F10)
    tiny = ThreadRecorder("t", MODEL, ring_capacity=1)
    big = ThreadRecorder("t", MODEL, ring_capacity=1_000_000)
    drive_with_spans(tiny, TracingAllocator(tiny), rng_tiny, 5000)
    drive_with_spans(big, TracingAllocator(big), rng_big, 5000)
    # A snapshot holds only what was counted, so the capacity changes none of it.
    assert tuple(tiny.snapshot()) == tuple(big.snapshot())
    tiny.seal()
    big.seal()
    # The eviction indicator is derived per span: set under the capacity-1 ring, never under the large one.
    a, b = ([span_churn(span) for span in rec.spans()] for rec in (tiny, big))
    assert any(churn.overflow for churn in a) and not any(churn.overflow for churn in b)
    assert [churn._replace(overflow=False) for churn in a] == b
    note(7, "PASS capacity-1 ring matches capacity-1e6 ring on every counter and span")


def test_criterion_08_end_to_end_regression_gate(tmp_path, capsys):
    start = time.perf_counter()
    base = tmp_path / "base.churn.json"
    cand = tmp_path / "cand.churn.json"
    common = ["--workload", "strings", "--seed", "1", "--scale", "100", "--epoch", "0"]
    assert main(["run", *common, "--variant", "baseline", "--out", str(base)]) == 0
    assert main(["run", *common, "--variant", "regressed", "--out", str(cand)]) == 0
    capsys.readouterr()

    assert main(["diff", str(base), str(cand)]) == 1
    out = capsys.readouterr().out
    first_row = out.splitlines()[2].split()
    assert first_row[0] == "format"
    assert first_row[1] == "regression"

    assert main(["diff", str(base), str(base)]) == 0
    out = capsys.readouterr().out
    assert "no regression" in out
    assert "regression detected" not in out
    assert out.count("neutral") == 2  # build and format both neutral
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    note(8, f"PASS gate: regressed diff exits 1 with format first, self-diff exits 0 ({elapsed:.2f}s)")


def test_criterion_09_scheduler_independence():
    spec = WorkloadSpec("multithread", seed=11, scale=4)
    reference = serialize_report(run_workload(spec, pinned_session()))
    for _ in range(9):
        assert serialize_report(run_workload(spec, pinned_session())) == reference
    note(9, "PASS multithread merged churn identical across 10 runs")


def test_criterion_10_overhead_smoke():
    rec = ThreadRecorder("hot", MODEL, ring_capacity=4096)
    events = 100_000
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for i in range(events // 2):
            rec.record_malloc(1024, i)
            rec.record_free(i)
        best = min(best, time.perf_counter() - start)
    rate = events / best
    # Informational threshold: a shortfall needs investigation, not a hard
    # rejection, so only pathological rates fail outright.
    if rate < 100_000:
        warnings.warn(f"recorder rate {rate:,.0f} events/s is below the 100k/s target")
        note(10, f"WARN recorder sustained only {rate:,.0f} events/s (target 100k/s)")
    else:
        note(10, f"PASS recorder sustained {rate:,.0f} events/s (target 100k/s)")
    assert rate >= 10_000


def test_criterion_11_ranking_invariant_under_weight_scaling():
    def verdict_shape(model):
        base = run_workload(
            WorkloadSpec("strings", seed=1, scale=10),
            RecordingSession(model, build_id="b", created_at="2026-01-01T00:00:00Z"),
        )
        cand = run_workload(
            WorkloadSpec("strings", seed=1, scale=10, variant="regressed"),
            RecordingSession(model, build_id="c", created_at="2026-01-01T00:00:00Z"),
        )
        verdict = diff_reports(base, cand)
        return [(d.phase, d.status) for d in verdict.deltas]

    reference = verdict_shape(MODEL)
    assert ("format", STATUS_REGRESSION) in reference
    assert ("build", STATUS_NEUTRAL) in reference
    for factor in (0.5, 2.0, 10.0):
        scaled = CostModel({k: w * factor for k, w in MODEL.weights.items()}, f"scaled-{factor:g}")
        assert verdict_shape(scaled) == reference, f"ranking drifted at factor {factor}"
    note(11, "PASS statuses and ranking unchanged under weight scaling 0.5x/2x/10x")
