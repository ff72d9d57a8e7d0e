"""build_report groups spans by name in one pass; these tests compare it with
a plain per-name rescan, on sessions with many threads and names."""

import random
import threading

import pytest

import churnscope.aggregation as aggregation
from churnscope import (
    MarkerChurn,
    RecordingSession,
    TracingAllocator,
    begin_marker,
    end_marker,
    merge_threads,
    parse_report,
    serialize_report,
)
from churnscope.report import ChurnReport

from factories import snapshot_calls


def _drive_thread(session, label, seed, names, n_ops):
    """Random calls and markers on one thread: nested, partially overlapping
    and repeated names, with some spans left open for the seal to close."""
    rng = random.Random(seed)
    rec = session.recorder(label)
    heap = TracingAllocator(rec)
    live = []
    open_spans = []
    for _ in range(n_ops):
        op = rng.random()
        if op < 0.2:
            open_spans.append(begin_marker(rec, rng.choice(names)))
        elif op < 0.35 and open_spans:
            # Closing a random open span, not only the innermost, makes spans
            # that partially overlap their siblings.
            end_marker(open_spans.pop(rng.randrange(len(open_spans))))
        elif op < 0.6:
            live.append(heap.malloc(rng.randrange(0, 5000)))
        elif op < 0.7:
            live.append(heap.calloc(rng.randrange(0, 9), rng.randrange(1, 300)))
        elif op < 0.8 and live:
            i = rng.randrange(len(live))
            live[i] = heap.realloc(live[i], rng.randrange(1, 8000))
        elif live:
            heap.free(live.pop(rng.randrange(len(live))))
    for _ in range(rng.randrange(len(open_spans) + 1)):
        end_marker(open_spans.pop())
    for token in live:
        heap.free(token)


def random_session(seed, threads=3, names=40, n_ops=600):
    session = RecordingSession(build_id=f"s{seed}", created_at="2026-01-01T00:00:00Z")
    pool = [f"phase-{i:03d}" for i in range(names)]
    errors = []

    def drive(label, thread_seed):
        try:
            _drive_thread(session, label, thread_seed, pool, n_ops)
        except BaseException as exc:  # re-raised on the test thread below
            errors.append(exc)

    for t in range(threads):
        worker = threading.Thread(target=drive, args=(f"t{t}", seed * 100 + t))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
    if errors:
        raise errors[0]
    session.seal_all()
    return session


def rescan_oracle(session):
    """Reference report contents: each span costed through snapshot_calls(),
    then every part rescanned once per name."""
    parts = []
    for rec in session.recorders():
        for span in rec.spans():
            start, end = span.start_snapshot, span.end_snapshot
            start_calls = snapshot_calls(start)
            parts.append(
                MarkerChurn(
                    name=span.name,
                    cost_micro=(end.cost_nano - start.cost_nano + 500) // 1000,
                    calls={kind: n - start_calls[kind] for kind, n in snapshot_calls(end).items()},
                    bytes_allocated=end.bytes_allocated - start.bytes_allocated,
                    bytes_freed=end.bytes_freed - start.bytes_freed,
                    overflow=end.overflow_count > start.overflow_count,
                    auto_closed=span.auto_closed,
                    thread_id=span.thread_id,
                    span_id=span.span_id,
                )
            )
    parts.sort(key=lambda p: (p.thread_id or "", p.span_id or ""))
    merged = {}
    for name in sorted({p.name for p in parts}):
        merged[name] = merge_threads([p for p in parts if p.name == name])
    return merged, parts


def _has_partial_overlap(session):
    for rec in session.recorders():
        spans = rec.spans()
        for a in spans:
            for b in spans:
                if a.start_snapshot.seq < b.start_snapshot.seq < a.end_snapshot.seq < b.end_snapshot.seq:
                    return True
    return False


@pytest.mark.parametrize("seed", range(6))
def test_build_report_matches_rescan_oracle(seed):
    session = random_session(seed)
    report = session.build_report()
    merged, parts = rescan_oracle(session)
    assert len({p.thread_id for p in parts}) == 3
    assert any(p.auto_closed for p in parts)
    assert _has_partial_overlap(session)
    assert max(sum(p.name == name for p in parts) for name in merged) > 1
    assert report.per_thread == parts
    assert list(report.merged) == list(merged)
    assert report.merged == merged
    expected = ChurnReport(
        build_id=report.build_id,
        created_at=report.created_at,
        model=report.model,
        merged=merged,
        per_thread=parts,
        totals=report.totals,
    )
    assert serialize_report(report) == serialize_report(expected)


def test_build_report_merges_each_name_once_with_only_its_parts(monkeypatch):
    session = random_session(7)
    seen = []

    def spy(parts):
        seen.append(list(parts))
        return merge_threads(parts)

    def assert_each_name_merged_once(report):
        assert sorted(group[0].name for group in seen) == sorted(report.merged)
        for group in seen:
            name = group[0].name
            assert group == [p for p in report.per_thread if p.name == name]

    monkeypatch.setattr(aggregation, "merge_threads", spy)
    report = session.build_report()
    assert_each_name_merged_once(report)
    # Parsing checks each phase against the sum of its parts, merging each name once too.
    seen.clear()
    parsed = parse_report(serialize_report(report))
    assert parsed.merged == report.merged
    assert_each_name_merged_once(parsed)


def test_ring_capacity_below_one_rejected_at_construction():
    with pytest.raises(ValueError, match=r"ring capacity must be >= 1, got 0"):
        RecordingSession(ring_capacity=0)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"build_id": 7}, "build_id must be a string, got 7"),
        ({"created_at": 5}, "created_at must be None or a string, got 5"),
    ],
    ids=["build_id", "created_at"],
)
def test_session_rejects_metadata_its_report_parser_would_reject(kwargs, message):
    with pytest.raises(ValueError, match=message):
        RecordingSession(**kwargs)


def test_recorder_rejects_a_label_that_is_not_a_string():
    session = RecordingSession(created_at="2026-01-01T00:00:00Z")
    with pytest.raises(ValueError, match="thread label must be a string, got 5"):
        session.recorder(5)
    assert session.recorders() == []
    session.recorder("main")
    session.seal_all()
    report = session.build_report()
    assert parse_report(serialize_report(report)) == report
