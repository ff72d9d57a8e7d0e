"""build_report groups spans by name in one pass; these tests compare it with
a plain per-name rescan, on sessions with many threads and names."""

import math
import random
import re
import subprocess
import sys
import threading
from datetime import datetime, timezone
from pathlib import Path

import pytest

import churnscope

from churnscope import (
    AllocFnKind,
    MarkerChurn,
    RecorderStateError,
    RecordingSession,
    TracingAllocator,
    begin_marker,
    end_marker,
    merge_phases,
    parse_report,
    serialize_report,
    utc_timestamp,
)
from churnscope.report import ChurnReport

from factories import calls_fields, snapshot_calls


def _drive_thread(session, label, seed, names, n_ops, windows):
    """Random calls and markers on one thread: nested, partially overlapping
    and repeated names, with some spans left open for the seal to close.
    Each span's entry in ``windows`` is the list of the snapshots taken at
    its begin and end markers; a span left open has only the first."""
    rng = random.Random(seed)
    rec = session.recorder(label)
    heap = TracingAllocator(rec)
    live = []
    open_spans = []

    def end(span):
        windows[span].append(rec.snapshot())
        end_marker(span)

    for _ in range(n_ops):
        op = rng.random()
        if op < 0.2:
            open_spans.append(begin_marker(rec, rng.choice(names)))
            windows[open_spans[-1]] = [rec.snapshot()]
        elif op < 0.35 and open_spans:
            # Closing a random open span, not only the innermost, makes spans
            # that partially overlap their siblings.
            end(open_spans.pop(rng.randrange(len(open_spans))))
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
        end(open_spans.pop())
    for token in live:
        heap.free(token)


def random_session(seed, threads=3, names=40, n_ops=600):
    """A sealed session driven on ``threads`` threads, and each span's
    window: the snapshots at its two markers, or at its begin marker and
    the seal, and whether the seal closed it."""
    session = RecordingSession(build_id=f"s{seed}", created_at="2026-01-01T00:00:00Z")
    pool = [f"phase-{i:03d}" for i in range(names)]
    errors = []
    windows = {}

    def drive(label, thread_seed):
        try:
            _drive_thread(session, label, thread_seed, pool, n_ops, windows)
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
    for span, window in windows.items():
        auto_closed = len(window) == 1
        if auto_closed:
            window.append(span.recorder.snapshot())
        windows[span] = (*window, auto_closed)
    return session, windows


def rescan_oracle(session, windows):
    """Reference report contents: each span costed through snapshot_calls()
    from the snapshots at its two ends, then every part rescanned once per
    name."""
    parts = []
    for rec in session.recorders():
        capacity = rec.ring_capacity
        for span in rec.spans():
            start, end, auto_closed = windows[span]
            start_calls = snapshot_calls(start)
            parts.append(
                MarkerChurn(
                    name=span.name,
                    cost_micro=(end.cost_nano - start.cost_nano + 500) // 1000,
                    **calls_fields({kind: n - start_calls[kind] for kind, n in snapshot_calls(end).items()}),
                    bytes_allocated=end.bytes_allocated - start.bytes_allocated,
                    bytes_freed=end.bytes_freed - start.bytes_freed,
                    # Evictions at each end, as a ring evicts once per call once full.
                    overflow=max(0, end.seq - capacity) > max(0, start.seq - capacity),
                    auto_closed=auto_closed,
                    thread_id=span.thread_id,
                    span_id=span.span_id,
                )
            )
    parts.sort(key=lambda p: (p.thread_id or "", p.span_id or ""))
    merged = {}
    for name in sorted({p.name for p in parts}):
        merged[name] = merge_phases([p for p in parts if p.name == name])[name]
    return merged, parts


def _has_partial_overlap(session, windows):
    for rec in session.recorders():
        seqs = [(windows[span][0].seq, windows[span][1].seq) for span in rec.spans()]
        for a_start, a_end in seqs:
            for b_start, b_end in seqs:
                if a_start < b_start < a_end < b_end:
                    return True
    return False


@pytest.mark.parametrize("seed", range(6))
def test_build_report_matches_rescan_oracle(seed):
    session, windows = random_session(seed)
    report = session.build_report()
    merged, parts = rescan_oracle(session, windows)
    assert len({p.thread_id for p in parts}) == 3
    assert any(p.auto_closed for p in parts)
    assert _has_partial_overlap(session, windows)
    assert max(sum(p.name == name for p in parts) for name in merged) > 1
    assert report.per_thread == parts
    assert list(report.merged) == list(merged)
    assert report.merged == merged
    expected = ChurnReport(
        build_id=report.build_id,
        created_at=report.created_at,
        model=report.model,
        per_thread=parts,
        totals=report.totals,
    )
    assert serialize_report(report) == serialize_report(expected)
    assert expected.merged == merged


class CountingParts:
    """An iterable of parts that counts the passes made over it and the parts read."""

    def __init__(self, parts):
        self.parts = parts
        self.passes = 0
        self.read = 0

    def __iter__(self):
        self.passes += 1
        for part in self.parts:
            self.read += 1
            yield part


def _summed_by_hand(parts):
    """Each name's parts added field by field, without merge_phases."""
    merged = {}
    for name in sorted({p.name for p in parts}):
        group = [p for p in parts if p.name == name]
        merged[name] = MarkerChurn(
            name=name,
            cost_micro=sum(p.cost_micro for p in group),
            **calls_fields({kind: sum(p.calls[kind] for p in group) for kind in AllocFnKind}),
            bytes_allocated=sum(p.bytes_allocated for p in group),
            bytes_freed=sum(p.bytes_freed for p in group),
            overflow=any(p.overflow for p in group),
            auto_closed=any(p.auto_closed for p in group),
        )
    return merged


def test_build_report_merges_each_name_once_with_only_its_parts():
    session, windows = random_session(7)
    merged, parts = rescan_oracle(session, windows)
    assert list(_summed_by_hand(parts).items()) == list(merged.items())
    report = session.build_report()
    parsed = parse_report(serialize_report(report))
    for got in (report, parsed):
        assert got.per_thread == parts
        assert list(got.merged.items()) == list(merged.items())
        counted = CountingParts(got.per_thread)
        assert list(merge_phases(counted).items()) == list(merged.items())
        assert (counted.passes, counted.read) == (1, len(parts))


def test_ring_capacity_below_one_rejected_at_construction():
    with pytest.raises(ValueError, match=r"ring capacity must be >= 1, got 0"):
        RecordingSession(ring_capacity=0)
    for value, shown in ((2.0, "2.0"), ("3", "'3'"), (True, "True"), (False, "False")):
        with pytest.raises(ValueError, match=f"^ring capacity must be an int, got {shown}$"):
            RecordingSession(ring_capacity=value)


def _drive_with_a_ring_model(session, label, seed, n_calls, capacity, flags):
    """Random calls and spans on one thread. Each span's expected ``overflow``
    goes into ``flags`` by span id: whether a call inside it evicted an entry
    from a simulated ring that holds ``capacity`` entries."""
    rng = random.Random(seed)
    rec = session.recorder(label)
    heap = TracingAllocator(rec)
    held = 0
    open_spans = {}  # span -> whether a call inside it has evicted so far
    for _ in range(n_calls):
        if rng.random() < 0.4:
            open_spans[begin_marker(rec, rng.choice("abc"))] = False
        if open_spans and rng.random() < 0.4:
            span = rng.choice(list(open_spans))
            end_marker(span)
            flags[span.span_id] = open_spans.pop(span)
        evicts = held == capacity
        held += not evicts
        heap.malloc(rng.randrange(64))
        for span in open_spans:
            open_spans[span] |= evicts
    flags.update((span.span_id, evicted) for span, evicted in open_spans.items())  # closed by the seal
    return n_calls - held  # the calls that evicted


def test_report_evictions_are_those_a_bounded_ring_makes():
    capacity = 8
    session = RecordingSession(ring_capacity=capacity, created_at="2026-01-01T00:00:00Z")
    flags = {}
    evictions = []
    for label, seed, n_calls in (("long", 1, 30), ("short", 2, 6)):
        worker = threading.Thread(target=lambda *args: evictions.append(_drive_with_a_ring_model(*args)),
                                  args=(session, label, seed, n_calls, capacity, flags))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
    session.seal_all()
    report = session.build_report()
    assert evictions == [22, 0]
    assert report.totals.overflow_count == 22 == sum(rec.snapshot().seq - len(rec.events())
                                                     for rec in session.recorders())
    assert {part.span_id: part.overflow for part in report.per_thread} == flags
    assert {part.thread_id for part in report.per_thread} == {"long", "short"}
    assert set(flags.values()) == {False, True}
    assert not any(part.overflow for part in report.per_thread if part.thread_id == "short")


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"build_id": 7}, "build_id must be a string, got 7"),
        ({"created_at": 5}, "created_at must be None or a string, got 5"),
        # No UTF-8 form: the writer could not encode the report.
        ({"build_id": "\udcff"}, "build_id '\\udcff' is not valid Unicode (surrogates not allowed at position 0)"),
        ({"created_at": "2026-01-01T00:00:00Z\ud800"},
         "created_at '2026-01-01T00:00:00Z\\ud800' is not valid Unicode (surrogates not allowed at position 20)"),
    ],
    ids=["build_id", "created_at", "build_id-no-utf8-form", "created_at-no-utf8-form"],
)
def test_session_rejects_metadata_its_report_parser_would_reject(kwargs, message):
    with pytest.raises(ValueError) as excinfo:
        RecordingSession(**kwargs)
    assert str(excinfo.value) == message


def _in_thread(func):
    thread = threading.Thread(target=func)
    thread.start()
    thread.join()


def test_a_thread_asking_again_gets_its_own_recorder():
    session = RecordingSession()
    rec = session.recorder("main")
    assert session.recorder() is rec and session.recorder("main") is rec
    assert session.recorders() == [rec]


@pytest.mark.parametrize(
    "setup, call, error, message",
    [
        (lambda s: s.recorder("main"), lambda s: s.recorder("other"), ValueError,
         "thread already registered as 'main', not 'other'"),
        (lambda s: _in_thread(lambda: s.recorder("main")), lambda s: s.recorder("main"), ValueError,
         "thread label 'main' already in use"),
        (lambda s: s.recorder("main"), lambda s: s.build_report(), RecorderStateError,
         "recorder 'main' is not sealed; call seal_all() first"),
    ],
    ids=["relabel-own-thread", "label-of-another-thread", "report-before-seal"],
)
def test_session_refuses(setup, call, error, message):
    session = RecordingSession()
    setup(session)
    with pytest.raises(error) as excinfo:
        call(session)
    assert str(excinfo.value) == message
    assert [rec.thread_id for rec in session.recorders()] == ["main"]


def test_an_unlabelled_thread_takes_a_free_automatic_label():
    session = RecordingSession()
    session.recorder("thread-1")  # the label the next unlabelled thread would have taken
    labels = []
    for _ in range(2):
        _in_thread(lambda: labels.append(session.recorder().thread_id))
    assert labels == ["thread-2", "thread-3"]
    assert [rec.thread_id for rec in session.recorders()] == ["thread-1", "thread-2", "thread-3"]


def test_recorder_rejects_a_label_that_is_not_a_string():
    session = RecordingSession(created_at="2026-01-01T00:00:00Z")
    with pytest.raises(ValueError, match="thread label must be a string, got 5"):
        session.recorder(5)
    assert session.recorders() == []
    session.recorder("main")
    session.seal_all()
    report = session.build_report()
    assert parse_report(serialize_report(report)) == report


def test_recorder_rejects_a_label_that_has_no_utf8_form():
    session = RecordingSession(created_at="2026-01-01T00:00:00Z")
    with pytest.raises(ValueError) as excinfo:
        session.recorder("w\udcff")
    assert str(excinfo.value) == "thread label 'w\\udcff' is not valid Unicode (surrogates not allowed at position 1)"
    assert session.recorders() == []
    session.recorder("main")
    session.seal_all()
    report = session.build_report()
    assert parse_report(serialize_report(report)) == report


def _datetime_timestamp(epoch):
    """The timestamp as ``datetime`` writes it, in ISO-8601 with a four-digit
    year: the oracle for ``utc_timestamp``. Each of its out-of-range
    refusals, a year outside 1-9999 included, names the epoch."""
    try:
        moment = datetime.fromtimestamp(epoch, tz=timezone.utc)
    except (OverflowError, OSError):
        raise ValueError(f"epoch {epoch} is out of range") from None
    except ValueError as exc:
        if not re.fullmatch(r"year -?[0-9]+ is out of range", str(exc)):
            raise
        raise ValueError(f"epoch {epoch} is out of range") from None
    return moment.replace(tzinfo=None).isoformat(timespec="seconds") + "Z"


def _outcome(fn, epoch):
    try:
        return fn(epoch)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("epoch", [
    0, -1, 1.7, -0.5, True, 253402300799, -62135596800, 253402300800, -62135596801,
    math.nan, math.inf, -math.inf, 1e20, 10**30, 1e17,
    # A year below 1000 is written with four digits.
    -50000000000,
    # A float is rounded to the microsecond, half to even, before its second is taken.
    0.9999999, 0.9999995, -1e-7, -5e-7, 2.5e-7,
])
def test_utc_timestamp_matches_datetime(epoch):
    assert _outcome(utc_timestamp, epoch) == _outcome(_datetime_timestamp, epoch)


def test_importing_churnscope_leaves_datetime_out():
    code = "import sys; sys.path.insert(0, sys.argv[1]); import churnscope; print('datetime' in sys.modules)"
    src = str(Path(churnscope.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-I", "-c", code, src], capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"
