"""Benchmark of churnscope's run path (calls -> report) and gate path
(two reports -> verdict).

    python3 perfbench/run.py --workload long-phases --seed 1 --seconds 25 --trace 0

Run from the root of a churnscope checkout; churnscope is imported from its
``src`` directory. One process, one thread: a closed loop of whole rounds at
a fixed input size per workload until ``--seconds`` have passed. With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it runs
traced passes beside untraced ones and prints the per-layer metrics. The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("long-phases", "dense-markers", "cli-gate")
# Gates per timed gate sample, so each sample lasts tens of milliseconds.
GATE_REPS = {"long-phases": 25, "dense-markers": 1}
SETUP_SAMPLES = 15
MIN_ROUNDS = 3
MIN_MARKER_PAIRS = 2000
CREATED_AT = "1970-01-01T00:00:00Z"
# cli-gate: the single-threaded built-in workloads, the scale each runs at,
# and the one phase each one's regressed variant is designed to grow.
CLI_SCALES = {"strings": 250, "table": 100, "buffers": 250}
CLI_REGRESSED = {"strings": "format", "table": "rehash", "buffers": "transform"}

SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
from calibration import calibrate
cal = sorted(calibrate() for _ in range(3))[1]
sys.path.insert(0, sys.argv[2])
t0 = time.perf_counter()
if sys.argv[3] == "cli":
    from churnscope.cli import build_parser
    build_parser()
else:
    from churnscope import RecordingSession, TracingAllocator
    TracingAllocator(RecordingSession().recorder("main"))
elapsed = time.perf_counter() - t0
import churnscope
print(churnscope.__file__, elapsed, cal)
"""


def load_churnscope():
    """Import churnscope from this checkout's ``src``, or exit 2."""
    if not (SRC / "churnscope" / "__init__.py").is_file():
        print(f"perfbench: no churnscope sources under {SRC}; run from a churnscope checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import churnscope

    if Path(churnscope.__file__).resolve().parent != SRC / "churnscope":
        print(f"perfbench: imported churnscope from {churnscope.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return churnscope


cs = load_churnscope()
from churnscope.cli import main as cli_main  # noqa: E402

import programs  # noqa: E402
from calibration import CALIBRATION_NOMINAL_S, calibrate  # noqa: E402
from timing import Clock, NullTracer, Tracer  # noqa: E402

UNTRACED = NullTracer()


def produce(tr, program, path: Path, build_id: str) -> bytes:
    """The library run path: drive, seal, build, serialize, write."""
    session = cs.RecordingSession(
        ring_capacity=programs.RING_CAPACITY, build_id=build_id, created_at=CREATED_AT
    )
    rec = session.recorder("main")
    heap = cs.TracingAllocator(rec)
    with tr.span("drive"):
        programs.replay(program, heap, rec, cs.begin_marker, cs.end_marker)
    with tr.span("session.seal"):
        session.seal_all()
    with tr.span("session.build_report"):
        report = session.build_report()
    with tr.span("report.serialize"):
        data = cs.serialize_report(report)
    with tr.span("io.write"):
        path.write_bytes(data)
    return data


def gate(tr, base_path: Path, cand_path: Path) -> bytes:
    """The library gate path: read, parse twice, diff, serialize the verdict."""
    with tr.span("io.read"):
        base = base_path.read_bytes()
        cand = cand_path.read_bytes()
    with tr.span("report.parse"):
        base_report = cs.parse_report(base)
    with tr.span("report.parse"):
        cand_report = cs.parse_report(cand)
    with tr.span("report.diff"):
        verdict = cs.diff_reports(base_report, cand_report)
    with tr.span("report.serialize_verdict"):
        return cs.serialize_verdict(verdict)


def cli(argv: list[str]) -> tuple[int, bytes]:
    """``churnscope.cli.main`` in-process, with stdout captured as bytes."""
    buf = io.BytesIO()
    out = io.TextIOWrapper(buf, encoding="utf-8")
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
        out.flush()
    return code, buf.getvalue()


def peak_traced(fn, *args) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class Outcome:
    """Operation counts, correctness errors and same-seed byte identity."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first: dict[str, bytes] = {}

    def expect_code(self, what: str, got: int, want: int) -> None:
        self.attempted += 1
        if got != want:
            self.failed += 1
            self.errors.append(f"{what} exited {got}, expected {want}")

    def same(self, key: str, data: bytes) -> None:
        first = self.first.setdefault(key, data)
        if first != data:
            self.errors.append(f"same-seed runs gave different bytes for {key}")


def check_roundtrip(outcome: Outcome, data: bytes, what: str):
    """Parse a report and require that it serializes back to the same bytes."""
    report = cs.parse_report(data)
    if cs.serialize_report(report) != data:
        outcome.errors.append(f"{what}: parse -> serialize is not byte-identical")
    return report


def check_verdict(outcome: Outcome, data: bytes, what: str):
    verdict = cs.parse_verdict(data)
    if cs.serialize_verdict(verdict) != data:
        outcome.errors.append(f"{what}: verdict parse -> serialize is not byte-identical")
    th = verdict.thresholds
    if (th.rel, th.abs_floor, th.call_floor) != (programs.REL_THRESHOLD, programs.ABS_FLOOR, None):
        outcome.errors.append(f"{what}: verdict thresholds {th} are not the defaults")
    if not verdict.regression_detected:
        outcome.errors.append(f"{what}: no regression detected")
    return verdict


# ---------------------------------------------------------------------------
# workloads


class LibraryWorkload:
    """long-phases and dense-markers: a generated program through the library."""

    setup_mode = "session"

    def __init__(self, name: str, seed: int, outcome: Outcome):
        generate = programs.long_phases if name == "long-phases" else programs.dense_markers
        self.name = name
        self.outcome = outcome
        self.base, self.designed = generate(seed, False)
        self.cand, _ = generate(seed, True)
        self.base_path = OUT / f"{name}.baseline.churn.json"
        self.cand_path = OUT / f"{name}.candidate.churn.json"
        self.gate_reps = GATE_REPS[name]
        self.cand_bytes = produce(UNTRACED, self.cand, self.cand_path, "candidate")
        self.calls_only = self.base.calls_only()
        self.markers_only = self.base.markers_only(MIN_MARKER_PAIRS)

    def peak_memory(self) -> int:
        return peak_traced(produce, UNTRACED, self.base, self.base_path, "baseline")

    def run(self, tr) -> None:
        self.outcome.attempted += 1
        self.outcome.same("baseline report", produce(tr, self.base, self.base_path, "baseline"))

    def gate(self, tr) -> None:
        for _ in range(self.gate_reps):
            self.outcome.attempted += 1
            self.outcome.same("verdict", gate(tr, self.base_path, self.cand_path))

    def report_bytes(self) -> int:
        return len(self.outcome.first["baseline report"])

    def traced_extras(self, tr) -> None:
        """The CLI layer on this workload's reports, and its fixed cost for ``run``."""
        with tr.span("cli.diff"):
            code, out = cli(["diff", str(self.base_path), str(self.cand_path), "--format", "json"])
        self.outcome.expect_code("churnscope diff", code, 1)
        self.outcome.same("cli verdict", out)
        with tr.span("cli.run"):
            code, _ = cli(["run", "--workload", "strings", "--scale", "1",
                           "--out", str(OUT / f"{self.name}.cli.churn.json"), "--epoch", "0"])
        self.outcome.expect_code("churnscope run", code, 0)

    def check(self) -> dict:
        """Independent checks of the first outputs; returns the layer counts."""
        o = self.outcome
        exp_base = programs.expect(self.base)
        exp_cand = programs.expect(self.cand)
        base = check_roundtrip(o, o.first["baseline report"], "baseline report")
        cand = check_roundtrip(o, self.cand_bytes, "candidate report")
        programs.check_report(base, exp_base, o.errors)
        programs.check_report(cand, exp_cand, o.errors)
        verdict_bytes = o.first["verdict"]
        verdict = check_verdict(o, verdict_bytes, "verdict")
        if "cli verdict" in o.first and o.first["cli verdict"] != verdict_bytes:
            o.errors.append("churnscope diff --format json differs from serialize_verdict")
        names = set(exp_base.phases) | set(exp_cand.phases)
        predicted = {
            n: programs.predict_status(exp_base.phases.get(n), exp_cand.phases.get(n))
            for n in names
        }
        got = {d.phase: d.status for d in verdict.deltas}
        if got != predicted:
            wrong = sorted(n for n in names if got.get(n) != predicted[n])
            o.errors.append(f"verdict statuses differ from the oracle's for {wrong[:5]}")
        flagged = {n: s for n, s in predicted.items() if s != "neutral"}
        if flagged != self.designed:
            o.errors.append("the oracle does not flag exactly the perturbed phases")
        return {
            "recorder.calls": exp_base.calls,
            "recorder.ring_evictions": base.totals.overflow_count,
            "markers.spans": len(base.per_thread),
            "session.phases": len(base.merged),
            "report.deltas": len(verdict.deltas),
            "report.verdict_bytes": len(verdict_bytes),
        }


class CliWorkload:
    """cli-gate: ``churnscope run`` twice and ``diff`` per built-in workload."""

    setup_mode = "cli"

    def __init__(self, name: str, seed: int, outcome: Outcome):
        self.outcome = outcome
        self.seed = seed
        self.gate_reps = 1
        self.paths = {
            w: (OUT / f"cli-{w}.baseline.churn.json", OUT / f"cli-{w}.regressed.churn.json")
            for w in CLI_SCALES
        }
        # The library path over the same specs, for per-layer figures.
        self.lib_paths = {
            w: (OUT / f"lib-{w}.baseline.churn.json", OUT / f"lib-{w}.regressed.churn.json")
            for w in CLI_SCALES
        }
        logs = []
        names = []
        for w in CLI_SCALES:
            # A ring large enough to keep every event, to rebuild the calls.
            rec = self._library_report(UNTRACED, w, "baseline", ring=1 << 20).recorders()[0]
            logs.append(rec.events())
            names.extend(s.name for s in rec.spans())
            self._library_report(UNTRACED, w, "regressed")
            self._library_report(UNTRACED, w, "baseline")
        self.calls_only = programs.program_from_events(logs)
        markers = programs.Program()
        for n in names:
            markers.end(markers.begin(n))
        self.markers_only = markers.markers_only(MIN_MARKER_PAIRS)

    def _run_argv(self, w: str, variant: str, out: Path) -> list[str]:
        return ["run", "--workload", w, "--seed", str(self.seed), "--scale", str(CLI_SCALES[w]),
                "--variant", variant, "--out", str(out), "--build-id", variant, "--epoch", "0"]

    def _library_report(self, tr, w: str, variant: str, ring=None):
        spec = cs.WorkloadSpec(w, seed=self.seed, scale=CLI_SCALES[w], variant=variant)
        session = cs.RecordingSession(ring_capacity=ring, build_id=variant, created_at=CREATED_AT)
        with tr.span("drive"):
            cs.WORKLOADS[w].run(spec, session)
        with tr.span("session.seal"):
            session.seal_all()
        with tr.span("session.build_report"):
            report = session.build_report()
        with tr.span("report.serialize"):
            data = cs.serialize_report(report)
        with tr.span("io.write"):
            self.lib_paths[w][variant == "regressed"].write_bytes(data)
        return session

    def peak_memory(self) -> int:
        return max(
            peak_traced(cli, self._run_argv(w, "baseline", base)) for w, (base, _) in self.paths.items()
        )

    def run(self, tr) -> None:
        for w, (base, _) in self.paths.items():
            with tr.span("cli.run"):
                code, _ = cli(self._run_argv(w, "baseline", base))
            self.outcome.expect_code(f"churnscope run {w}", code, 0)

    def regressed(self) -> None:
        for w, (base, cand) in self.paths.items():
            code, _ = cli(self._run_argv(w, "regressed", cand))
            self.outcome.expect_code(f"churnscope run {w} --variant regressed", code, 0)
            self.outcome.same(f"{w} baseline report", base.read_bytes())

    def gate(self, tr) -> None:
        for w, (base, cand) in self.paths.items():
            with tr.span("cli.diff"):
                code, out = cli(["diff", str(base), str(cand), "--format", "json"])
            self.outcome.expect_code(f"churnscope diff {w}", code, 1)
            self.outcome.same(f"{w} verdict", out)

    def report_bytes(self) -> int:
        return sum(len(self.outcome.first[f"{w} baseline report"]) for w in CLI_SCALES)

    def traced_extras(self, tr) -> None:
        """The library path over the same specs, traced layer by layer."""
        for w, (base, cand) in self.lib_paths.items():
            self._library_report(tr, w, "baseline")
            gate(tr, base, cand)

    def check(self) -> dict:
        o = self.outcome
        counts = dict.fromkeys(("recorder.ring_evictions", "markers.spans", "session.phases",
                                "report.deltas", "report.verdict_bytes"), 0)
        for w, phase in CLI_REGRESSED.items():
            report = check_roundtrip(o, o.first[f"{w} baseline report"], f"{w} baseline report")
            t = report.totals
            if (t.live_blocks, t.live_bytes, t.anomaly_count) != (0, 0, 0):
                o.errors.append(f"{w}: live blocks, live bytes or anomalies are not zero")
            if t.bytes_allocated != t.bytes_freed:
                o.errors.append(f"{w}: bytes allocated and freed differ")
            if o.first[f"{w} baseline report"] != self.lib_paths[w][0].read_bytes():
                o.errors.append(f"{w}: churnscope run and the library path wrote different reports")
            verdict_bytes = o.first[f"{w} verdict"]
            verdict = check_verdict(o, verdict_bytes, f"{w} verdict")
            flagged = {d.phase: d.status for d in verdict.deltas if d.status != "neutral"}
            if flagged != {phase: "regression"}:
                o.errors.append(f"{w}: diff flagged {flagged}, expected only {phase!r}")
            counts["recorder.ring_evictions"] += t.overflow_count
            counts["markers.spans"] += len(report.per_thread)
            counts["session.phases"] += len(report.merged)
            counts["report.deltas"] += len(verdict.deltas)
            counts["report.verdict_bytes"] += len(verdict_bytes)
        counts["recorder.calls"] = len(self.calls_only.ops)
        return counts


# ---------------------------------------------------------------------------
# measurement


def setup_times(clock: Clock, mode: str, outcome: Outcome) -> None:
    """Import + session (or parser) creation in fresh interpreters.

    The first child only warms the file and bytecode caches and is not timed.
    """
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(BENCH_DIR), str(SRC), mode],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        outcome.expect_code("set-up interpreter", proc.returncode, 0)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            continue
        path, raw, cal = proc.stdout.split()
        if Path(path).resolve().parent != SRC / "churnscope":
            outcome.errors.append(f"set-up imported churnscope from {path}")
        if i:
            clock.add("setup", float(raw), float(cal))


def micro(clock: Clock, wl) -> None:
    """Per-call recorder cost, the bare allocator, and a marker pair."""
    def traced_calls():
        session = cs.RecordingSession(ring_capacity=programs.RING_CAPACITY, created_at=CREATED_AT)
        rec = session.recorder("main")
        programs.replay(wl.calls_only, cs.TracingAllocator(rec), rec)

    def bare_calls():
        programs.replay(wl.calls_only, cs.BumpAllocator(), None)

    def marker_pairs():
        session = cs.RecordingSession(ring_capacity=programs.RING_CAPACITY, created_at=CREATED_AT)
        rec = session.recorder("main")
        programs.replay(wl.markers_only, cs.BumpAllocator(), rec, cs.begin_marker, cs.end_marker)

    clock.time("recorder", traced_calls)
    clock.time("allocator", bare_calls)
    clock.time("markers", marker_pairs)


# Spans that run once per gate; a traced gate pass holds ``gate_reps`` of them.
GATE_SPANS = {"io.read", "report.parse", "report.diff", "report.serialize_verdict"}

def measure(wl, clock: Clock, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Whole rounds until ``seconds`` pass; returns (metrics, detail)."""
    tracer = Tracer()
    factors: list[float] = []
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        clock.time("run", wl.run, clock)
        if isinstance(wl, CliWorkload):
            clock.time("regressed", wl.regressed)
        clock.time("gate", wl.gate, clock)
        if trace:
            tracer.pass_id = rounds
            before = calibrate()
            gc.collect()
            with tracer.span("run"):
                wl.run(tracer)
            with tracer.span("gate"):
                wl.gate(tracer)
            wl.traced_extras(tracer)
            after = calibrate()
            factors.append(CALIBRATION_NOMINAL_S / ((before + after) / 2))
            micro(clock, wl)
        rounds += 1
    detail = {"rounds": rounds, "stages": {k: clock.summary(k) for k in clock.raw}}
    gate_s = clock.median("gate") / wl.gate_reps
    if not trace:
        return {"run_s": clock.median("run"), "gate_s": gate_s}, detail

    def layer(span: str) -> float:
        return statistics.median(
            tracer.durations(r).get(span, 0.0) * f for r, f in enumerate(factors)
        ) / (wl.gate_reps if span in GATE_SPANS else 1)

    calls = len(wl.calls_only.ops)
    pairs = wl.markers_only.nspans
    metrics = {
        "recorder.us_per_call": clock.median("recorder") / calls * 1e6,
        "recorder.base_us_per_call": clock.median("allocator") / calls * 1e6,
        "markers.us_per_pair": clock.median("markers") / pairs * 1e6,
        "session.seal_s": layer("session.seal"),
        "session.build_report_s": layer("session.build_report"),
        "report.serialize_s": layer("report.serialize"),
        "report.parse_s": layer("report.parse"),
        "report.diff_s": layer("report.diff"),
        "report.serialize_verdict_s": layer("report.serialize_verdict"),
        "cli.run_s": layer("cli.run"),
        "cli.diff_s": layer("cli.diff"),
        "trace.overhead_s": layer("run") - clock.median("run"),
    }
    self_s = {k: v * statistics.median(factors) / rounds for k, v in tracer.self_times().items()}
    detail["self_s_per_round"] = self_s
    detail["spans"] = tracer.records()
    return metrics, detail


END_TO_END = {
    "setup_s": "s", "run_s": "s", "gate_s": "s", "report_bytes": "B", "peak_mem_mb": "MB",
}
PER_LAYER = {
    "recorder.calls": "count", "recorder.us_per_call": "us", "recorder.base_us_per_call": "us",
    "recorder.ring_evictions": "count", "markers.spans": "count", "markers.us_per_pair": "us",
    "session.seal_s": "s", "session.build_report_s": "s", "session.phases": "count",
    "report.serialize_s": "s", "report.parse_s": "s", "report.diff_s": "s",
    "report.serialize_verdict_s": "s", "report.deltas": "count", "report.verdict_bytes": "B",
    "cli.run_s": "s", "cli.diff_s": "s", "trace.overhead_s": "s",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seed = args.seed % 2**64
    trace = bool(args.trace)
    OUT.mkdir(exist_ok=True)

    outcome = Outcome()
    wl_class = CliWorkload if args.workload == "cli-gate" else LibraryWorkload
    wl = wl_class(args.workload, seed, outcome)
    detail: dict = {"workload": args.workload, "seed": seed, "trace": args.trace,
                    "python": sys.version.split()[0], "calibration_nominal_s": CALIBRATION_NOMINAL_S}
    metrics: dict = {}
    clock = Clock()
    if not trace:
        setup_times(clock, wl.setup_mode, outcome)
        metrics["setup_s"] = clock.median("setup")
        peak = wl.peak_memory()
    gc.collect()
    gc.freeze()
    timed, detail["measure"] = measure(wl, clock, args.seconds, trace)
    counts = wl.check()
    if trace:
        metrics.update(timed)
        metrics.update(counts)
        spans = detail["measure"].pop("spans")
        (OUT / f"trace-{args.workload}-seed{seed}.json").write_text(json.dumps(spans))
        units = PER_LAYER
    else:
        metrics.update(timed)
        metrics["report_bytes"] = wl.report_bytes()
        metrics["peak_mem_mb"] = peak / 1e6
        units = END_TO_END
    result = {
        "correct": not outcome.errors,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    for err in outcome.errors[:20]:
        print(f"perfbench: check failed: {err}", file=sys.stderr)
    (OUT / f"result-{args.workload}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "detail": detail}, indent=1)
    )
    for name, unit in units.items():
        print(f"{args.workload:14s} {name:28s} {metrics[name]:>16.6f} {unit}")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 1 if outcome.errors or outcome.failed else 0


if __name__ == "__main__":
    sys.exit(main())
