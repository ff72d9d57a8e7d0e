"""A/B benchmark of two churnscope checkouts through perfbench.

    python3 tools/abbench.py PARENT CHANGE --workload dense-markers --seed 1 \\
        --seconds 25 --pairs 10 --label snapshot-per-seq
    python3 tools/abbench.py PARENT CHANGE --imports 150 --label snapshot-per-seq
    python3 tools/abbench.py PARENT CHANGE --memory --pairs 3 --label cost-at-close

PARENT and CHANGE are the roots of two churnscope checkouts. Each pair runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` once in each
tree, for every workload and seed given, the parent first on odd pairs and
the change first on even ones. ``--trace 1`` runs perfbench's traced passes
instead, for its per-layer figures. Only the last line of a run's stdout is
read: perfbench's result, with ``correct``, ``failed`` and the metrics.

``--imports N`` also times N alternating fresh ``python -I`` interpreters in
each tree, each running ``import churnscope`` and the set-up of a recording
session (the work perfbench's ``setup_s`` times), from import to set-up done.

``--memory`` also measures, in each pair, one fresh ``python -I`` child per
tree for each workload (``long-phases``, ``dense-markers``, ``cli-gate``;
those of them named by ``--workload``, or all three) and seed. For a
library workload, the child builds perfbench's baseline program
(``perfbench/programs.py``, imported read-only) and runs the library's run
path on it stage by stage, as perfbench's ``peak_mem_mb`` does: ``drive``
(a recording session, then the program replayed through its markers),
``seal``, ``build_report`` and ``serialize_report``, after a no-op stage,
``base`` (``measure_stages``). After each stage it calls ``gc.collect()``
and reads ``tracemalloc``: the bytes still allocated, and the stage's own
peak (``tracemalloc.reset_peak`` before it). ``memory_stages`` turns a
child's readings into the base's ``retained``, what the measuring holds
itself, and each stage's ``retained``, ``added`` (retained less the
previous stage's or the base's) and ``peak``, and ``summarize_memory``
compares them parent -> change like any other metric. Once the readings
are taken, the child runs the four stages again under a fresh trace and,
after each, takes a ``tracemalloc`` snapshot and lists the five
``src/churnscope/`` lines that hold the most bytes
(``Snapshot.statistics("lineno")``), then drops the snapshot. The second
run is there because the snapshots, the lists and the tuples they free onto
CPython's free lists would count in the stage figures of a run that took
them. ``memory_sites`` names each line as
``file.py:line`` with its source text, and ``summarize_sites`` keeps, per
workload, seed and stage, each side's lines from its first run: named
allocation sites, not a judged metric.

For ``cli-gate``, the child imports ``perfbench/run.py`` read-only for the
CLI specs it runs (``CLI_SCALES``), their ``churnscope run`` argument lists
and its in-process CLI runner, and runs each spec once untraced, so the
command's first-call imports are not counted. Then, per spec, it measures
two stages, each after a ``gc.collect()``: ``run_workload`` (a fresh
session, as ``churnscope run`` makes it), its retained bytes and peak, and
``cli.run``, the whole command in-process with stdout captured, its peak.
``cli_memory_stages`` adds ``above``: the command's peak less the
workload's, what the command holds beyond what it records.

A perfbench run, an import child or a memory child that outlasts
``timeout(--seconds)`` is taken to hang: it is killed, and abbench exits
naming its tree (and the workload and seed of a perfbench run or memory
child).

It writes ``BENCH_<label>.json`` to the current directory: the Python
version, the commands, every run's ``correct`` and ``failed``, and for each
workload, seed and metric both sides' median, q1 and q3 (inclusive
quartiles), the ratio of the medians (change over parent), the pairs in
which the change read lower, and ``exact``: whether each side read one
value in every run. Ties count for neither side. ``--memory`` adds a
``memory`` section of the same rows, one per workload, seed, stage and
measure, in bytes, and a ``sites`` list of each library stage's top lines.

Each metric the change tree's ``BENCHMARK.json`` declares also gets its
``better`` direction, and an end-to-end one the acceptance rule
(``judge``): its ``bound``, ``worse_by``, ``within_bound``, ``unresolved``
and ``gain``. ``BENCHMARK.json`` is read, never written. Once the file is
written, each end-to-end row is also printed to stderr as one line
(``summary_lines``). Standard library only.
"""

from __future__ import annotations

import argparse
import gc
import inspect
import json
import linecache
import os
import platform
import re
import statistics
import subprocess
import sys
import tracemalloc
from array import array
from pathlib import Path

SIDES = ("parent", "change")
IMPORT_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import churnscope
from churnscope import RecordingSession, TracingAllocator
TracingAllocator(RecordingSession().recorder("main"))
elapsed = time.perf_counter() - t0
print(churnscope.__file__)
print(elapsed)
"""

MEMORY_WORKLOADS = ("long-phases", "dense-markers", "cli-gate")


def measure_stages(stages: tuple) -> list[list]:
    """Run ``stages``, functions of no argument, in turn under ``tracemalloc``,
    after a no-op stage named ``base``, and read after each, once a
    ``gc.collect()`` is done, the bytes still allocated and the stage's own
    peak (``reset_peak`` before it): ``[[name, retained, peak], ...]``, the
    base's first. The stage tuple and the slots the readings go into, two
    per stage in an ``array('q')``, are made before the trace starts, so the
    loop holds at every reading what it held at the base's: a stage that
    keeps nothing reads the base's retained bytes. ``MEMORY_CODE`` runs this
    function's source."""
    def base():
        pass

    stages = (base, *stages)
    slots = array("q", [0]) * (2 * len(stages))
    gc.collect()
    tracemalloc.start()
    for i in range(0, len(slots), 2):
        tracemalloc.reset_peak()
        stages[i // 2]()
        gc.collect()
        slots[i], slots[i + 1] = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return [[stage.__name__, slots[2 * k], slots[2 * k + 1]] for k, stage in enumerate(stages)]


MEMORY_CODE = """\
import gc, json, sys, tracemalloc
from array import array
tree, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
sys.path[:0] = [tree + "/src", tree + "/perfbench"]
import churnscope as cs
import programs
generate = programs.long_phases if workload == "long-phases" else programs.dense_markers
program, _ = generate(seed, False)
state = {}

def drive():
    session = state["session"] = cs.RecordingSession(
        ring_capacity=programs.RING_CAPACITY, build_id="baseline", created_at="1970-01-01T00:00:00Z")
    rec = session.recorder("main")
    programs.replay(program, cs.TracingAllocator(rec), rec, cs.begin_marker, cs.end_marker)

def seal():
    state["session"].seal_all()

def build_report():
    state["report"] = state["session"].build_report()

def serialize_report():
    state["data"] = cs.serialize_report(state["report"])

""" + inspect.getsource(measure_stages) + """
stages = (drive, seal, build_report, serialize_report)
readings = measure_stages(stages)
# The stages again, for the churnscope lines that hold each stage's bytes: a run of
# their own, as the snapshots and the sites would count in the readings above.
state.clear()
gc.collect()
churnscope_lines = [tracemalloc.Filter(True, tree + "/src/churnscope/*")]
tracemalloc.start()
for reading, stage in zip(readings[1:], stages):
    stage()
    gc.collect()
    snapshot = tracemalloc.take_snapshot().filter_traces(churnscope_lines)
    reading.append([[stat.traceback[0].filename, stat.traceback[0].lineno, stat.size, stat.count]
                    for stat in snapshot.statistics("lineno")[:5]])
    del snapshot
tracemalloc.stop()
print(cs.__file__)
print(json.dumps(readings))
"""

CLI_MEMORY_CODE = """\
import gc, json, sys, tempfile, tracemalloc, types
tree, seed = sys.argv[1], int(sys.argv[2])
sys.path[:0] = [tree + "/src", tree + "/perfbench"]
import churnscope as cs
import run as perfbench  # its CLI specs, argument lists and in-process CLI runner; importing it runs nothing
readings = []
with tempfile.TemporaryDirectory() as out:
    argvs = {w: perfbench.CliWorkload._run_argv(types.SimpleNamespace(seed=seed), w, "baseline", f"{out}/{w}.churn.json")
             for w in perfbench.CLI_SCALES}
    for argv in argvs.values():  # the command's first-call imports, which are not what it holds
        if perfbench.cli(argv)[0]:
            sys.exit(f"churnscope {' '.join(argv)} failed")
    tracemalloc.start()
    for w, scale in perfbench.CLI_SCALES.items():
        # Anything the command before left in cycles; a session is freed by reference counting when its command returns.
        gc.collect()
        tracemalloc.reset_peak()
        session = cs.RecordingSession(cs.CostModel(), build_id="baseline", created_at=cs.utc_timestamp(0))
        report = cs.run_workload(cs.WorkloadSpec(w, seed=seed, scale=scale), session)
        gc.collect()
        retained, workload_peak = tracemalloc.get_traced_memory()
        del session, report
        gc.collect()
        tracemalloc.reset_peak()
        if perfbench.cli(argvs[w])[0]:
            sys.exit(f"churnscope {' '.join(argvs[w])} failed")
        readings.append([w, retained, workload_peak, tracemalloc.get_traced_memory()[1]])
    tracemalloc.stop()
print(cs.__file__)
print(json.dumps(readings))
"""

# What a run may take beyond twice --seconds: perfbench's set-up and checks take a few seconds more.
TIMEOUT_GRACE_S = 60.0


def timeout(seconds: float) -> float:
    """How long one perfbench run, or one ``--imports`` child, may take before it is killed as hung."""
    return 2 * seconds + TIMEOUT_GRACE_S


def order(pair: int) -> tuple[str, str]:
    """The sides in the order pair ``pair`` (from 1) runs them: parent first on odd pairs."""
    return SIDES if pair % 2 else SIDES[::-1]


def perfbench_command(workload: str, seed: int | str, seconds: float, trace: int) -> list[str]:
    """perfbench's argument list after the interpreter, run from a tree's root."""
    return ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]


def read_result(stdout: str) -> dict:
    """perfbench's result: the last line of its stdout, one JSON object."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("perfbench printed nothing")
    result = json.loads(lines[-1])
    if not isinstance(result, dict) or not {"correct", "failed", "metrics"} <= result.keys():
        raise ValueError(f"perfbench's last line is not a result: {lines[-1][:200]!r}")
    return result


def spread(values: list[float]) -> dict:
    """Median, q1 and q3 (inclusive quartiles) of ``values``."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3}


def compare(parent: dict[int, float], change: dict[int, float]) -> dict:
    """Both sides' spread, the ratio of medians, the pairs in which the
    change read lower, and whether each side read one value in every run
    (``exact``). Each side maps a pair number to its value; only pairs both
    sides ran are compared."""
    pairs = sorted(parent.keys() & change.keys())
    base_values, new_values = [parent[p] for p in pairs], [change[p] for p in pairs]
    base, new = spread(base_values), spread(new_values)
    return {
        "pairs": len(pairs),
        "parent": base,
        "change": new,
        "ratio": new["median"] / base["median"] if base["median"] else None,
        "lower_in": [p for p in pairs if change[p] < parent[p]],
        "exact": len(set(base_values)) == len(set(new_values)) == 1,
    }


def judge(parent: dict[int, float], change: dict[int, float], better: str, bound: float) -> dict:
    """The acceptance rule for one end-to-end metric, over the pairs both sides ran.

    ``worse_by`` is the change of the medians relative to the parent's, in
    the worse direction (None when the parent's median is 0 and the change's
    is worse); ``within_bound`` holds when it is at most ``bound``.
    ``unresolved`` holds when the parent's (q3 - q1) / median exceeds the
    bound and not every change run beat every parent run. ``gain`` holds when
    the change was better in at least 9/10 of the pairs, ties counting for
    neither, and its median is better than the parent's by more than the
    parent's q3 - q1.
    """
    sign = 1 if better == "lower" else -1
    pairs = sorted(parent.keys() & change.keys())
    base, new = [parent[p] for p in pairs], [change[p] for p in pairs]
    b, n = spread(base), spread(new)
    worse = sign * (n["median"] - b["median"])
    if b["median"]:
        worse_by = worse / abs(b["median"])
    else:
        worse_by = 0.0 if worse <= 0 else None
    width = b["q3"] - b["q1"]
    too_wide = width > bound * abs(b["median"])
    beat_all = max(sign * v for v in new) < min(sign * v for v in base)
    better_pairs = sum(sign * (c - p) < 0 for p, c in zip(base, new))
    return {
        "better": better,
        "bound": bound,
        "worse_by": worse_by,
        "within_bound": worse_by is not None and worse_by <= bound,
        "unresolved": too_wide and not beat_all,
        "gain": better_pairs >= 0.9 * len(pairs) and -worse > width,
    }


def summarize(runs: list[dict], benchmark: dict | None = None) -> list[dict]:
    """One row per workload, seed and metric, in the order runs first name them.

    A run is ``{"pair", "side", "workload", "seed", "result"}``, where
    ``result`` is what ``read_result`` returned. ``benchmark`` is the parsed
    ``BENCHMARK.json``: a per-layer metric's row gets its ``better``, and an
    end-to-end metric's row the fields of ``judge``.
    """
    values: dict[tuple, dict[str, dict[int, float]]] = {}
    units: dict[tuple, str] = {}
    for run in runs:
        for metric, entry in run["result"]["metrics"].items():
            key = (run["workload"], run["seed"], metric)
            values.setdefault(key, {side: {} for side in SIDES})[run["side"]][run["pair"]] = entry["value"]
            units[key] = entry["unit"]
    benchmark = benchmark or {}
    end_to_end = {m["name"]: m for m in benchmark.get("end_to_end", ())}
    per_layer = {m["name"]: m for m in benchmark.get("per_layer", ())}
    rows = []
    for (workload, seed, metric), sides in values.items():
        row = {"workload": workload, "seed": seed, "metric": metric, "unit": units[workload, seed, metric],
               **compare(sides["parent"], sides["change"])}
        if metric in end_to_end:
            row |= judge(sides["parent"], sides["change"], end_to_end[metric]["better"], end_to_end[metric]["bound"])
        elif metric in per_layer:
            row["better"] = per_layer[metric]["better"]
        rows.append(row)
    return rows


def summary_lines(rows: list[dict]) -> list[str]:
    """One line per end-to-end row of ``summarize``: workload, seed, metric,
    the parent's median [q1, q3], the change's median, the ratio of medians,
    the pairs in which the change read lower out of all pairs, and the
    acceptance rule's ``within_bound`` and ``gain``."""
    lines = []
    for row in rows:
        if "bound" not in row:
            continue
        base, ratio = row["parent"], row["ratio"]
        lines.append(
            f"abbench: {row['workload']} seed {row['seed']} {row['metric']}: "
            f"{base['median']:.6g} [{base['q1']:.6g}, {base['q3']:.6g}] -> {row['change']['median']:.6g} "
            f"{row['unit']}, ratio {'n/a' if ratio is None else f'{ratio:.4f}'}, "
            f"lower in {len(row['lower_in'])}/{row['pairs']}, "
            f"within_bound={row['within_bound']}, gain={row['gain']}")
    return lines


def memory_stages(readings: list[list]) -> dict[str, dict[str, int]]:
    """The base's ``retained`` bytes, then each stage's ``retained``,
    ``added`` (retained less the previous stage's, the first stage's less
    the base's) and ``peak``, from a memory child's readings: ``[stage,
    bytes allocated after it, its peak]`` in stage order, the no-op base
    first, each stage's with its sites after (``memory_sites``), as
    ``MEMORY_CODE`` prints them."""
    if not readings:
        return {}
    (name, before, _), *readings = readings
    stages = {name: {"retained": before}}
    for stage, retained, peak, *_ in readings:
        stages[stage] = {"retained": retained, "added": retained - before, "peak": peak}
        before = retained
    return stages


def memory_sites(readings: list[list]) -> dict[str, list[dict]]:
    """Each stage's top churnscope lines, largest first, from a memory
    child's readings: the fourth item of each but the base's is its sites,
    ``[file, line, bytes, blocks]`` as ``Snapshot.statistics("lineno")`` gave
    them after a second run of the stage. A site becomes ``{"site":
    "file.py:line", "bytes", "blocks", "code"}``, ``code`` being the line's
    text, read from the file ("" if it cannot be read)."""
    return {stage: [{"site": f"{Path(file).name}:{line}", "bytes": size, "blocks": count,
                     "code": linecache.getline(file, line).strip()}
                    for file, line, size, count in sites]
            for stage, _, _, sites in readings[1:]}


def summarize_sites(runs: list[dict]) -> list[dict]:
    """One row per workload, seed and stage, in the order runs first name
    them: each side's sites from its first run, and ``exact``, whether every
    run of each side listed the same sites. A run is ``{"pair", "side",
    "workload", "seed", "sites"}``, with ``sites`` as ``memory_sites``
    returns them. The rows are information: nothing is compared or judged."""
    seen: dict[tuple, dict[str, list]] = {}
    for run in runs:
        for stage, sites in run["sites"].items():
            key = (run["workload"], run["seed"], stage)
            seen.setdefault(key, {side: [] for side in SIDES})[run["side"]].append(sites)
    return [{"workload": workload, "seed": seed, "stage": stage,
             **{side: lists[side][0] if lists[side] else None for side in SIDES},
             "exact": all(sites == lists[side][0] for side in SIDES for sites in lists[side])}
            for (workload, seed, stage), lists in seen.items()]


def cli_memory_stages(readings: list[list]) -> dict[str, dict[str, int]]:
    """Two stages per CLI spec from a ``CLI_MEMORY_CODE`` child's readings,
    ``[spec, bytes allocated after run_workload, its peak, the command's
    peak]``: ``<spec> run_workload`` with its ``retained`` bytes and
    ``peak``, and ``<spec> cli.run`` with its ``peak`` and ``above``, what
    the command peaks at above the workload's own peak."""
    stages = {}
    for spec, retained, workload_peak, cli_peak in readings:
        stages[f"{spec} run_workload"] = {"retained": retained, "peak": workload_peak}
        stages[f"{spec} cli.run"] = {"peak": cli_peak, "above": cli_peak - workload_peak}
    return stages


def summarize_memory(runs: list[dict]) -> list[dict]:
    """One row per workload, seed, stage and measure, parent -> change, as
    ``compare`` gives it. A run is ``{"pair", "side", "workload", "seed",
    "stages"}``, with ``stages`` as ``memory_stages`` returns them."""
    values: dict[tuple, dict[str, dict[int, float]]] = {}
    for run in runs:
        for stage, measures in run["stages"].items():
            for measure, value in measures.items():
                key = (run["workload"], run["seed"], stage, measure)
                values.setdefault(key, {side: {} for side in SIDES})[run["side"]][run["pair"]] = value
    return [{"workload": workload, "seed": seed, "stage": stage, "measure": measure, "unit": "B",
             **compare(sides["parent"], sides["change"])}
            for (workload, seed, stage, measure), sides in values.items()]


def memory_lines(rows: list[dict]) -> list[str]:
    """One line per ``added`` or ``above`` row of ``summarize_memory``, and
    per ``peak`` row of a stage with no ``added`` row: the parents' median
    -> the change's, and the pairs in which the change read lower."""
    adds = {(row["workload"], row["seed"], row["stage"]) for row in rows if row["measure"] == "added"}
    words = {"added": "adds", "above": "peaks above run_workload by", "peak": "peaks at"}
    return [f"abbench: {row['workload']} seed {row['seed']} memory {row['stage']}: "
            f"{words[row['measure']]} {row['parent']['median']:,.0f} -> {row['change']['median']:,.0f} B, "
            f"lower in {len(row['lower_in'])}/{row['pairs']}"
            for row in rows if row["measure"] in ("added", "above")
            or row["measure"] == "peak" and (row["workload"], row["seed"], row["stage"]) not in adds]


def tree_state(tree: Path) -> dict:
    """The commit a tree has checked out and whether its files differ from it."""
    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True, check=True)
        except (OSError, subprocess.CalledProcessError):
            return None
        return done.stdout.strip()

    status = git("status", "--porcelain", "--untracked-files=no")
    return {"commit": git("rev-parse", "HEAD"), "dirty": None if status is None else bool(status)}


def run_perfbench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    what = f"abbench: {tree}: {workload} seed {seed}"
    argv = [sys.executable, *perfbench_command(workload, seed, seconds, trace)]
    try:
        done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, timeout=timeout(seconds))
    except subprocess.TimeoutExpired:
        sys.exit(f"{what}: perfbench did not finish in {timeout(seconds):g} s")
    try:
        return read_result(done.stdout)
    except ValueError as exc:
        sys.exit(f"{what}: {exc} (exit {done.returncode}); stderr ends:\n{done.stderr[-2000:]}")


def run_child(tree: Path, code: str, args: list[str], what: str, seconds: float) -> str:
    """Run ``code`` with ``args`` in a fresh ``python -I`` and return the
    second line it prints. Its first line must be the path of the churnscope
    it imported, which must be ``tree``'s; ``what`` names the run when it
    hangs or fails."""
    try:
        done = subprocess.run([sys.executable, "-I", "-c", code, *args], capture_output=True, text=True,
                              timeout=timeout(seconds))
    except subprocess.TimeoutExpired:
        sys.exit(f"abbench: {tree}: {what} did not finish in {timeout(seconds):g} s")
    lines = done.stdout.splitlines()
    if done.returncode or len(lines) != 2 or Path(lines[0]).resolve().parent.parent != (tree / "src").resolve():
        sys.exit(f"abbench: {tree}: {what} failed or imported another churnscope:\n{done.stdout}{done.stderr}")
    return lines[1]


def time_import(tree: Path, seconds: float) -> float:
    return float(run_child(tree, IMPORT_CODE, [str((tree / "src").resolve())], "import run", seconds))


def measure_memory(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """A memory child's stages, and its sites: a library stage's top lines, none for ``cli-gate``."""
    if workload == "cli-gate":
        code, args, stages, sites = CLI_MEMORY_CODE, [str(seed)], cli_memory_stages, lambda readings: {}
    else:
        code, args, stages, sites = MEMORY_CODE, [workload, str(seed)], memory_stages, memory_sites
    line = run_child(tree, code, [str(tree.resolve()), *args], f"{workload} seed {seed}: memory run", seconds)
    readings = json.loads(line)
    return stages(readings), sites(readings)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    parser.add_argument("--workload", action="append", default=[], help="a perfbench workload; repeatable")
    parser.add_argument("--seed", type=int, action="append", help="a workload seed; repeatable (default 1)")
    parser.add_argument("--seconds", type=float, default=25.0, help="perfbench's --seconds (default 25)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="perfbench's --trace (default 0)")
    parser.add_argument("--pairs", type=int, default=10, help="parent/change pairs per workload and seed")
    parser.add_argument("--imports", type=int, default=0, metavar="N", help="time N fresh interpreters per side")
    parser.add_argument("--memory", action="store_true",
                        help="also measure the run path's memory stage by stage, one child per pair and side")
    parser.add_argument("--label", required=True, help="names the output, BENCH_<label>.json")
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9._-]+", args.label):
        parser.error("--label may hold only letters, digits, '.', '_' and '-'")
    if args.pairs < 1 or args.imports < 0:
        parser.error("--pairs must be >= 1 and --imports >= 0")
    if not 0 <= args.seconds < float("inf"):
        parser.error("--seconds must be a finite number >= 0")
    if not args.workload and not args.imports and not args.memory:
        parser.error("give at least one --workload, --imports N or --memory")
    seeds = args.seed or [1]
    trees = {"parent": args.parent, "change": args.change}
    for side, tree in trees.items():
        if not (tree / "perfbench" / "run.py").is_file() or not (tree / "src" / "churnscope").is_dir():
            parser.error(f"{side} {tree} is not a churnscope checkout with perfbench")
    if args.workload and not (args.change / "BENCHMARK.json").is_file():
        parser.error(f"change {args.change} has no BENCHMARK.json")

    doc: dict = {
        "label": args.label,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "trees": {side: tree_state(tree) for side, tree in trees.items()},
        "commands": {},
    }
    if args.workload:
        doc["commands"]["perfbench"] = ["python", *perfbench_command("<workload>", "<seed>", args.seconds, args.trace)]
        runs = []
        for pair in range(1, args.pairs + 1):
            for workload in args.workload:
                for seed in seeds:
                    for side in order(pair):
                        result = run_perfbench(trees[side], workload, seed, args.seconds, args.trace)
                        runs.append({"pair": pair, "side": side, "workload": workload, "seed": seed,
                                     "result": result})
                        print(f"abbench: pair {pair} {side:6s} {workload} seed {seed}: correct={result['correct']} "
                              f"failed={result['failed']}", file=sys.stderr)
        doc["every_run_correct"] = all(run["result"]["correct"] and not run["result"]["failed"] for run in runs)
        doc["runs"] = [{key: run[key] for key in ("pair", "side", "workload", "seed")}
                       | {key: run["result"].get(key) for key in ("correct", "attempted", "failed")}
                       | {"metrics": {name: e["value"] for name, e in run["result"]["metrics"].items()}}
                       for run in runs]
        doc["summary"] = summarize(runs, json.loads((args.change / "BENCHMARK.json").read_text()))
    if args.imports:
        doc["commands"]["imports"] = ["python", "-I", "-c", IMPORT_CODE, "<tree>/src"]
        seconds: dict[str, dict[int, float]] = {side: {} for side in SIDES}
        for pair in range(1, args.imports + 1):
            for side in order(pair):
                seconds[side][pair] = time_import(trees[side], args.seconds)
        doc["imports"] = {"unit": "s", **compare(seconds["parent"], seconds["change"])}
    if args.memory:
        doc["commands"]["memory"] = ["python", "-I", "-c", MEMORY_CODE, "<tree>", "<workload>", "<seed>"]
        doc["commands"]["cli-memory"] = ["python", "-I", "-c", CLI_MEMORY_CODE, "<tree>", "<seed>"]
        workloads = [w for w in args.workload if w in MEMORY_WORKLOADS] or list(MEMORY_WORKLOADS)
        memory_runs, site_runs = [], []
        for pair in range(1, args.pairs + 1):
            for workload in workloads:
                for seed in seeds:
                    for side in order(pair):
                        stages, sites = measure_memory(trees[side], workload, seed, args.seconds)
                        run = {"pair": pair, "side": side, "workload": workload, "seed": seed}
                        memory_runs.append(run | {"stages": stages})
                        site_runs.append(run | {"sites": sites})
        doc["memory"] = {"runs": memory_runs, "summary": summarize_memory(memory_runs),
                         "sites": summarize_sites(site_runs)}
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"abbench: wrote {out}", file=sys.stderr)
    for line in summary_lines(doc.get("summary", [])) + memory_lines(doc.get("memory", {}).get("summary", [])):
        print(line, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
