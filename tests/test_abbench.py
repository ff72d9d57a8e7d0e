"""The A/B harness's summary arithmetic, on canned perfbench output: no
subprocess is started and nothing is timed."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "abbench", Path(__file__).resolve().parent.parent / "tools" / "abbench.py")
abbench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(abbench)


def _stdout(run_s, peak_mb, correct=True, failed=0):
    """What perfbench prints: metric lines, a detail line, then the result."""
    result = {"correct": correct, "attempted": 10, "failed": failed, "metrics": {
        "run_s": {"value": run_s, "unit": "s"}, "peak_mem_mb": {"value": peak_mb, "unit": "MB"}}}
    return (f"dense-markers  run_s {run_s:16.6f} s\n"
            + json.dumps({"detail": {"metrics": {"run_s": {"value": -1.0, "unit": "s"}}}}) + "\n"
            + json.dumps(result) + "\n")


def _runs(parent_values, change_values, workload="dense-markers", seed=1):
    runs = []
    for pair, (base, new) in enumerate(zip(parent_values, change_values), 1):
        for side in abbench.order(pair):
            run_s = base if side == "parent" else new
            runs.append({"pair": pair, "side": side, "workload": workload, "seed": seed,
                         "result": abbench.read_result(_stdout(run_s, 4.0 if side == "parent" else 3.5))})
    return runs


def test_parent_runs_first_on_odd_pairs():
    assert [abbench.order(pair) for pair in (1, 2, 3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")]


def test_only_the_last_line_is_read():
    result = abbench.read_result("a line that is not JSON\n" + _stdout(0.5, 4.0, correct=False, failed=2))
    assert (result["correct"], result["failed"]) == (False, 2)
    assert result["metrics"]["run_s"] == {"value": 0.5, "unit": "s"}


@pytest.mark.parametrize("stdout", ["", "\n\n", '{"detail": {}}\n', "[1, 2]\n"])
def test_output_without_a_result_is_refused(stdout):
    with pytest.raises(ValueError):
        abbench.read_result(stdout)


def test_summary_gives_medians_inclusive_quartiles_ratio_and_lower_pairs():
    parent = [10.0, 12.0, 11.0, 13.0, 14.0]
    change = [9.0, 12.0, 12.0, 10.0, 10.0]  # pair 2 ties, pair 3 reads higher
    rows = abbench.summarize(_runs(parent, change))
    assert [(row["workload"], row["seed"], row["metric"], row["unit"]) for row in rows] == [
        ("dense-markers", 1, "run_s", "s"), ("dense-markers", 1, "peak_mem_mb", "MB")]
    run_s, peak = rows
    assert run_s["pairs"] == 5
    assert run_s["parent"] == {"median": 12.0, "q1": 11.0, "q3": 13.0}
    assert run_s["change"] == {"median": 10.0, "q1": 10.0, "q3": 12.0}
    assert run_s["ratio"] == 10.0 / 12.0
    assert run_s["lower_in"] == [1, 4, 5]
    assert peak["parent"] == {"median": 4.0, "q1": 4.0, "q3": 4.0}
    assert (peak["ratio"], peak["lower_in"]) == (3.5 / 4.0, [1, 2, 3, 4, 5])


def test_even_pair_count_interpolates_quartiles():
    rows = abbench.summarize(_runs([1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 1.0, 1.0]))
    assert rows[0]["parent"] == {"median": 2.5, "q1": 1.75, "q3": 3.25}
    assert rows[0]["lower_in"] == [2, 3, 4]


def test_workloads_and_seeds_are_summarized_apart():
    runs = _runs([2.0], [1.0], seed=1) + _runs([5.0], [6.0], seed=2) + _runs([3.0], [3.0], workload="cli-gate")
    rows = {(row["workload"], row["seed"]): row for row in abbench.summarize(runs) if row["metric"] == "run_s"}
    assert rows["dense-markers", 1]["lower_in"] == [1]
    assert rows["dense-markers", 2]["lower_in"] == []
    assert rows["dense-markers", 2]["ratio"] == 6.0 / 5.0
    assert rows["cli-gate", 1]["change"] == {"median": 3.0, "q1": 3.0, "q3": 3.0}


def test_a_row_is_exact_when_each_side_read_one_value_in_every_run():
    runs = _runs([10.0, 12.0, 11.0], [9.0, 9.0, 9.0])  # peak_mem_mb reads 4.0 and 3.5 in every run
    run_s, peak = abbench.summarize(runs)
    assert (run_s["exact"], peak["exact"]) == (False, True)
    assert abbench.compare({1: 2.0, 2: 2.0}, {1: 1.0, 2: 1.5})["exact"] is False
    assert abbench.compare({1: 2.0, 2: 2.0, 3: 7.0}, {1: 1.0, 2: 1.0})["exact"] is True  # pair 3 is unpaired


def test_a_zero_parent_median_has_no_ratio_and_unpaired_runs_are_left_out():
    summary = abbench.compare({1: 0.0, 2: 0.0, 3: 7.0}, {1: 0.0, 2: 1.0})
    assert summary["pairs"] == 2
    assert summary["ratio"] is None
    assert summary["lower_in"] == []


BENCHMARK = {
    "end_to_end": [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.2},
                   {"name": "peak_mem_mb", "unit": "MB", "better": "lower", "bound": 0.05}],
    "per_layer": [{"name": "recorder.us_per_call", "unit": "us", "better": "lower"}],
}


def test_end_to_end_rows_get_the_acceptance_rule_and_per_layer_rows_their_direction():
    runs = _runs([10.0, 12.0, 11.0, 13.0, 14.0], [9.0, 12.0, 12.0, 10.0, 10.0])
    for run in runs:
        run["result"]["metrics"]["recorder.us_per_call"] = {"value": 1.0, "unit": "us"}
        run["result"]["metrics"]["other"] = {"value": 1.0, "unit": "count"}
    run_s, peak, layer, other = abbench.summarize(runs, BENCHMARK)
    # Medians 12 -> 10: 1/6 better; parent q3 - q1 = 2, not exceeded; 3 of 5 pairs better.
    assert {key: run_s[key] for key in ("better", "bound", "within_bound", "unresolved", "gain")} == {
        "better": "lower", "bound": 0.2, "within_bound": True, "unresolved": False, "gain": False}
    assert run_s["worse_by"] == (10.0 - 12.0) / 12.0
    # 4.0 -> 3.5 in every pair, with no spread: a gain.
    assert (peak["worse_by"], peak["within_bound"], peak["unresolved"], peak["gain"]) == (-0.125, True, False, True)
    assert layer["better"] == "lower" and "bound" not in layer and "gain" not in layer
    assert "better" not in other
    assert "better" not in abbench.summarize(runs)[0]


@pytest.mark.parametrize("parent, change, better, fields", [
    # 10% worse in the median, past a 5% bound.
    ([10.0] * 5, [11.0] * 5, "lower", {"worse_by": 0.1, "within_bound": False, "unresolved": False, "gain": False}),
    # For a metric where higher is better, the same figures are a gain.
    ([10.0] * 5, [11.0] * 5, "higher", {"worse_by": -0.1, "within_bound": True, "unresolved": False, "gain": True}),
    # The parent spreads by (12 - 8) / 10 = 40% and the sides overlap: unresolved.
    ([8.0, 8.0, 10.0, 12.0, 12.0], [9.0, 10.0, 10.0, 10.0, 11.0], "lower",
     {"worse_by": 0.0, "within_bound": True, "unresolved": True, "gain": False}),
    # As wide, but every change run beats every parent run: resolved, and a gain past q3 - q1.
    ([8.0, 8.0, 10.0, 12.0, 12.0], [1.0, 2.0, 3.0, 4.0, 5.0], "lower",
     {"worse_by": -0.7, "within_bound": True, "unresolved": False, "gain": True}),
    # Better in 8 of 10 pairs, ties counting for neither: no gain, however far the medians move.
    ([10.0] * 10, [1.0] * 8 + [10.0] * 2, "lower",
     {"worse_by": -0.9, "within_bound": True, "unresolved": False, "gain": False}),
    ([10.0] * 10, [1.0] * 9 + [10.0], "lower", {"worse_by": -0.9, "within_bound": True, "unresolved": False, "gain": True}),
    # A zero parent median: no relative change when the change is worse.
    ([0.0] * 3, [1.0] * 3, "lower", {"worse_by": None, "within_bound": False, "unresolved": False, "gain": False}),
    ([0.0] * 3, [0.0] * 3, "lower", {"worse_by": 0.0, "within_bound": True, "unresolved": False, "gain": False}),
])
def test_the_acceptance_rule(parent, change, better, fields):
    judged = abbench.judge(dict(enumerate(parent, 1)), dict(enumerate(change, 1)), better, 0.05)
    assert judged.pop("worse_by") == pytest.approx(fields.pop("worse_by"))
    assert judged == {"better": better, "bound": 0.05, **fields}


def test_summary_lines_print_each_end_to_end_row_once():
    runs = _runs([10.0, 12.0, 11.0, 13.0, 14.0], [9.0, 12.0, 12.0, 10.0, 10.0])
    for run in runs:
        run["result"]["metrics"]["recorder.us_per_call"] = {"value": 1.0, "unit": "us"}
    rows = abbench.summarize(runs, BENCHMARK)
    assert abbench.summary_lines(rows) == [
        "abbench: dense-markers seed 1 run_s: 12 [11, 13] -> 10 s, ratio 0.8333, lower in 3/5, "
        "within_bound=True, gain=False",
        "abbench: dense-markers seed 1 peak_mem_mb: 4 [4, 4] -> 3.5 MB, ratio 0.8750, lower in 5/5, "
        "within_bound=True, gain=True",
    ]
    assert abbench.summary_lines(abbench.summarize(runs)) == []  # no BENCHMARK.json, no end-to-end rows
    zero = {"workload": "w", "seed": 2, "metric": "m", "unit": "B", **abbench.compare({1: 0.0}, {1: 0.0}),
            **abbench.judge({1: 0.0}, {1: 0.0}, "lower", 0.02)}
    assert abbench.summary_lines([zero]) == [
        "abbench: w seed 2 m: 0 [0, 0] -> 0 B, ratio n/a, lower in 0/1, within_bound=True, gain=False"]


# A memory child's readings, as MEMORY_CODE prints them: stage, bytes still
# allocated after it, the stage's own peak.
PARENT_READINGS = [["drive", 1_000, 1_500], ["seal", 1_100, 1_200], ["build_report", 1_600, 1_700],
                   ["serialize_report", 2_600, 2_650]]
CHANGE_READINGS = [["drive", 800, 1_200], ["seal", 800, 850], ["build_report", 750, 900],
                   ["serialize_report", 1_750, 1_800]]


def test_memory_stages_give_what_each_stage_keeps_adds_and_peaks_at():
    assert abbench.memory_stages(PARENT_READINGS) == {
        "drive": {"retained": 1_000, "added": 1_000, "peak": 1_500},
        "seal": {"retained": 1_100, "added": 100, "peak": 1_200},
        "build_report": {"retained": 1_600, "added": 500, "peak": 1_700},
        "serialize_report": {"retained": 2_600, "added": 1_000, "peak": 2_650},
    }
    # A stage that frees more than it keeps adds a negative figure.
    assert abbench.memory_stages(CHANGE_READINGS)["build_report"] == {"retained": 750, "added": -50, "peak": 900}
    assert abbench.memory_stages([]) == {}


def test_memory_summary_compares_each_stage_and_measure_parent_to_change():
    runs = []
    for pair in (1, 2, 3):
        for side in abbench.order(pair):
            readings = PARENT_READINGS if side == "parent" else CHANGE_READINGS
            if side == "change" and pair == 3:  # one change run keeps 30 more bytes after its drive
                readings = [["drive", 830, 1_200], *CHANGE_READINGS[1:]]
            runs.append({"pair": pair, "side": side, "workload": "dense-markers", "seed": 1,
                         "stages": abbench.memory_stages(readings)})
    rows = abbench.summarize_memory(runs)
    assert [(row["stage"], row["measure"]) for row in rows] == [
        (stage, measure) for stage in ("drive", "seal", "build_report", "serialize_report")
        for measure in ("retained", "added", "peak")]
    assert all((row["workload"], row["seed"], row["unit"], row["pairs"]) == ("dense-markers", 1, "B", 3)
               for row in rows)
    by_key = {(row["stage"], row["measure"]): row for row in rows}
    drive = by_key["drive", "retained"]
    assert drive["parent"] == {"median": 1_000, "q1": 1_000, "q3": 1_000}
    assert drive["change"] == {"median": 800, "q1": 800, "q3": 815}
    assert (drive["ratio"], drive["lower_in"], drive["exact"]) == (0.8, [1, 2, 3], False)
    # The pair-3 run's extra 30 bytes after the drive are not added again by the seal.
    assert by_key["seal", "added"]["change"] == {"median": 0, "q1": -15, "q3": 0}
    assert by_key["build_report", "added"]["ratio"] == -50 / 500
    assert by_key["serialize_report", "peak"]["exact"] is True
    assert abbench.memory_lines(rows) == [
        "abbench: dense-markers seed 1 memory drive: adds 1,000 -> 800 B, lower in 3/3",
        "abbench: dense-markers seed 1 memory seal: adds 100 -> 0 B, lower in 3/3",
        "abbench: dense-markers seed 1 memory build_report: adds 500 -> -50 B, lower in 3/3",
        "abbench: dense-markers seed 1 memory serialize_report: adds 1,000 -> 1,000 B, lower in 0/3",
    ]


# A cli-gate memory child's readings, as CLI_MEMORY_CODE prints them: spec,
# bytes still allocated after run_workload, its peak, the command's peak.
CLI_PARENT_READINGS = [["strings", 350_885, 355_949, 568_250], ["table", 327_453, 330_885, 478_837]]
CLI_CHANGE_READINGS = [["strings", 350_885, 355_949, 400_958], ["table", 327_379, 330_811, 377_340]]


def test_cli_memory_stages_give_the_workloads_peak_and_the_commands_peak_above_it():
    assert abbench.cli_memory_stages(CLI_PARENT_READINGS) == {
        "strings run_workload": {"retained": 350_885, "peak": 355_949},
        "strings cli.run": {"peak": 568_250, "above": 212_301},
        "table run_workload": {"retained": 327_453, "peak": 330_885},
        "table cli.run": {"peak": 478_837, "above": 147_952},
    }
    assert abbench.cli_memory_stages([]) == {}


def test_cli_memory_lines_give_each_peak_and_what_the_command_adds_above_the_workload():
    runs = []
    for pair in (1, 2):
        for side in abbench.order(pair):
            readings = CLI_PARENT_READINGS if side == "parent" else CLI_CHANGE_READINGS
            runs.append({"pair": pair, "side": side, "workload": "cli-gate", "seed": 2,
                         "stages": abbench.cli_memory_stages(readings)})
    rows = abbench.summarize_memory(runs)
    assert [(row["stage"], row["measure"]) for row in rows] == [
        (f"{spec} {stage}", measure) for spec in ("strings", "table")
        for stage, measures in (("run_workload", ("retained", "peak")), ("cli.run", ("peak", "above")))
        for measure in measures]
    above = {row["stage"]: row for row in rows if row["measure"] == "above"}["strings cli.run"]
    assert (above["parent"]["median"], above["change"]["median"], above["lower_in"]) == (212_301, 45_009, [1, 2])
    assert abbench.memory_lines(rows) == [
        "abbench: cli-gate seed 2 memory strings run_workload: peaks at 355,949 -> 355,949 B, lower in 0/2",
        "abbench: cli-gate seed 2 memory strings cli.run: peaks at 568,250 -> 400,958 B, lower in 2/2",
        "abbench: cli-gate seed 2 memory strings cli.run: peaks above run_workload by 212,301 -> 45,009 B, "
        "lower in 2/2",
        "abbench: cli-gate seed 2 memory table run_workload: peaks at 330,885 -> 330,811 B, lower in 2/2",
        "abbench: cli-gate seed 2 memory table cli.run: peaks at 478,837 -> 377,340 B, lower in 2/2",
        "abbench: cli-gate seed 2 memory table cli.run: peaks above run_workload by 147,952 -> 46,529 B, "
        "lower in 2/2",
    ]


def _hung_checkout(root: Path) -> Path:
    """A checkout whose perfbench run, and whose ``import churnscope``, sleep far past any timeout."""
    for script in (root / "perfbench" / "run.py", root / "src" / "churnscope" / "__init__.py"):
        script.parent.mkdir(parents=True)
        script.write_text("import time\ntime.sleep(600)\n")
    (root / "BENCHMARK.json").write_text("{}\n")
    return root


@pytest.mark.parametrize("args, names", [
    (["--workload", "dense-markers", "--seed", "3"], "dense-markers seed 3: perfbench did not finish in 0.5 s"),
    (["--imports", "1"], "import run did not finish in 0.5 s"),
    (["--memory", "--seed", "3"], "long-phases seed 3: memory run did not finish in 0.5 s"),
])
def test_a_hung_run_is_killed_and_named(tmp_path, monkeypatch, args, names):
    parent, change = _hung_checkout(tmp_path / "parent"), _hung_checkout(tmp_path / "change")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(abbench, "TIMEOUT_GRACE_S", 0.3)  # with --seconds 0.1: 0.5 s per run
    with pytest.raises(SystemExit) as exc:
        abbench.main([str(parent), str(change), *args, "--seconds", "0.1", "--pairs", "1", "--label", "hung"])
    assert exc.value.code == f"abbench: {parent}: {names}"
    assert not (tmp_path / "BENCH_hung.json").exists()
    assert abbench.timeout(25) == 2 * 25 + 0.3


@pytest.mark.parametrize("seconds", ["-1", "nan", "inf"])
def test_seconds_must_be_finite_and_not_negative(seconds, capsys):
    with pytest.raises(SystemExit) as exc:
        abbench.main(["p", "c", "--workload", "dense-markers", "--seconds", seconds, "--label", "x"])
    assert exc.value.code == 2 and "--seconds must be a finite number >= 0" in capsys.readouterr().err
