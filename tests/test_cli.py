import gc
import json
import os
import re
import stat
import subprocess
import sys
import threading
import tracemalloc
from decimal import Decimal
from pathlib import Path

import pytest

import churnscope
from churnscope import Thresholds, parse_report, parse_verdict, serialize_report
from churnscope.cli import build_parser, main

from factories import canonical_json, report_with_units
from test_report import GOLDEN_V1


def run_report(tmp_path, name="base", variant="baseline", extra=()):
    out = tmp_path / f"{name}.churn.json"
    code = main([
        "run", "--workload", "strings", "--seed", "1", "--scale", "4",
        "--variant", variant, "--out", str(out), "--build-id", name,
        "--epoch", "0", *extra,
    ])
    assert code == 0
    return out


def run_module(*args, **kwargs):
    """Run ``python -m churnscope`` on the package under test, installed or not.

    pytest's ``pythonpath`` setting reaches only this process, so the child
    gets the directory holding the imported package first on ``PYTHONPATH``.
    """
    src = str(Path(churnscope.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "churnscope", *args],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
        **kwargs,
    )


def test_run_writes_parsable_report(tmp_path, capsys):
    out = run_report(tmp_path)
    report = parse_report(out.read_bytes())
    assert set(report.merged) == {"build", "format"}
    assert report.build_id == "base"
    assert report.created_at == "1970-01-01T00:00:00Z"
    stdout = capsys.readouterr().out
    assert "build" in stdout and "format" in stdout
    assert str(out) in stdout


def test_run_unknown_workload_exits_2(tmp_path, capsys):
    code = main(["run", "--workload", "bogus", "--out", str(tmp_path / "x.churn.json")])
    assert code == 2
    assert "--workload" in capsys.readouterr().err


def test_run_unwritable_path_exits_2(tmp_path, capsys):
    code = main([
        "run", "--workload", "strings",
        "--out", str(tmp_path / "missing-dir" / "x.churn.json"),
    ])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_run_is_deterministic_across_invocations(tmp_path):
    a = run_report(tmp_path, "a")
    b = run_report(tmp_path, "b")
    # identical apart from the build id metadata
    assert a.read_text().replace('"a"', '"x"') == b.read_text().replace('"b"', '"x"')


def test_run_accepts_cost_model_file(tmp_path):
    weights = tmp_path / "w.cfg"
    weights.write_text("malloc = 2\ncalloc = 4\nrealloc = 6\nfree = 2\nmodel_version = dbl\n")
    out = run_report(tmp_path, "custom", extra=("--cost-model", str(weights)))
    assert parse_report(out.read_bytes()).model.model_version == "dbl"


def test_run_rejects_bad_cost_model_file(tmp_path, capsys):
    weights = tmp_path / "w.cfg"
    weights.write_text("malloc = 1\n")
    code = main([
        "run", "--workload", "strings", "--cost-model", str(weights),
        "--out", str(tmp_path / "x.churn.json"),
    ])
    assert code == 2
    assert "missing weight" in capsys.readouterr().err


def test_diff_self_is_neutral_exit_0(tmp_path, capsys):
    base = run_report(tmp_path)
    assert main(["diff", str(base), str(base)]) == 0
    stdout = capsys.readouterr().out
    assert "no regression" in stdout
    assert "regression detected" not in stdout


def test_diff_regression_exit_1_and_ranks_format_first(tmp_path, capsys):
    base = run_report(tmp_path, "base")
    cand = run_report(tmp_path, "cand", variant="regressed")
    capsys.readouterr()
    assert main(["diff", str(base), str(cand)]) == 1
    lines = capsys.readouterr().out.splitlines()
    first_row = lines[2].split()  # header, separator, then ranked rows
    assert first_row[0] == "format"
    assert first_row[1] == "regression"


@pytest.mark.parametrize("flags, summary", [
    ((), "rel>0.01, abs_floor=1"),
    (("--rel-threshold", "1234567"), "rel>1234567, abs_floor=1"),
    (("--abs-floor", "1234567.5"), "rel>0.01, abs_floor=1234567.5"),
    (("--abs-floor", "-0.0"), "rel>0.01, abs_floor=0"),
    (("--rel-threshold", "0.1234567", "--call-floor", "3"), "rel>0.123457, abs_floor=1, call_floor=3"),
    (("--rel-threshold", "4e-7", "--abs-floor", "10"), "rel>0, abs_floor=10"),
], ids=["defaults", "large-rel", "large-floor", "negative-zero", "rounded", "rounded-to-zero"])
def test_the_summary_line_states_the_thresholds_the_verdict_holds(tmp_path, capsys, flags, summary):
    base = run_report(tmp_path)
    capsys.readouterr()
    assert main(["diff", str(base), str(base), "--format", "json", *flags]) == 0
    verdict = tmp_path / "verdict.json"
    verdict.write_text(capsys.readouterr().out)
    written = json.loads(verdict.read_text(), parse_float=str)["thresholds"]  # each literal as written
    assert summary.startswith(f"rel>{written['rel'].rstrip('0').rstrip('.')}, "
                              f"abs_floor={written['abs_floor'].rstrip('0').rstrip('.')}")
    for argv in (["diff", str(base), str(base), *flags], ["rank", str(verdict)]):
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[-1] == f"no regression ({summary})"


def test_diff_threshold_flags_respected(tmp_path):
    base = run_report(tmp_path, "base")
    cand = run_report(tmp_path, "cand", variant="regressed")
    assert main(["diff", str(base), str(cand), "--rel-threshold", "100"]) == 0


def test_diff_parse_failure_names_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.churn.json"
    bad.write_text("{ not json")
    good = run_report(tmp_path)
    assert main(["diff", str(bad), str(good)]) == 2
    err = capsys.readouterr().err
    assert "bad.churn.json" in err
    assert " at byte " in err


def test_lone_surrogate_in_report_exits_2(tmp_path, capsys):
    good = run_report(tmp_path)
    bad = tmp_path / "bad.churn.json"
    bad.write_bytes(good.read_bytes().replace(b'"build_id": "base"', b'"build_id": "\\ud800"', 1))
    capsys.readouterr()
    assert main(["diff", str(bad), str(good)]) == 2
    err = capsys.readouterr().err
    assert "bad.churn.json" in err and "not valid Unicode" in err
    assert main(["show", str(bad)]) == 2
    assert "not valid Unicode" in capsys.readouterr().err


def test_diff_missing_file_exit_2(tmp_path, capsys):
    good = run_report(tmp_path)
    assert main(["diff", str(good), str(tmp_path / "nope.churn.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_diff_model_mismatch_exit_2(tmp_path, capsys):
    base = run_report(tmp_path, "base")
    weights = tmp_path / "w.cfg"
    weights.write_text("malloc = 2\ncalloc = 4\nrealloc = 6\nfree = 2\nmodel_version = dbl\n")
    other = run_report(tmp_path, "other", extra=("--cost-model", str(weights)))
    assert main(["diff", str(base), str(other)]) == 2
    assert "cost models differ" in capsys.readouterr().err


def test_diff_json_output_round_trips(tmp_path, capsys):
    base = run_report(tmp_path, "base")
    cand = run_report(tmp_path, "cand", variant="regressed")
    capsys.readouterr()
    code = main(["diff", str(base), str(cand), "--format", "json"])
    assert code == 1
    stdout = capsys.readouterr().out
    verdict = parse_verdict(stdout)
    assert verdict.regression_detected
    assert verdict.deltas[0].phase == "format"


def test_show_totals_row_sums_phases(tmp_path, capsys):
    report_path = run_report(tmp_path)
    capsys.readouterr()
    assert main(["show", str(report_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    table_start = next(i for i, l in enumerate(lines) if l.startswith("phase"))
    data_rows = [
        l.split() for l in lines[table_start:] if l.startswith(("build ", "format "))
    ]
    total_row = next(l.split() for l in lines if l.startswith("TOTAL"))
    assert int(total_row[2]) == sum(int(r[2]) for r in data_rows)
    assert int(total_row[3]) == sum(int(r[3]) for r in data_rows)
    assert Decimal(total_row[1]) == sum(Decimal(r[1]) for r in data_rows)


def test_show_per_thread_rows_sum_to_merged(tmp_path, capsys):
    report_path = run_report(tmp_path)
    capsys.readouterr()
    assert main(["show", str(report_path), "--per-thread"]) == 0
    stdout = capsys.readouterr().out
    report = parse_report(report_path.read_bytes())
    for name, record in report.merged.items():
        parts = [r for r in report.per_thread if r.name == name]
        assert sum(p.cost_micro for p in parts) == record.cost_micro
    assert "main/000000" in stdout


def test_show_corrupt_file_reports_offset_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.churn.json"
    bad.write_bytes(run_report(tmp_path).read_bytes()[:100])
    assert main(["show", str(bad)]) == 2
    assert " at byte 100: " in capsys.readouterr().err


def test_show_and_rank_name_the_file_in_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.churn.json"
    bad.write_text('{"build_id": "b", oops}')
    message = "error: {}: {} is not in canonical form at byte 1: expected {!r}, found '\"build_id\": \"b\", oops}}'\n"
    assert main(["show", str(bad)]) == 2
    assert capsys.readouterr().err == "churnscope show: " + message.format(bad, "report", '\n  "build_id": ')
    assert main(["rank", str(bad)]) == 2
    assert capsys.readouterr().err == "churnscope rank: " + message.format(bad, "verdict", '\n  "deltas": ')


def test_show_diff_and_rank_name_a_document_of_the_other_kind(tmp_path, capsys):
    # Reports and verdicts are both schema_version "2", so the version cannot tell them apart.
    report = run_report(tmp_path)
    capsys.readouterr()
    assert main(["diff", str(report), str(report), "--format", "json"]) == 0
    verdict = tmp_path / "verdict.json"
    verdict.write_bytes(capsys.readouterr().out.encode())
    for command, *paths in (["show", verdict], ["diff", verdict, report], ["diff", report, verdict]):
        assert main([command, *map(str, paths)]) == 2
        assert capsys.readouterr().err == f"churnscope {command}: error: {verdict}: document is a verdict, not a report\n"
    assert main(["rank", str(report)]) == 2
    assert capsys.readouterr().err == f"churnscope rank: error: {report}: document is a report, not a verdict\n"


def test_a_schema_1_report_exits_2(tmp_path, capsys):
    # No schema-1 reader is kept: a stored baseline is recorded again with ``churnscope run``.
    assert json.loads(GOLDEN_V1)["phases"]["demo"]["cost"] == 20
    old = tmp_path / "old.churn.json"
    old.write_text(GOLDEN_V1)
    for argv in (["show", str(old)], ["diff", str(old), str(old)]):
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"churnscope {argv[0]}: error: {old}: unknown schema_version '1' (expected '2')\n"
        )


def test_rank_names_stdin_as_dash_in_a_parse_error():
    rank = run_module("rank", "-", input=b"[", text=False)
    assert rank.returncode == 2
    assert rank.stderr.decode().startswith("churnscope rank: error: -: verdict is not in canonical form at byte 0:")


def test_rank_reorders_saved_verdict(tmp_path, capsys):
    base = run_report(tmp_path, "base")
    cand = run_report(tmp_path, "cand", variant="regressed")
    capsys.readouterr()
    main(["diff", str(base), str(cand), "--format", "json"])
    verdict_path = tmp_path / "verdict.json"
    verdict_path.write_text(capsys.readouterr().out)
    assert main(["rank", str(verdict_path)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.splitlines()[2].split()[0] == "format"
    assert main(["rank", str(verdict_path), "--by", "abs", "--tie-break", "name"]) == 0


@pytest.mark.parametrize(
    "flags",
    [
        ("--rel-threshold", "nan", "--abs-floor", "nan"),
        ("--rel-threshold", "inf"),
        ("--rel-threshold", "-0.5"),
        ("--abs-floor", "-1"),
        ("--call-floor", "-1"),
    ],
)
def test_diff_rejects_thresholds_that_disable_the_gate(tmp_path, capsys, flags):
    base = run_report(tmp_path, "base")
    cand = run_report(tmp_path, "cand", variant="regressed")
    capsys.readouterr()
    assert main(["diff", str(base), str(cand)]) == 1
    assert main(["diff", str(base), str(cand), *flags]) == 2
    assert "threshold" in capsys.readouterr().err


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda text: re.sub(r'"cost": [0-9.]+', '"cost": 1' + "0" * 400, text, count=1),
        lambda text: "[" * 100_000 + "]" * 100_000,
    ],
    ids=["huge-int-cost", "deep-nesting"],
)
def test_diff_corrupt_report_exits_2(tmp_path, capsys, corrupt):
    base = run_report(tmp_path, "base")
    bad = tmp_path / "bad.churn.json"
    bad.write_text(corrupt(base.read_text()))
    capsys.readouterr()
    assert main(["diff", str(base), str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_rank_json_is_idempotent(tmp_path, capsys):
    base = run_report(tmp_path, "base")
    cand = run_report(tmp_path, "cand", variant="regressed")
    capsys.readouterr()
    main(["diff", str(base), str(cand), "--format", "json"])
    first = capsys.readouterr().out
    verdict_path = tmp_path / "verdict.json"
    verdict_path.write_text(first)
    assert main(["rank", str(verdict_path), "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert second == first


def test_rank_empty_verdict_exit_0(tmp_path, capsys):
    verdict_path = tmp_path / "verdict.json"
    verdict_path.write_bytes(canonical_json({
        "schema_version": "2",
        "thresholds": {"rel": 0.01, "abs_floor": 1.0, "call_floor": None},
        "regression_detected": False,
        "deltas": [],
    }))
    assert main(["rank", str(verdict_path)]) == 0
    stdout = capsys.readouterr().out
    assert "no regression" in stdout


def test_rank_invalid_document_exit_2(tmp_path, capsys):
    verdict_path = tmp_path / "verdict.json"
    verdict_path.write_text('{"schema_version": "1"}')
    assert main(["rank", str(verdict_path)]) == 2
    assert "error" in capsys.readouterr().err


def test_rank_never_changes_statuses(tmp_path, capsys):
    base = run_report(tmp_path, "base")
    cand = run_report(tmp_path, "cand", variant="regressed")
    capsys.readouterr()
    main(["diff", str(base), str(cand), "--format", "json"])
    verdict_path = tmp_path / "verdict.json"
    verdict_path.write_text(capsys.readouterr().out)
    before = {d.phase: d.status for d in parse_verdict(verdict_path.read_bytes()).deltas}
    main(["rank", str(verdict_path), "--by", "abs", "--format", "json"])
    after = {d.phase: d.status for d in parse_verdict(capsys.readouterr().out).deltas}
    assert after == before


def test_usage_error_exit_2(capsys):
    assert main(["run"]) == 2  # --workload and --out are required
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


def test_module_entrypoint_runs():
    proc = run_module("--help", text=True)
    assert proc.returncode == 0
    assert "diff" in proc.stdout


def test_diff_defaults_build_the_default_thresholds():
    args = build_parser().parse_args(["diff", "a", "b"])
    parsed = (args.rel_threshold, args.abs_floor, args.call_floor)
    assert parsed == tuple(Thresholds()) and Thresholds(*parsed) == Thresholds()


def test_importing_the_cli_loads_no_introspection_modules():
    # Every churnscope command is a new process that pays for its imports;
    # ``dataclasses`` alone would bring in the other four.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules)\n"
        "import churnscope.cli\n"
        "print(*sorted(set(sys.modules) - before))"
    )
    src = str(Path(churnscope.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-I", "-c", code, src], capture_output=True, text=True, check=True)
    imported = set(proc.stdout.split())
    assert "churnscope.cli" in imported
    assert imported & {"dataclasses", "inspect", "ast", "dis", "tokenize"} == set()


def test_importing_the_cli_leaves_decimal_out():
    # Reports are read exactly without decimal: a cost literal is the integer of its digits.
    code = "import sys; sys.path.insert(0, sys.argv[1]); import churnscope.cli; print('decimal' in sys.modules)"
    src = str(Path(churnscope.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-I", "-c", code, src], capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"


def test_importing_the_cli_leaves_json_out():
    # json's decoder, scanner and encoder take about 2 ms to import; the writer needs only _json's quoting.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import churnscope.cli\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'json'))"
    )
    src = str(Path(churnscope.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-I", "-c", code, src], capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def test_the_writer_quotes_strings_with_the_function_json_dumps_ends_in():
    assert churnscope.report._quote is json.encoder.encode_basestring


def test_a_string_with_escapes_reads_back_in_an_interpreter_that_has_not_loaded_json(tmp_path):
    # The reader imports json only to read a string literal that holds an escape.
    report = report_with_units({"p": 1})._replace(build_id='a "b"\nc')
    data = serialize_report(report)
    assert b'"build_id": "a \\"b\\"\\nc",' in data
    path = tmp_path / "escaped.churn.json"
    path.write_bytes(data)
    code = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from churnscope.report import parse_report, serialize_report\n"
        "loaded = 'json' in sys.modules\n"
        "data = open(sys.argv[2], 'rb').read()\n"
        "report = parse_report(data)\n"
        "print(loaded, report.build_id == 'a \"b\"\\nc', serialize_report(report) == data)"
    )
    src = str(Path(churnscope.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-I", "-c", code, src, str(path)],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "False True True\n"


def test_importing_the_cli_compiles_no_reader_pattern():
    # A reader pattern takes about a millisecond to compile, so it is compiled on the first read, not at import.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import churnscope.cli\n"
        "from churnscope.report import _pattern; print(_pattern.cache_info().currsize)"
    )
    src = str(Path(churnscope.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-I", "-c", code, src], capture_output=True, text=True, check=True)
    assert proc.stdout == "0\n"


def _one_phase_report(path, *part_costs):
    """A report whose phase "p" is one span per cost in ``part_costs``
    (micro-units). The writer refuses a cost past the bound, so each span is
    written with cost 0 and its cost then put in place of that literal."""
    report = report_with_units({"p": 1})
    part = report.per_thread[0]
    parts = [part._replace(cost_micro=0, span_id=f"main/{i:06d}") for i in range(len(part_costs))]
    data = serialize_report(report._replace(per_thread=parts))  # a report writes only its parts
    for cost in part_costs:
        data = data.replace(b'"cost": 0.000000', b'"cost": %d.%06d' % divmod(cost, 10**6), 1)
    path.write_bytes(data)
    return str(path)


def test_costs_up_to_the_largest_float_diff_and_rank_without_a_traceback(tmp_path, capsys):
    # Every ratio of two accepted costs must be a finite float; a cost past
    # the bound would make _classify raise OverflowError, a crash that exits 1.
    limit = int(sys.float_info.max)
    tiny = _one_phase_report(tmp_path / "tiny.churn.json", 1)
    huge = _one_phase_report(tmp_path / "huge.churn.json", limit)
    past = _one_phase_report(tmp_path / "past.churn.json", limit * 10**6)
    summed_past = _one_phase_report(tmp_path / "summed.churn.json", limit, 1)
    capsys.readouterr()
    assert main(["diff", tiny, past]) == 2
    assert "threads[0] field 'cost' is out of range" in capsys.readouterr().err
    assert main(["diff", tiny, summed_past]) == 2
    assert "phase 'p' field 'cost' is out of range" in capsys.readouterr().err
    assert main(["diff", tiny, huge]) == 1
    assert main(["diff", huge, tiny]) == 0
    assert capsys.readouterr().err == ""
    assert main(["diff", tiny, huge, "--format", "json"]) == 1
    verdict = tmp_path / "verdict.json"
    verdict.write_bytes(capsys.readouterr().out.encode())
    assert main(["rank", str(verdict)]) == 0
    assert main(["rank", str(verdict), "--by", "abs", "--format", "json"]) == 0
    assert capsys.readouterr().err == ""


def test_diff_color_flag_wraps_statuses(tmp_path, capsys):
    base = run_report(tmp_path, "base")
    cand = run_report(tmp_path, "cand", variant="regressed")
    capsys.readouterr()
    main(["diff", str(base), str(cand)])
    plain = capsys.readouterr().out
    assert "\033[" not in plain  # no color codes unless asked
    main(["diff", str(base), str(cand), "--color"])
    colored = capsys.readouterr().out
    assert "\033[31mregression\033[0m" in colored


def test_rank_reads_stdin(tmp_path):
    base = run_report(tmp_path, "base")
    cand = run_report(tmp_path, "cand", variant="regressed")
    diff = run_module("diff", str(base), str(cand), "--format", "json")
    assert diff.returncode == 1
    rank = run_module("rank", "-", "--format", "json", input=diff.stdout)
    assert rank.returncode == 0
    assert rank.stdout == diff.stdout  # diff output is already ranked


def test_ring_capacity_env_var_does_not_change_run(tmp_path, monkeypatch):
    plain = run_report(tmp_path, "plain").read_bytes()
    monkeypatch.setenv("CHURNSCOPE_RING_CAPACITY", "2")
    assert run_report(tmp_path, "plain").read_bytes() == plain


def test_run_rejects_a_build_id_with_no_utf8_form_before_the_workload(tmp_path, capsys, monkeypatch):
    # A command-line byte that is not UTF-8 reaches Python as a lone surrogate: b"\xff" as "\udcff".
    def run_workload(*args):
        raise AssertionError("the workload ran")

    monkeypatch.setattr("churnscope.cli.run_workload", run_workload)
    out = tmp_path / "x.churn.json"
    assert main(["run", "--workload", "strings", "--out", str(out), "--build-id", "\udcff"]) == 2
    assert capsys.readouterr().err == (
        "churnscope run: error: build_id '\\udcff' is not valid Unicode (surrogates not allowed at position 0)\n"
    )
    assert not out.exists()


def test_run_epoch_out_of_range_exits_2(tmp_path, capsys):
    out = tmp_path / "x.churn.json"
    code = main([
        "run", "--workload", "strings", "--out", str(out),
        "--epoch", "99999999999999999999",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "out of range" in err
    assert not out.exists()


def test_run_epoch_gmtime_cannot_represent_is_named(tmp_path, capsys):
    # glibc's gmtime refuses this epoch with OSError (EOVERFLOW), not OverflowError.
    out = tmp_path / "x.churn.json"
    code = main(["run", "--workload", "strings", "--out", str(out), "--epoch", "100000000000000000"])
    assert code == 2
    assert capsys.readouterr().err == "churnscope run: error: epoch 100000000000000000 is out of range\n"
    assert not out.exists()


def test_run_epoch_past_year_9999_is_named(tmp_path, capsys):
    # gmtime gives year 11476 here; the refusal names the epoch, not the year.
    out = tmp_path / "x.churn.json"
    code = main(["run", "--workload", "strings", "--out", str(out), "--epoch", "300000000000"])
    assert code == 2
    assert capsys.readouterr().err == "churnscope run: error: epoch 300000000000 is out of range\n"
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--seed", "-1", "seed must be a 64-bit unsigned integer, got -1"),
    ("--seed", "18446744073709551616", "seed must be a 64-bit unsigned integer, got 18446744073709551616"),
    ("--scale", "0", "scale must be a positive integer, got 0"),
], ids=["seed-negative", "seed-2**64", "scale-0"])
def test_run_rejects_a_seed_or_scale_out_of_range_before_writing(tmp_path, capsys, flag, value, message):
    out = tmp_path / "x.churn.json"
    code = main(["run", "--workload", "strings", "--out", str(out), flag, value])
    assert code == 2
    assert capsys.readouterr().err == f"churnscope run: error: {message}\n"
    assert not out.exists()


def test_run_ring_capacity_past_maxsize_exits_2(tmp_path, capsys):
    # ``run`` has no ring option: CLI reports always use the default ring.
    out = tmp_path / "x.churn.json"
    for value in ("2", "100000000000000000000000"):
        code = main([
            "run", "--workload", "strings", "--out", str(out), "--ring-capacity", value,
        ])
        assert code == 2
        assert "unrecognized arguments: --ring-capacity" in capsys.readouterr().err
        assert not out.exists()


def test_rank_rejects_any_layout_of_a_verdict_but_the_canonical_one(tmp_path, capsys):
    base = run_report(tmp_path, "base")
    cand = run_report(tmp_path, "cand", variant="regressed")
    capsys.readouterr()
    assert main(["diff", str(base), str(cand), "--format", "json"]) == 1
    canonical = tmp_path / "verdict.json"
    canonical.write_bytes(capsys.readouterr().out.encode())
    flat = tmp_path / "flat.json"
    flat.write_bytes(b"\n".join(line.strip() for line in canonical.read_bytes().splitlines()))
    for flags in ([], ["--by", "abs", "--tie-break", "name"], ["--format", "json"]):
        assert main(["rank", str(canonical), *flags]) == 0
        capsys.readouterr()
        assert main(["rank", str(flat), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        prefix = f"churnscope rank: error: {flat}: verdict is not in canonical form at byte 2: expected '  \"deltas"
        assert captured.err.startswith(prefix) and "found '\"deltas\": [" in captured.err
        assert captured.err.count("\n") == 1


def test_rank_rejects_hand_edited_status_exit_2(tmp_path, capsys):
    base = run_report(tmp_path, "base")
    cand = run_report(tmp_path, "cand", variant="regressed")
    capsys.readouterr()
    assert main(["diff", str(base), str(cand), "--format", "json"]) == 1
    verdict = capsys.readouterr().out
    doc = json.loads(verdict)
    for delta in doc["deltas"]:
        delta["status"] = "neutral"
    doc["regression_detected"] = False
    edited = tmp_path / "edited.json"
    edited.write_bytes(canonical_json(doc))
    assert main(["rank", str(edited)]) == 2
    at = verdict.index('"status": "regression"') + len('"status": ')
    assert f"deltas[0] field 'status' is not in canonical form at byte {at}: expected '\"regression" in capsys.readouterr().err


def test_run_out_is_written_atomically(tmp_path, monkeypatch, capsys):
    out = run_report(tmp_path, "base")
    before = out.read_bytes()

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("os.replace", failing_replace)
    assert main([
        "run", "--workload", "strings", "--seed", "2", "--scale", "4",
        "--out", str(out), "--epoch", "0",
    ]) == 2
    assert "disk full" in capsys.readouterr().err
    assert out.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [out.name]


def test_run_out_on_a_symlink_loop_exits_2_and_leaves_the_links(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    a.symlink_to(b)
    b.symlink_to(a)
    assert main(["run", "--workload", "strings", "--out", str(a)]) == 2
    assert capsys.readouterr().err == f"churnscope run: error: {a} is in a symlink loop\n"
    assert (os.readlink(a), os.readlink(b)) == (str(b), str(a))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b"]


def test_run_out_writes_through_a_symlink_and_into_a_pipe(tmp_path, capsys):
    argv = ["run", "--workload", "strings", "--seed", "1", "--scale", "2", "--epoch", "0", "--out"]
    target = tmp_path / "target.churn.json"
    target.write_bytes(b"previous")
    link = tmp_path / "link.churn.json"
    link.symlink_to(target)
    assert main([*argv, str(link)]) == 0
    assert link.is_symlink()
    report = target.read_bytes()
    parse_report(report)

    # A pipe is written in place: renaming a file over it would leave its
    # reader waiting forever.
    fifo = tmp_path / "report.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert main([*argv, str(fifo)]) == 0
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    assert got == [report]


def _failing_third_thread_record(monkeypatch, seen):
    """Make the report writer refuse its third thread record, recording
    what ``seen()`` returns at each thread record it is asked for."""
    real = churnscope.report._churn_text

    def churn_text(record, template):
        if template is churnscope.report._THREAD_RECORD:
            calls.append(seen())
            if len(calls) == 3:
                raise churnscope.report._Unwritable(record, "field 'cost_micro' must be an int >= 0, got -1")
        return real(record, template)

    calls = []
    monkeypatch.setattr(churnscope.report, "_churn_text", churn_text)
    return calls


def test_run_fault_mid_write_leaves_the_previous_file_and_no_temp_file(tmp_path, monkeypatch, capsys):
    out = run_report(tmp_path, "base")
    before = out.read_bytes()
    calls = _failing_third_thread_record(monkeypatch, lambda: sorted(p.name for p in tmp_path.iterdir()))
    assert main(["run", "--workload", "strings", "--seed", "2", "--scale", "4", "--out", str(out), "--epoch", "0"]) == 2
    assert capsys.readouterr().err == (
        "churnscope run: error: cannot serialize threads[2]: field 'cost_micro' must be an int >= 0, got -1\n")
    # The head and two records were written into the temp file before the fault.
    assert len(calls) == 3 and re.fullmatch(r"\.base\.churn\.json\.[0-9a-f]{8}\.tmp", calls[2][0])
    assert out.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [out.name]


def test_run_fault_mid_write_into_a_pipe_truncates_it_and_exits_2(tmp_path, monkeypatch, capsys):
    fifo = tmp_path / "report.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    _failing_third_thread_record(monkeypatch, lambda: None)
    assert main(["run", "--workload", "strings", "--scale", "4", "--out", str(fifo), "--epoch", "0"]) == 2
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert "cannot serialize threads[2]" in capsys.readouterr().err
    # The reader got the head and two records, and no end: a document no reader accepts.
    assert got[0].startswith(b"{\n") and got[0].count(b'"span_id"') == 2
    with pytest.raises(churnscope.ReportError):
        parse_report(got[0])


def test_run_on_a_full_disk_leaves_the_previous_file_and_no_temp_file(tmp_path, monkeypatch, capsys):
    out = run_report(tmp_path, "base")
    before = out.read_bytes()

    def write_until_full(report, file):
        file.write(b"{\n" * 10_000)
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(churnscope.cli, "write_report", write_until_full)
    assert main(["run", "--workload", "strings", "--scale", "4", "--out", str(out), "--epoch", "0"]) == 2
    assert capsys.readouterr().err == "churnscope run: error: [Errno 28] No space left on device\n"
    assert out.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [out.name]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_run_into_a_full_device_exits_2(capsys):
    assert main(["run", "--workload", "strings", "--scale", "4", "--out", "/dev/full", "--epoch", "0"]) == 2
    assert "No space left on device" in capsys.readouterr().err


def _peak_bytes(fn):
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_holds_no_copy_of_the_report(tmp_path, capsys):
    # Allocated bytes, not time, so the figure is the same on every run. A
    # command that builds the report's bytes before it writes them peaks
    # above the workload's own peak by more than the whole report.
    out = tmp_path / "strings.churn.json"
    argv = ["run", "--workload", "strings", "--seed", "1", "--epoch", "0", "--out", str(out)]
    assert main([*argv, "--scale", "1"]) == 0  # the command's first-call work, not what it holds
    spec = churnscope.WorkloadSpec("strings", seed=1, scale=250)
    workload = _peak_bytes(lambda: churnscope.run_workload(
        spec, churnscope.RecordingSession(created_at=churnscope.utc_timestamp(0))))
    codes = []
    command = _peak_bytes(lambda: codes.append(main([*argv, "--scale", "250"])))
    capsys.readouterr()
    assert codes == [0]
    size = out.stat().st_size
    assert size > 100_000
    assert command - workload < size / 2, f"run peaks {command - workload} B above its workload, report {size} B"
