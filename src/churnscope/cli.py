"""Command-line interface.

Subcommands:
    run    execute a synthetic workload and write its churn report
    show   pretty-print a report as an aligned table
    diff   compare a baseline report against a candidate and rank the result
    rank   re-order a saved verdict under alternate ranking flags

Exit codes: 0 success (diff: no regression), 1 regression detected (diff
only), 2 usage or data error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Any, BinaryIO, Callable

from .cost_model import CostModel, load_cost_model
from .errors import ChurnscopeError
from .recorder import RecordingSession, utc_timestamp
from .report import (
    DEFAULT_ABS_FLOOR,
    DEFAULT_REL_THRESHOLD,
    ChurnDelta,
    ChurnReport,
    RegressionVerdict,
    Thresholds,
    _fixed,
    diff_reports,
    format_cost,
    parse_report,
    parse_verdict,
    rank_regressions,
    serialize_verdict,
    write_report,
)
from .workloads import VARIANTS, WorkloadSpec, run_workload, workload_names

EXIT_OK = 0
EXIT_REGRESSION = 1
EXIT_ERROR = 2

_RESET = "\033[0m"
_STATUS_COLORS = {
    "regression": "\033[31m",
    "improvement": "\033[32m",
    "new_phase": "\033[33m",
    "removed_phase": "\033[33m",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="churnscope",
        description="Measure allocator churn between markers and diff builds with it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a synthetic workload and write a report")
    p_run.add_argument("--workload", required=True, choices=workload_names())
    p_run.add_argument("--seed", type=int, default=1)
    p_run.add_argument("--scale", type=int, default=1)
    p_run.add_argument("--variant", choices=list(VARIANTS), default="baseline")
    p_run.add_argument("--cost-model", type=Path, default=None,
                       help="weight override file (default: built-in weights)")
    p_run.add_argument("--out", type=Path, required=True,
                       help="report path, conventionally *.churn.json")
    p_run.add_argument("--build-id", default="local")
    p_run.add_argument("--epoch", type=int, default=None,
                       help="pin created_at to this UNIX epoch (for reproducible files)")

    p_show = sub.add_parser("show", help="pretty-print a report")
    p_show.add_argument("report", type=Path)
    p_show.add_argument("--per-thread", action="store_true",
                        help="also list the per-thread span records")

    p_diff = sub.add_parser("diff", help="compare two reports; exit 1 on regression")
    p_diff.add_argument("baseline", type=Path)
    p_diff.add_argument("candidate", type=Path)
    p_diff.add_argument("--rel-threshold", type=float, default=DEFAULT_REL_THRESHOLD)
    p_diff.add_argument("--abs-floor", type=float, default=DEFAULT_ABS_FLOOR)
    p_diff.add_argument("--call-floor", type=int, default=None,
                        help="also flag phases whose total call count grows by more than this")
    p_diff.add_argument("--format", choices=("text", "json"), default="text")
    p_diff.add_argument("--color", action="store_true", help="colorize statuses")

    p_rank = sub.add_parser("rank", help="re-rank a saved json verdict")
    p_rank.add_argument("verdict", help="verdict file from 'diff --format json', or - for stdin")
    p_rank.add_argument("--tie-break", choices=("bytes", "name"), default="bytes")
    p_rank.add_argument("--by", choices=("rel", "abs"), default="rel")
    p_rank.add_argument("--format", choices=("text", "json"), default="text")
    p_rank.add_argument("--color", action="store_true")
    return parser


def _format_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines)


def _report_rows(report: ChurnReport) -> list[list[str]]:
    rows = []
    for name, record in report.merged.items():  # keyed in name order
        flags = "".join(
            flag for flag, on in (("O", record.overflow), ("A", record.auto_closed)) if on
        )
        rows.append([
            name,
            format_cost(record.cost_micro),
            str(record.total_calls),
            str(record.bytes_allocated),
            str(record.bytes_freed),
            flags,
        ])
    return rows


def _write_atomically(path: Path, fill: Callable[[BinaryIO], object]) -> None:
    """Open a temp file beside ``path``, ``fill`` it, then rename it over
    ``path``. A failure anywhere, in ``fill``, in a write, or in the rename,
    removes the temp file and leaves the previous file as it was. A device
    or pipe, such as /dev/null, is filled in place, never replaced: a fault
    mid-write leaves its reader with a truncated document, and the command
    exits 2."""
    if path.exists() and not path.is_file():
        with path.open("wb") as file:
            fill(file)
        return
    target = Path(os.path.realpath(path))  # through a symlink, replace the file it names
    if target.is_symlink():  # realpath stops at a loop, whose links are left as they were
        raise OSError(f"{path} is in a symlink loop")
    tmp = target.with_name(f".{target.name}.{os.urandom(4).hex()}.tmp")
    try:
        with tmp.open("wb") as file:
            fill(file)
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)


def cmd_run(args: argparse.Namespace) -> int:
    model = load_cost_model(args.cost_model) if args.cost_model else CostModel()
    created_at = utc_timestamp(args.epoch) if args.epoch is not None else None
    session = RecordingSession(model, build_id=args.build_id, created_at=created_at)
    spec = WorkloadSpec(args.workload, seed=args.seed, scale=args.scale, variant=args.variant)
    report = run_workload(spec, session)
    # Each record streams into the file as it is made, so the command never
    # holds the report's bytes; the table merges the phases after it is written.
    _write_atomically(args.out, lambda file: write_report(report, file))
    headers = ["phase", "cost", "calls", "bytes_alloc", "bytes_freed", "flags"]
    print(f"workload {spec.name} ({spec.variant}, seed {spec.seed}, scale {spec.scale})")
    print(_format_table(headers, _report_rows(report)))
    print(f"wrote {args.out}")
    return EXIT_OK


def _parse_file(parse: Callable[[bytes], Any], data: bytes, name: object) -> Any:
    """Parse ``data``, read from the file ``name`` (``-`` for stdin); an error names the file."""
    try:
        return parse(data)
    except ChurnscopeError as exc:
        raise ChurnscopeError(f"{name}: {exc}") from None


def cmd_show(args: argparse.Namespace) -> int:
    report = _parse_file(parse_report, args.report.read_bytes(), args.report)
    print(f"build {report.build_id} at {report.created_at} "
          f"(model {report.model.model_version})")
    headers = ["phase", "cost", "calls", "bytes_alloc", "bytes_freed", "flags"]
    rows = _report_rows(report)
    phases = report.merged.values()
    rows.append([
        "TOTAL",
        format_cost(sum(r.cost_micro for r in phases)),
        str(sum(r.total_calls for r in phases)),
        str(sum(r.bytes_allocated for r in phases)),
        str(sum(r.bytes_freed for r in phases)),
        "",
    ])
    print(_format_table(headers, rows))
    if args.per_thread:
        print()
        headers = ["span", "thread", "phase", "cost", "calls", "bytes_alloc", "bytes_freed"]
        rows = [
            [
                record.span_id,
                record.thread_id,
                record.name,
                format_cost(record.cost_micro),
                str(record.total_calls),
                str(record.bytes_allocated),
                str(record.bytes_freed),
            ]
            for record in report.per_thread
        ]
        print(_format_table(headers, rows))
    counters = report.totals
    print(
        f"totals: {counters.bytes_allocated} bytes allocated, "
        f"{counters.bytes_freed} freed, {counters.live_blocks} live blocks "
        f"({counters.live_bytes} bytes), {counters.anomaly_count} anomalies, "
        f"{counters.overflow_count} ring evictions"
    )
    return EXIT_OK


def _paint(status: str, color: bool) -> str:
    if color and status in _STATUS_COLORS:
        return f"{_STATUS_COLORS[status]}{status}{_RESET}"
    return status


def _verdict_rows(deltas: list[ChurnDelta], color: bool) -> list[list[str]]:
    rows = []
    for delta in deltas:
        base = format_cost(delta.baseline.cost_micro) if delta.baseline else "-"
        cand = format_cost(delta.candidate.cost_micro) if delta.candidate else "-"
        rel = f"{delta.cost_delta_rel * 100:+.2f}%" if delta.cost_delta_rel is not None else "-"
        rows.append([
            delta.phase,
            _paint(delta.status, color),
            base,
            cand,
            ("+" if delta.cost_delta_micro >= 0 else "") + format_cost(delta.cost_delta_micro),
            rel,
        ])
    return rows


def _print_verdict(verdict: RegressionVerdict, deltas: list[ChurnDelta], color: bool) -> None:
    headers = ["phase", "status", "baseline", "candidate", "delta", "rel"]
    if deltas:
        print(_format_table(headers, _verdict_rows(deltas, color)))
    th = verdict.thresholds
    gate = "regression detected" if verdict.regression_detected else "no regression"
    # The six-decimal literals the verdict holds, trailing zeros dropped: what the gate compared.
    rel, floor = (_fixed(value).rstrip("0").rstrip(".") for value in (th.rel, th.abs_floor))
    floors = f"rel>{rel}, abs_floor={floor}"
    if th.call_floor is not None:
        floors += f", call_floor={th.call_floor}"
    print(f"{gate} ({floors})")


def cmd_diff(args: argparse.Namespace) -> int:
    baseline = _parse_file(parse_report, args.baseline.read_bytes(), args.baseline)
    candidate = _parse_file(parse_report, args.candidate.read_bytes(), args.candidate)
    thresholds = Thresholds(
        rel=args.rel_threshold, abs_floor=args.abs_floor, call_floor=args.call_floor
    )
    verdict = diff_reports(baseline, candidate, thresholds)
    if args.format == "json":
        sys.stdout.buffer.write(serialize_verdict(verdict))
        sys.stdout.buffer.flush()
    else:
        _print_verdict(verdict, verdict.deltas, args.color)
    return EXIT_REGRESSION if verdict.regression_detected else EXIT_OK


def cmd_rank(args: argparse.Namespace) -> int:
    if args.verdict == "-":
        data = sys.stdin.buffer.read()
    else:
        data = Path(args.verdict).read_bytes()
    verdict = _parse_file(parse_verdict, data, args.verdict)
    ranked = rank_regressions(verdict, tie_break=args.tie_break, by=args.by)
    if args.format == "json":
        sys.stdout.buffer.write(serialize_verdict(verdict._replace(deltas=ranked)))
        sys.stdout.buffer.flush()
    else:
        _print_verdict(verdict, ranked, args.color)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_ERROR
    handlers = {"run": cmd_run, "show": cmd_show, "diff": cmd_diff, "rank": cmd_rank}
    try:
        return handlers[args.command](args)
    except (ChurnscopeError, OSError, ValueError) as exc:
        print(f"churnscope {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
