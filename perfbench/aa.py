"""A/A steadiness check: two sets of runs of the same code, compared.

    python3 perfbench/aa.py --runs 10                 # every workload
    python3 perfbench/aa.py --runs 5 --workloads dense-markers

Run ``i`` of both sets uses seed ``i`` (1 to ``--runs``) and the run length
``run_seconds`` from BENCHMARK.json; sets A and B alternate which goes
first. For every end-to-end metric of every workload it prints
each set's median and quartiles, the spread (q3 - q1) / median, and how far
B's median is from A's in the worse direction, then whether the metric
agrees with its bound in BENCHMARK.json: both spreads within the bound
and neither median worse than the other by more than it.
The share of failed operations must also be equal. Writes
``.perfbench/aa.json``; exits 1 if anything disagrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def one_run(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"aa: {' '.join(argv)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": med, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    command = spec["command"]
    workloads = args.workloads.split(",")

    results = {w: {"A": [], "B": []} for w in workloads}
    for seed in range(1, args.runs + 1):
        for w in workloads:
            for side in ("AB" if seed % 2 else "BA"):
                result = one_run(command, w, seed, spec["run_seconds"])
                results[w][side].append(result)
                print(f"aa: {w} seed {seed} set {side}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)

    report: dict = {}
    ok = True
    header = f"{'workload':14s} {'metric':13s} {'A q1/med/q3':>32s} {'B q1/med/q3':>32s} " \
             f"{'spreadA':>8s} {'spreadB':>8s} {'worse':>7s} {'bound':>6s}  agree"
    print(header)
    for w in workloads:
        sides = results[w]
        shares = {s: {r["failed"] / r["attempted"] for r in sides[s]} for s in "AB"}
        correct = all(r["correct"] for s in "AB" for r in sides[s])
        same_share = len(shares["A"] | shares["B"]) == 1
        ok = ok and correct and same_share
        report[w] = {"correct": correct, "failed_shares": sorted(shares["A"] | shares["B"]), "metrics": {}}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = summary([r["metrics"][name]["value"] for r in sides["A"]])
            b = summary([r["metrics"][name]["value"] for r in sides["B"]])
            sign = 1 if metric["better"] == "lower" else -1
            worse = max(sign * (b["median"] - a["median"]) / a["median"],
                        sign * (a["median"] - b["median"]) / b["median"])
            agree = max(a["spread"], b["spread"]) <= bound and worse <= bound
            ok = ok and agree
            report[w]["metrics"][name] = {"A": a, "B": b, "worse": worse, "bound": bound, "agree": agree}
            cell = lambda s: f"{s['q1']:.5g}/{s['median']:.5g}/{s['q3']:.5g}"  # noqa: E731
            print(f"{w:14s} {name:13s} {cell(a):>32s} {cell(b):>32s} {a['spread']:8.4f} "
                  f"{b['spread']:8.4f} {worse:7.4f} {bound:6.3f}  {'yes' if agree else 'NO'}")
        print(f"{w:14s} correct={correct} failed share equal={same_share}")
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    (out / "aa.json").write_text(json.dumps(report, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
