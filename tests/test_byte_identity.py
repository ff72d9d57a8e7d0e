"""Byte identity of the built-in outputs against recorded SHA-256 digests.

Each built-in workload runs at seed 1, scale 7, in both variants. The run
reports, the ``diff`` text and ``diff --format json`` verdict of baseline
against regressed, and ``rank --format json`` of that verdict must hash to
the digests below. A change to the canonical form or to the workloads must
replace them (a failing run prints the new table) and say why in CHANGES.md.
"""

import hashlib

from churnscope.cli import main
from churnscope.workloads import VARIANTS, workload_names

DIGESTS = {
    "buffers/baseline.churn.json": "e2e7c98ff3adedd4c61ac7e8ee12837cddef21727ae3b4e24d9da3f1f6268e4a",
    "buffers/regressed.churn.json": "78373fe67230979c23994fbe6cd5894202d9b1aaa213691e396a3bcdef7f7738",
    "buffers/diff.txt": "481deb45ffa8b1f9bde275acd1a68939c0394805d84f6acae5e46166329b9832",
    "buffers/verdict.json": "338f9c3d03957a8de173bc69521a7a77ceed3bbd7ce4f232624904a3f72141b3",
    "buffers/rank.json": "338f9c3d03957a8de173bc69521a7a77ceed3bbd7ce4f232624904a3f72141b3",
    "multithread/baseline.churn.json": "b2e6eae59e99272c71ee0f24157e71950fb2e45a03c0e5fb758812a2452dbdb6",
    "multithread/regressed.churn.json": "cde4abb97f6477557fdbfe3892803d74292c36f2b3a6296aa0172aef76d6f4f5",
    "multithread/diff.txt": "8c3efe718241551bd335bdf2afc1b9a21e16a1783159175f62349e940b6e910f",
    "multithread/verdict.json": "75b66199853f794d118f0d9d9aa13eb724476791aa11f4e2618799ec2ed0329c",
    "multithread/rank.json": "75b66199853f794d118f0d9d9aa13eb724476791aa11f4e2618799ec2ed0329c",
    "strings/baseline.churn.json": "fea495349e4972ba95c6cff4ff3f2344c1ad59196de36b0a4c7c8ff93ff820dc",
    "strings/regressed.churn.json": "1d6de4ff02619ea65e5b6e980442789abfe66c237a5e153759282314a4809cdc",
    "strings/diff.txt": "ca9a79b62e6439d716b6a36451ae715d3d4c4b5c9afb28d0b6f11264cab9832b",
    "strings/verdict.json": "3e744dd70619f4671a4aaa1587a4ade6d0cb69b19b3b6aeca685fc35a98cea1d",
    "strings/rank.json": "3e744dd70619f4671a4aaa1587a4ade6d0cb69b19b3b6aeca685fc35a98cea1d",
    "table/baseline.churn.json": "926d21d41aaf9147a0e029707ea9f192c5c0c53f5a83094e033b925da7fe6cd8",
    "table/regressed.churn.json": "90c41c5cbd706e09866d16c69432f65dff45330dff65084ef32ef18416f2ed4d",
    "table/diff.txt": "8c3ac7f329a196f6402d3a7324b6190cc9b2b6a27fd2524a48fc3e24347b9ba5",
    "table/verdict.json": "ffc9862ebf7d8777389f3841149bc158f4c20de3a0a4282d12e2525f714566cf",
    "table/rank.json": "ffc9862ebf7d8777389f3841149bc158f4c20de3a0a4282d12e2525f714566cf",
}


def outputs(tmp_path, capsysbinary):
    """Yield (name, bytes) for every output the digests cover."""
    for workload in workload_names():
        paths = {}
        for variant in VARIANTS:
            path = tmp_path / f"{workload}-{variant}.churn.json"
            argv = [
                "run", "--workload", workload, "--seed", "1", "--scale", "7", "--variant", variant,
                "--out", str(path), "--build-id", variant, "--epoch", "0",
            ]
            assert main(argv) == 0
            capsysbinary.readouterr()
            paths[variant] = str(path)
            yield f"{workload}/{variant}.churn.json", path.read_bytes()
        pair = [paths[v] for v in VARIANTS]
        assert main(["diff", *pair]) == 1  # each regressed variant regresses one phase
        yield f"{workload}/diff.txt", capsysbinary.readouterr().out
        assert main(["diff", *pair, "--format", "json"]) == 1
        verdict = capsysbinary.readouterr().out
        yield f"{workload}/verdict.json", verdict
        path = tmp_path / f"{workload}.verdict.json"
        path.write_bytes(verdict)
        assert main(["rank", str(path), "--format", "json"]) == 0
        yield f"{workload}/rank.json", capsysbinary.readouterr().out


def test_builtin_outputs_match_recorded_digests(tmp_path, capsysbinary):
    got = {name: hashlib.sha256(data).hexdigest() for name, data in outputs(tmp_path, capsysbinary)}
    changed = sorted(name for name in got.keys() | DIGESTS.keys() if got.get(name) != DIGESTS.get(name))
    table = "".join(f'\n    "{name}": "{digest}",' for name, digest in got.items())
    assert not changed, f"outputs differ from the recorded bytes: {changed}; new table:{table}"
