"""Byte identity of the built-in outputs against recorded SHA-256 digests.

Each built-in workload runs at seed 1, scale 7, in both variants. The run
reports, the ``diff`` text and ``diff --format json`` verdict of baseline
against regressed, and ``rank --format json`` of that verdict must hash to
the digests below. So must two library-built reports of about 2,700 records
each and the verdict between them, where the record writer's bytes dominate,
and the ``rank`` text of each of those verdicts under every ordering flag,
and the ``show`` text of each built-in report with and without its
per-thread table. A change to the canonical form or to the workloads must replace them (a
failing run prints the new table) and say why in CHANGES.md.
"""

import hashlib

from churnscope import (
    AllocFnKind,
    CostModel,
    RecordingSession,
    TracingAllocator,
    begin_marker,
    marker,
    serialize_report,
)
from churnscope.cli import main
from churnscope.workloads import VARIANTS, SplitMix64, workload_names

DIGESTS = {
    "buffers/baseline.churn.json": "2b3c28d76b68243bffe2a04f265bba74e1589c2a57faccde3c11c946f5fc3cf6",
    "buffers/regressed.churn.json": "f43ddac8c9cb0ed8ffcd6b2a5d63cba90934e43979e5f5f2de64226fc96636d8",
    "buffers/diff.txt": "481deb45ffa8b1f9bde275acd1a68939c0394805d84f6acae5e46166329b9832",
    "buffers/verdict.json": "0f583129000dac1996f4b2d136c423aba37d4642a8bea36f571b55aa7da2d88a",
    "buffers/rank.json": "0f583129000dac1996f4b2d136c423aba37d4642a8bea36f571b55aa7da2d88a",
    "multithread/baseline.churn.json": "7fa76c44993a840133430b18789320d2048f59bf2453f53cb05059acd4e6ab6b",
    "multithread/regressed.churn.json": "045130fb192b16f408e22d850f433dff49693f79eb555ab4a67b291d95c49f84",
    "multithread/diff.txt": "8c3efe718241551bd335bdf2afc1b9a21e16a1783159175f62349e940b6e910f",
    "multithread/verdict.json": "d0d116161c6efb14ac438db1a0ac8fcc86f49164d0576d50e8490407480fd465",
    "multithread/rank.json": "d0d116161c6efb14ac438db1a0ac8fcc86f49164d0576d50e8490407480fd465",
    "strings/baseline.churn.json": "c3a6c81241758c27081a9b9e4880ce6897c09611fe70036832080ef7c899ac05",
    "strings/regressed.churn.json": "49efe4f358c6312454a9e614b8d259f14e59039a00a1c74a964d1b36d3e1fd4e",
    "strings/diff.txt": "ca9a79b62e6439d716b6a36451ae715d3d4c4b5c9afb28d0b6f11264cab9832b",
    "strings/verdict.json": "45d8d31804934a21d47eb59aedf1c1ed8cc46982c9f8bef799aea8eca529ed82",
    "strings/rank.json": "45d8d31804934a21d47eb59aedf1c1ed8cc46982c9f8bef799aea8eca529ed82",
    "table/baseline.churn.json": "cc8a4f3dcbdb7d482d257ec3399a1cdc10b771467de82b35c321646ce0f7b3ac",
    "table/regressed.churn.json": "d1595d3be41839d5cc64db49177f09518c7f875a8d544ebe6bdba876b2729897",
    "table/diff.txt": "8c3ac7f329a196f6402d3a7324b6190cc9b2b6a27fd2524a48fc3e24347b9ba5",
    "table/verdict.json": "5da4feccd2c457e38746e48c38b361355173001f6af4c24ca45aed2f272f7e30",
    "table/rank.json": "5da4feccd2c457e38746e48c38b361355173001f6af4c24ca45aed2f272f7e30",
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


# Pinned where records dominate: two reports of about 2,700 records each, the
# ``diff --format json`` verdict between them (about 2,400 records), and
# ``rank --format json`` of that verdict by relative and by absolute delta.
MANY_RECORD_DIGESTS = {
    "baseline.churn.json": "8e35649789ed31846d149797e1abdb088fb23c70165b85a92c5419f745a9f6f4",
    "regressed.churn.json": "ecc9234a1d90dc09c44a638b79ec59a142aac844c77522206022d572a8726674",
    "verdict.json": "9b3663db1390851f83e059234f2c80d9df1e62e84ddeeeee2e794ca3076fe2e6",
    "rank-rel.json": "9b3663db1390851f83e059234f2c80d9df1e62e84ddeeeee2e794ca3076fe2e6",
    "rank-abs.json": "8fa55a068ae3bef7d60b8d365f120efe2b330928404901ff6ccd82e4421c9c7d",
}


def many_record_report(variant):
    """1,200 phases, a quarter of them spanned twice; the regressed variant
    grows every seventh phase, drops one and adds one. Names carry quotes,
    backslashes and non-ASCII text; the ring overflows partway, so later spans
    carry the overflow flag, and one span is still open at seal."""
    session = RecordingSession(ring_capacity=2048, build_id=variant, created_at="2026-01-01T00:00:00Z")
    rec = session.recorder("main")
    heap = TracingAllocator(rec)
    rng = SplitMix64(11)
    names = [f'p{i:04d}' if i % 5 else f'p{i:04d} "q\\ \u00e9\u2603\U0001F600' for i in range(1200)]
    names[7 if variant == "baseline" else 8] = f"only-{variant}"
    for i, name in enumerate(names):
        for _ in range(2 if i % 4 == 0 else 1):
            with marker(rec, name):
                blocks = [heap.malloc(rng.randrange(1, 1 << 20)) for _ in range(rng.randrange(0, 4))]
                if variant != "baseline" and i % 7 == 0:
                    blocks.append(heap.calloc(rng.randrange(1, 9), rng.randrange(1, 4096)))
                if blocks:
                    blocks[0] = heap.realloc(blocks[0], rng.randrange(1, 1 << 16))
                for block in blocks:
                    heap.free(block)
    begin_marker(rec, "left-open")
    heap.free(heap.malloc(rng.randrange(1, 1 << 10)))
    session.seal_all()
    return serialize_report(session.build_report())


def many_record_outputs(tmp_path, capsysbinary):
    """Yield (name, bytes) for every output ``MANY_RECORD_DIGESTS`` covers."""
    paths = []
    for variant in VARIANTS:
        data = many_record_report(variant)
        yield f"{variant}.churn.json", data
        path = tmp_path / f"{variant}.churn.json"
        path.write_bytes(data)
        paths.append(str(path))
    assert main(["diff", *paths, "--format", "json"]) == 1
    verdict = capsysbinary.readouterr().out
    yield "verdict.json", verdict
    path = tmp_path / "verdict.json"
    path.write_bytes(verdict)
    # rank reads the verdict through parse_verdict's canonical check and writes it again.
    for by in ("rel", "abs"):
        assert main(["rank", str(path), "--format", "json", "--by", by]) == 0
        yield f"rank-{by}.json", capsysbinary.readouterr().out


def test_many_record_outputs_match_recorded_digests(tmp_path, capsysbinary):
    got = {name: hashlib.sha256(data).hexdigest() for name, data in many_record_outputs(tmp_path, capsysbinary)}
    table = "".join(f'\n    "{name}": "{digest}",' for name, digest in got.items())
    assert got == MANY_RECORD_DIGESTS, f"outputs differ from the recorded bytes; new table:{table}"


# Pinned shapes the built-in runs never write: a report with no spans (empty
# phases and threads, calls outside every span, non-integer weights), a
# verdict whose thresholds hold an integer call_floor, and a verdict with no
# deltas after a round trip through ``rank``.
EDGE_DIGESTS = {
    "no-spans.churn.json": "ab2f8685d4f1a466d5829aded224e311e4cab4edf33f0ebd5bb3411cc804838f",
    "strings/verdict-call-floor-0.json": "02833731de0dbc760dfa6913ecd9d72a99a1c696edb819af27fce855c4875580",
    "no-deltas/rank.json": "0142baf7e0ea043903659ab8cad0ffc99054a9e58ae3ba6e2d3b2a1219c0be40",
}


def no_span_report(build_id):
    weights = {AllocFnKind.MALLOC: 0.25, AllocFnKind.CALLOC: 1.5, AllocFnKind.REALLOC: 0.125, AllocFnKind.FREE: 2}
    model = CostModel(weights, "edge-v1")
    session = RecordingSession(model, build_id=build_id, created_at="2026-01-01T00:00:00Z")
    rec = session.recorder("main")
    heap = TracingAllocator(rec)
    heap.free(heap.malloc(64))
    heap.realloc(heap.calloc(3, 40), 8)
    session.seal_all()
    return serialize_report(session.build_report())


def edge_outputs(tmp_path, capsysbinary):
    """Yield (name, bytes) for every output ``EDGE_DIGESTS`` covers."""
    yield "no-spans.churn.json", no_span_report("b")
    paths = []
    for build_id in VARIANTS:
        path = tmp_path / f"empty-{build_id}.churn.json"
        path.write_bytes(no_span_report(build_id))
        paths.append(str(path))
    assert main(["diff", *paths, "--format", "json"]) == 0
    path = tmp_path / "empty.verdict.json"
    path.write_bytes(capsysbinary.readouterr().out)
    assert main(["rank", str(path), "--format", "json"]) == 0
    yield "no-deltas/rank.json", capsysbinary.readouterr().out
    paths = []
    for variant in VARIANTS:
        path = tmp_path / f"strings-{variant}.churn.json"
        argv = ["run", "--workload", "strings", "--seed", "1", "--scale", "7", "--variant", variant,
                "--out", str(path), "--build-id", variant, "--epoch", "0"]
        assert main(argv) == 0
        paths.append(str(path))
    capsysbinary.readouterr()
    assert main(["diff", *paths, "--call-floor", "0", "--format", "json"]) == 1
    yield "strings/verdict-call-floor-0.json", capsysbinary.readouterr().out


def test_edge_shape_outputs_match_recorded_digests(tmp_path, capsysbinary):
    got = {name: hashlib.sha256(data).hexdigest() for name, data in edge_outputs(tmp_path, capsysbinary)}
    table = "".join(f'\n    "{name}": "{digest}",' for name, digest in got.items())
    assert got == EDGE_DIGESTS, f"outputs differ from the recorded bytes; new table:{table}"


# ``rank`` text of each pinned verdict: by default, by absolute delta, and
# with names breaking ties before byte deltas. It shows every row's order and
# numbers, so it stays fixed while a verdict's document form changes. The
# built-in pairs have too few rows for the flags to reorder: their three texts
# are the ``diff`` text.
RANK_TEXT_DIGESTS = {
    "buffers/rank.txt": "481deb45ffa8b1f9bde275acd1a68939c0394805d84f6acae5e46166329b9832",
    "buffers/rank-abs.txt": "481deb45ffa8b1f9bde275acd1a68939c0394805d84f6acae5e46166329b9832",
    "buffers/rank-name.txt": "481deb45ffa8b1f9bde275acd1a68939c0394805d84f6acae5e46166329b9832",
    "multithread/rank.txt": "8c3efe718241551bd335bdf2afc1b9a21e16a1783159175f62349e940b6e910f",
    "multithread/rank-abs.txt": "8c3efe718241551bd335bdf2afc1b9a21e16a1783159175f62349e940b6e910f",
    "multithread/rank-name.txt": "8c3efe718241551bd335bdf2afc1b9a21e16a1783159175f62349e940b6e910f",
    "strings/rank.txt": "ca9a79b62e6439d716b6a36451ae715d3d4c4b5c9afb28d0b6f11264cab9832b",
    "strings/rank-abs.txt": "ca9a79b62e6439d716b6a36451ae715d3d4c4b5c9afb28d0b6f11264cab9832b",
    "strings/rank-name.txt": "ca9a79b62e6439d716b6a36451ae715d3d4c4b5c9afb28d0b6f11264cab9832b",
    "table/rank.txt": "8c3ac7f329a196f6402d3a7324b6190cc9b2b6a27fd2524a48fc3e24347b9ba5",
    "table/rank-abs.txt": "8c3ac7f329a196f6402d3a7324b6190cc9b2b6a27fd2524a48fc3e24347b9ba5",
    "table/rank-name.txt": "8c3ac7f329a196f6402d3a7324b6190cc9b2b6a27fd2524a48fc3e24347b9ba5",
    "many-record/rank.txt": "4c78a20935acd19f41f94b302390a3e4b1e9d5161f9ff6ed6f497548958e5ca5",
    "many-record/rank-abs.txt": "a15b3552d202492f382ddc18b56a229b5de61bdc425db1a9b200aa0cead34607",
    "many-record/rank-name.txt": "1c1aba521f1c6493ad9d88ab9f641ecdfca3e79a7d748cf86887b9d72d9aaacc",
}

RANK_FLAGS = {"rank.txt": [], "rank-abs.txt": ["--by", "abs"], "rank-name.txt": ["--tie-break", "name"]}


def rank_texts(verdict, prefix, path, capsysbinary):
    path.write_bytes(verdict)
    for name, flags in RANK_FLAGS.items():
        assert main(["rank", str(path), *flags]) == 0
        yield prefix + name, capsysbinary.readouterr().out


def test_rank_text_matches_recorded_digests(tmp_path, capsysbinary):
    got = {}
    path = tmp_path / "pinned.verdict.json"
    for name, data in outputs(tmp_path, capsysbinary):
        if name.endswith("/verdict.json"):
            for text_name, text in rank_texts(data, name[: -len("verdict.json")], path, capsysbinary):
                got[text_name] = hashlib.sha256(text).hexdigest()
    verdict = dict(many_record_outputs(tmp_path, capsysbinary))["verdict.json"]
    for text_name, text in rank_texts(verdict, "many-record/", path, capsysbinary):
        got[text_name] = hashlib.sha256(text).hexdigest()
    table = "".join(f'\n    "{name}": "{digest}",' for name, digest in got.items())
    assert got == RANK_TEXT_DIGESTS, f"outputs differ from the recorded bytes; new table:{table}"


# ``show`` text of each built-in run report, with and without the per-thread
# table. It shows every phase's merged numbers, so it stays fixed while the
# report's document form changes.
SHOW_TEXT_DIGESTS = {
    "buffers/baseline.show.txt": "e1f42dc4fd1c9e17ffb8b65642121ee6fff559b5c9d99cfb35616a456f61d731",
    "buffers/baseline.show-per-thread.txt": "84c54eb96d773e56aabbeabd3ffdc01b75a15a96c72d723c695d9f066ece257f",
    "buffers/regressed.show.txt": "8aec41a14de2f4eabf8100a5d4e47669314f6c534b1c70cf49cc9a016beabdb8",
    "buffers/regressed.show-per-thread.txt": "d43c0b7ece0a9fe3f9d814c459c47fb53e4d82af0a1e16b3b8dee127054d04f6",
    "multithread/baseline.show.txt": "57e3262085f4b81c41f2c9d62cc39c4b013a321bbffd3fe2622593c2bc5448a5",
    "multithread/baseline.show-per-thread.txt": "d1504e7fdcec37b70e8362c44034e01bfec9604820402192394733590343fe18",
    "multithread/regressed.show.txt": "0e0519584d65d0dba8e57e172721c68dbfd80e7cf92cac2090dbcc9850abc303",
    "multithread/regressed.show-per-thread.txt": "171901941be2a0ae64b219db705ce00c1c013a5ece184bdb5479d8e73a27ef4f",
    "strings/baseline.show.txt": "80d8affafd65dbe21343052853263fef50ca9c3a25204374511e87329fb2e120",
    "strings/baseline.show-per-thread.txt": "8084991e8ed2a561348be6a6192a4cd27f20eb6ec7484812b735b444024df569",
    "strings/regressed.show.txt": "d31fbc2c5483e54f7fb3328d638a2bc6ce37de8d2ff51f615e75f699272de12d",
    "strings/regressed.show-per-thread.txt": "58b0b30531df44de701f5d019ac794994ada99b051798876613a6f7933a400f1",
    "table/baseline.show.txt": "dddaf09ed1182ec16c42e9e3155333f4c659a0e31c007beb793116d4f3f31963",
    "table/baseline.show-per-thread.txt": "8d0b648549799ca89b90384bc960a6cf9c2974b273c778d9e480f8896d858824",
    "table/regressed.show.txt": "5e73874fd0530b9cdaf4f90a550ed5f946ab5ee62ccbcb0cfb10d13a66f520cb",
    "table/regressed.show-per-thread.txt": "80c30b0e5346319e51338e5617489a61d1bd292b4f402f17aa676a087d2b4633",
}

SHOW_FLAGS = {"show.txt": [], "show-per-thread.txt": ["--per-thread"]}


def test_show_text_matches_recorded_digests(tmp_path, capsysbinary):
    got = {}
    path = tmp_path / "pinned.churn.json"
    for name, data in outputs(tmp_path, capsysbinary):
        if name.endswith(".churn.json"):
            path.write_bytes(data)
            for text_name, flags in SHOW_FLAGS.items():
                assert main(["show", str(path), *flags]) == 0
                text = capsysbinary.readouterr().out
                got[name[: -len("churn.json")] + text_name] = hashlib.sha256(text).hexdigest()
    table = "".join(f'\n    "{name}": "{digest}",' for name, digest in got.items())
    assert got == SHOW_TEXT_DIGESTS, f"outputs differ from the recorded bytes; new table:{table}"
