"""Deterministic synthetic allocation workloads.

Each workload drives the interception surface through a fixed sequence of
allocator calls under named marker phases. Sizes come from an in-repo
splitmix-style 64-bit generator, never the platform RNG, so the same spec
always produces the same event stream on any machine. Every workload frees
everything it allocates.

Regressed variants add extra allocations to one designed phase and change
nothing else, so a baseline-vs-regressed diff must flag exactly that phase.
"""

from __future__ import annotations

import threading
from collections import namedtuple
from typing import Callable

from .errors import WorkloadError
from .markers import begin_marker, end_marker, marker
from .recorder import TracingAllocator
from .report import ChurnReport
from .session import RecordingSession

MASK64 = (1 << 64) - 1

BASELINE = "baseline"
REGRESSED = "regressed"
VARIANTS = (BASELINE, REGRESSED)


class SplitMix64:
    """64-bit mixing generator; constants below define the sequence."""

    GAMMA = 0x9E3779B97F4A7C15
    MIX1 = 0xBF58476D1CE4E5B9
    MIX2 = 0x94D049BB133111EB

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + self.GAMMA) & MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * self.MIX1) & MASK64
        z = ((z ^ (z >> 27)) * self.MIX2) & MASK64
        return z ^ (z >> 31)

    def randrange(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi)."""
        if hi <= lo:
            raise ValueError("empty range")
        return lo + self.next_u64() % (hi - lo)


class WorkloadSpec(namedtuple("WorkloadSpec", ("name", "seed", "scale", "variant"), defaults=(1, 1, BASELINE))):
    """Fully determines one workload run: (name, seed, scale, variant)."""

    __slots__ = ()

    name: str
    seed: int
    scale: int
    variant: str


def _run_strings(spec: WorkloadSpec, session: RecordingSession) -> None:
    """Grow-and-free byte-buffer formatting. Phases: build, format."""
    rec = session.recorder("main")
    heap = TracingAllocator(rec)
    rng = SplitMix64(spec.seed)
    regressed = spec.variant == REGRESSED
    for _ in range(spec.scale):
        with marker(rec, "build"):
            cap = 32 << rng.randrange(0, 3)
            buf = heap.malloc(cap)
            for _ in range(3):
                cap *= 2
                buf = heap.realloc(buf, cap)
            heap.free(buf)
        with marker(rec, "format"):
            width = 64 + rng.randrange(0, 192)
            out = heap.malloc(width)
            out = heap.realloc(out, width * 2)
            pieces = heap.calloc(8, 16)
            heap.free(pieces)
            heap.free(out)
            if regressed:
                for _ in range(2):
                    scratch = heap.malloc(width * 4)
                    heap.free(scratch)


def _run_table(spec: WorkloadSpec, session: RecordingSession) -> None:
    """Insert/erase churn with reallocation bursts. Phases: fill, rehash, drain."""
    rec = session.recorder("main")
    heap = TracingAllocator(rec)
    rng = SplitMix64(spec.seed)
    regressed = spec.variant == REGRESSED
    for _ in range(spec.scale):
        nodes = []
        with marker(rec, "fill"):
            buckets = heap.calloc(16, 8)
            for _ in range(24):
                nodes.append(heap.malloc(24 + rng.randrange(0, 40)))
        with marker(rec, "rehash"):
            cap = 16
            for _ in range(3):
                cap *= 2
                buckets = heap.realloc(buckets, cap * 8)
            if regressed:
                shadow = heap.calloc(cap, 8)
                heap.free(shadow)
        with marker(rec, "drain"):
            for node in nodes:
                heap.free(node)
            heap.free(buckets)


def _run_buffers(spec: WorkloadSpec, session: RecordingSession) -> None:
    """Large-block image-like cycles. Phases: decode, transform."""
    rec = session.recorder("main")
    heap = TracingAllocator(rec)
    rng = SplitMix64(spec.seed)
    regressed = spec.variant == REGRESSED
    for _ in range(spec.scale):
        with marker(rec, "decode"):
            side = 256 << rng.randrange(0, 3)
            pixels = side * side
            image = heap.calloc(pixels, 4)
            header = heap.malloc(4096)
        with marker(rec, "transform"):
            plane = heap.malloc(pixels)
            heap.free(plane)
            if regressed:
                copy = heap.malloc(pixels * 4)
                heap.free(copy)
            heap.free(header)
            heap.free(image)


def _run_multithread(spec: WorkloadSpec, session: RecordingSession) -> None:
    """One main-phase thread plus two workers with overlapping phases.

    Worker phases "sync" and "cache" partially overlap on one thread;
    "render" runs on the other. Each thread draws sizes from its own
    generator and frees its own blocks, so merged per-phase results do not
    depend on how the OS interleaves the threads.
    """
    seeds = SplitMix64(spec.seed)
    main_seed = seeds.next_u64()
    sync_seed = seeds.next_u64()
    render_seed = seeds.next_u64()
    regressed = spec.variant == REGRESSED

    def sync_cache_worker() -> None:
        rec = session.recorder("worker-0")
        heap = TracingAllocator(rec)
        rng = SplitMix64(sync_seed)
        for _ in range(spec.scale):
            sync = begin_marker(rec, "sync")
            feed = heap.malloc(512 + rng.randrange(0, 512))
            cache = begin_marker(rec, "cache")
            entry = heap.calloc(32, 64)
            end_marker(sync)
            blob = heap.malloc(2048)
            end_marker(cache)
            heap.free(feed)
            heap.free(entry)
            heap.free(blob)
        rec.seal()

    def render_worker() -> None:
        rec = session.recorder("worker-1")
        heap = TracingAllocator(rec)
        rng = SplitMix64(render_seed)
        for _ in range(spec.scale):
            with marker(rec, "render"):
                surface = heap.calloc(4096, 4)
                glyphs = heap.malloc(256 + rng.randrange(0, 256))
                if regressed:
                    overdraw = heap.malloc(8192)
                    heap.free(overdraw)
                heap.free(glyphs)
                heap.free(surface)
        rec.seal()

    workers = [
        threading.Thread(target=sync_cache_worker, name="churnscope-worker-0"),
        threading.Thread(target=render_worker, name="churnscope-worker-1"),
    ]
    for worker in workers:
        worker.start()
    rec = session.recorder("main")
    heap = TracingAllocator(rec)
    rng = SplitMix64(main_seed)
    with marker(rec, "startup"):
        modules = [heap.malloc(128 + rng.randrange(0, 128)) for _ in range(8 * spec.scale)]
        for module in modules:
            heap.free(module)
    for worker in workers:
        worker.join()


class Workload(namedtuple("Workload", ("phases", "run", "regressed_phase"))):
    """A built-in workload: its phase names, the function that drives it, and
    the one phase its regressed variant adds allocations to."""

    __slots__ = ()

    phases: tuple[str, ...]
    run: Callable[[WorkloadSpec, RecordingSession], None]
    regressed_phase: str


WORKLOADS: dict[str, Workload] = {
    "strings": Workload(("build", "format"), _run_strings, "format"),
    "table": Workload(("fill", "rehash", "drain"), _run_table, "rehash"),
    "buffers": Workload(("decode", "transform"), _run_buffers, "transform"),
    "multithread": Workload(("startup", "sync", "cache", "render"), _run_multithread, "render"),
}


def workload_names() -> list[str]:
    return sorted(WORKLOADS)


def run_workload(spec: WorkloadSpec, session: RecordingSession) -> ChurnReport:
    """Execute a workload in the session, seal it, and return its report.

    Two runs with an equal spec produce canonically identical reports apart
    from the session's build_id/created_at metadata.
    """
    if spec.name not in WORKLOADS:
        raise WorkloadError(
            f"unknown workload {spec.name!r}; choices: {', '.join(workload_names())}"
        )
    if not isinstance(spec.scale, int) or spec.scale < 1:
        raise WorkloadError(f"scale must be a positive integer, got {spec.scale!r}")
    if spec.variant not in VARIANTS:
        raise WorkloadError(f"variant must be one of {VARIANTS}, got {spec.variant!r}")
    if not isinstance(spec.seed, int) or not 0 <= spec.seed <= MASK64:
        raise WorkloadError(f"seed must be a 64-bit unsigned integer, got {spec.seed!r}")
    WORKLOADS[spec.name].run(spec, session)
    session.seal_all()
    return session.build_report()
