"""Run the test functions of ``test_byte_identity.py`` without pytest.

    python3 tests/run_byte_identity.py

Run it from anywhere, on any Python the package supports; it needs only the
standard library and imports churnscope from the checkout's ``src``. It
stands in for the two pytest fixtures the tests take: ``tmp_path`` is a
fresh temporary directory per test, and ``capsysbinary`` captures
``sys.stdout`` and ``sys.stderr`` as bytes. It prints one line per test and
exits 1 if any test fails.
"""

from __future__ import annotations

import inspect
import io
import platform
import sys
import tempfile
import traceback
from pathlib import Path
from typing import NamedTuple

TESTS = Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

import test_byte_identity  # noqa: E402


class CaptureResult(NamedTuple):
    out: bytes
    err: bytes


def _stream() -> io.TextIOWrapper:
    # Text and ``.buffer`` writes land in one byte buffer, in the order made.
    return io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="\n", write_through=True)


def _take(stream: io.TextIOWrapper) -> bytes:
    stream.flush()
    buffer = stream.buffer
    data = buffer.getvalue()
    buffer.seek(0)
    buffer.truncate()
    return data


class CaptureBinary:
    """Stand-in for pytest's ``capsysbinary``: captures from construction until ``close``."""

    def __init__(self) -> None:
        self._saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = self._out, self._err = _stream(), _stream()

    def readouterr(self) -> CaptureResult:
        return CaptureResult(_take(self._out), _take(self._err))

    def close(self) -> None:
        sys.stdout, sys.stderr = self._saved


def run(name: str, test) -> bool:
    """Run one test with its fixtures; report a failure's traceback on stderr."""
    wanted = set(inspect.signature(test).parameters)
    unknown = wanted - {"tmp_path", "capsysbinary"}
    if unknown:
        print(f"{name}: no stand-in for fixture(s) {sorted(unknown)}", file=sys.stderr)
        return False
    with tempfile.TemporaryDirectory() as tmp:
        fixtures = {"tmp_path": Path(tmp)}
        if "capsysbinary" in wanted:
            fixtures["capsysbinary"] = CaptureBinary()
        try:
            test(**{key: fixtures[key] for key in wanted})
        except Exception:
            failure = traceback.format_exc()
        else:
            failure = None
        finally:
            if "capsysbinary" in fixtures:
                fixtures["capsysbinary"].close()
    if failure:
        print(failure, file=sys.stderr)
    return failure is None


def main() -> int:
    if not __debug__:
        print("the tests check with assert: run without -O", file=sys.stderr)
        return 2
    tests = [(name, fn) for name, fn in inspect.getmembers(test_byte_identity, inspect.isfunction)
             if name.startswith("test_")]
    failed = 0
    for name, test in tests:
        ok = run(name, test)
        failed += not ok
        print(f"{'PASS' if ok else 'FAIL'} {name}", flush=True)
    print(f"{len(tests) - failed} passed, {failed} failed on Python {platform.python_version()}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
