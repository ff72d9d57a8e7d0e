"""Mutation fuzzing of a golden report and a golden verdict.

The reader accepts a document only in the canonical bytes its writer gives,
so every mutant must either raise ReportError or parse to something that
serializes back to exactly the mutant's bytes. Any other exception is a
parser bug. A refusal that names a byte offset must name one where the
mutant has already departed from the golden. Structural mutants are laid out
canonically, so that they reach the rules rather than stop at the layout.
Runs are derandomized and bounded so the suite stays deterministic and fast.
"""

import json
import re
import string

import pytest

from churnscope import (
    RecordingSession,
    ReportError,
    WorkloadSpec,
    diff_reports,
    parse_report,
    parse_verdict,
    run_workload,
    serialize_report,
    serialize_verdict,
)

from factories import Literal, canonical_json, first_difference, report_with_units
from test_report import GOLDEN

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

GOLDEN_VERDICT = serialize_verdict(
    diff_reports(
        report_with_units({"a": 10, "b": 2, "gone": 1}),
        report_with_units({"a": 12, "b": 2, "fresh": 3}),
    )
).decode()

FUZZ = settings(
    derandomize=True,
    database=None,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


NUMBER_LITERALS = [
    "0", "-0", "-1", "0.000001", "-0.000000", "19.999999", "20.000001", "2e1", "1E+6",
    "1e-7", "0.0000005", "1e400", "-1e400", "1e-400", "1e99999999999999999999",
    "123456789012345678901234567890.123456", "1" + "0" * 400, "9" * 30 + ".5",
]

number_literals = st.sampled_from(NUMBER_LITERALS) | st.from_regex(
    r"-?(0|[1-9][0-9]{0,25})(\.[0-9]{1,9})?([eE][+-]?[0-9]{1,22})?", fullmatch=True
)

# Private-use characters are canonical_json's placeholders, so no key holds one.
keys = st.text(st.characters(exclude_categories=("Cs", "Co")), max_size=4)

values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | number_literals.map(Literal)
    | st.text(string.ascii_letters + "_/.", max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(keys, inner, max_size=3),
    max_leaves=6,
)


def paths(value, prefix=()):
    yield prefix
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from paths(child, prefix + (key,))


@st.composite
def structural_mutants(draw, golden):
    doc = json.loads(golden, parse_float=Literal)
    path = draw(st.sampled_from(list(paths(doc))[1:]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    action = draw(st.sampled_from(["replace", "delete", "duplicate"]))
    if action == "replace":
        parent[path[-1]] = draw(values)
    elif action == "delete":
        del parent[path[-1]]
    elif isinstance(parent, list):
        parent.insert(path[-1], parent[path[-1]])
    else:
        parent[draw(keys)] = parent[path[-1]]
    return canonical_json(doc)


@st.composite
def number_mutants(draw, golden):
    """Swap one number in the document for another literal."""
    match = draw(st.sampled_from(list(re.finditer(r"-?[0-9][0-9.eE+-]*", golden))))
    return golden[: match.start()] + draw(number_literals) + golden[match.end():]


@st.composite
def byte_mutants(draw, golden):
    text = golden
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        piece = draw(st.text('0123456789.eE+-"{}[],: \\tfnul', max_size=3))
        cut = draw(st.integers(0, 3))
        text = text[:i] + piece + text[i + cut:]
    return text


# A verdict's statuses and flag are recomputed, and a refusal names the slot that disagrees.
_RECOMPUTED = re.compile(r"(deltas\[[0-9]+\] field 'status'|verdict field 'regression_detected') ")


def assert_rejected_or_canonical(read, serialize, data, golden):
    """``read`` refuses ``data`` or returns what writes back as ``data``.

    A refusal with an offset names a byte of ``data`` (or its end), at or
    after the start of the line where ``data`` first departs from
    ``golden``. The one exception is a recomputed status or flag: it is named
    at its own slot, which an edit further on, to a threshold, can make wrong.
    """
    raw = data if isinstance(data, bytes) else data.encode("utf-8")
    try:
        parsed = read(data)
    except ReportError as exc:
        at = exc.offset
        if at is not None:
            assert 0 <= at <= len(raw), str(exc)
            if _RECOMPUTED.match(str(exc)):
                assert re.match(rb'"(status|regression_detected)": ', raw[raw.rfind(b"\n", 0, at) + 1:].lstrip())
            else:
                edit = first_difference(raw, golden.encode("utf-8"))
                assert at >= raw.rfind(b"\n", 0, edit) + 1, str(exc)
    else:
        assert serialize(parsed) == raw


@FUZZ
@given(structural_mutants(GOLDEN) | number_mutants(GOLDEN) | byte_mutants(GOLDEN))
def test_report_mutants_are_rejected_or_canonical(data):
    assert_rejected_or_canonical(parse_report, serialize_report, data, GOLDEN)


@FUZZ
@given(
    structural_mutants(GOLDEN_VERDICT)
    | number_mutants(GOLDEN_VERDICT)
    | byte_mutants(GOLDEN_VERDICT)
)
def test_verdict_mutants_are_rejected_or_canonical(data):
    assert_rejected_or_canonical(parse_verdict, serialize_verdict, data, GOLDEN_VERDICT)


def test_goldens_are_canonical():
    assert serialize_report(parse_report(GOLDEN)) == GOLDEN.encode()
    assert serialize_verdict(parse_verdict(GOLDEN_VERDICT)) == GOLDEN_VERDICT.encode()


# A report with several threads, for the permutation below.
THREADED = serialize_report(run_workload(
    WorkloadSpec("multithread", seed=1, scale=1), RecordingSession(build_id="b", created_at="2026-01-01T00:00:00Z")
)).decode()


_SIMPLE_LINE = re.compile(r'( *)"[a-z_]+": [^{\[]*,')


def _swap_first_sibling_lines(text):
    """Swap the first two adjacent ``"key": value,`` lines at one indentation."""
    lines = text.split("\n")
    for i in range(len(lines) - 1):
        a, b = _SIMPLE_LINE.fullmatch(lines[i]), _SIMPLE_LINE.fullmatch(lines[i + 1])
        if a and b and a[1] == b[1]:
            lines[i], lines[i + 1] = lines[i + 1], lines[i]
            return "\n".join(lines)
    raise AssertionError("no sibling lines to swap")


def _duplicate_first_key(text):
    line = next(m[0] for m in map(_SIMPLE_LINE.fullmatch, text.split("\n")) if m)
    return text.replace(line, line + "\n" + line, 1)


def _permute_threads(text):
    doc = json.loads(text, parse_float=Literal)
    doc["threads"].reverse()
    return canonical_json(doc).decode()


LAYOUT_MUTANTS = {
    "re-indented": lambda text: text.replace("  ", "\t"),
    "flattened": lambda text: "\n".join(line.strip() for line in text.split("\n")),
    "keys-swapped": _swap_first_sibling_lines,
    "escaped-letter": lambda text: text.replace('"calloc"', '"c\\u0061lloc"', 1),
    "exponent-cost": lambda text: re.sub(r'("cost": )([0-9.]+)', lambda m: m[1] + f"{float(m[2]):.17e}", text, count=1),
    "duplicated-key": _duplicate_first_key,
    "trailing-space": lambda text: text + " ",
}


@pytest.mark.parametrize("mutate", LAYOUT_MUTANTS.values(), ids=LAYOUT_MUTANTS.keys())
@pytest.mark.parametrize(
    "golden, parse", [(GOLDEN, parse_report), (GOLDEN_VERDICT, parse_verdict), (THREADED, parse_report)],
    ids=["report", "verdict", "threaded-report"],
)
def test_layout_mutants_name_the_first_differing_byte(golden, parse, mutate):
    # Each mutant means what the golden means, in other bytes. The error names
    # a byte on the line of the first edit: the first differing byte, or, for
    # a cost spelled otherwise (read as 0), the start of that literal.
    mutant = mutate(golden)
    assert mutant != golden and json.loads(mutant) == json.loads(golden)
    with pytest.raises(ReportError) as excinfo:
        parse(mutant)
    offset, data = excinfo.value.offset, mutant.encode()
    edit = first_difference(data, golden.encode())
    assert offset <= edit and b"\n" not in data[offset:edit]
    assert f" is not in canonical form at byte {offset}: " in str(excinfo.value)


def test_permuted_threads_are_rejected():
    mutant = _permute_threads(THREADED)
    assert mutant != THREADED and len(json.loads(mutant)["threads"]) > 2
    with pytest.raises(ReportError, match=r"^threads\[1\] is out of order"):
        parse_report(mutant)
