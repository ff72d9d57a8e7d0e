"""Mutation fuzzing of a golden report and a golden verdict.

Every mutant must either raise ReportError or parse to something that
re-serializes to canonical bytes: serializing it again after a second parse
changes nothing. Any other exception is a parser bug. Runs are derandomized
and bounded so the suite stays deterministic and fast.
"""

import json
import re
import string
from decimal import Decimal

import pytest

from churnscope import (
    ReportError,
    diff_reports,
    parse_report,
    parse_verdict,
    serialize_report,
    serialize_verdict,
)

from factories import report_with_units
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


class Raw(str):
    """A JSON token written verbatim, so mutants can hold any number literal."""


NUMBER_LITERALS = [
    "0", "-0", "-1", "0.000001", "-0.000000", "19.999999", "20.000001", "2e1", "1E+6",
    "1e-7", "0.0000005", "1e400", "-1e400", "1e-400", "1e99999999999999999999",
    "123456789012345678901234567890.123456", "1" + "0" * 400, "9" * 30 + ".5",
]

number_literals = st.sampled_from(NUMBER_LITERALS) | st.from_regex(
    r"-?(0|[1-9][0-9]{0,25})(\.[0-9]{1,9})?([eE][+-]?[0-9]{1,22})?", fullmatch=True
)

values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | number_literals.map(Raw)
    | st.text(string.ascii_letters + "_/.", max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def dump(value):
    if isinstance(value, Raw):
        return str(value)
    if isinstance(value, Decimal):
        return str(value)
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {dump(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(dump(v) for v in value) + "]"
    return json.dumps(value)


def paths(value, prefix=()):
    yield prefix
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from paths(child, prefix + (key,))


@st.composite
def structural_mutants(draw, golden):
    doc = json.loads(golden, parse_float=Decimal)
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
        parent[draw(st.text(max_size=4))] = parent[path[-1]]
    return dump(doc)


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


def assert_rejected_or_canonical(parse, serialize, data):
    try:
        parsed = parse(data)
    except ReportError:
        return
    out = serialize(parsed)
    assert serialize(parse(out)) == out


@FUZZ
@given(structural_mutants(GOLDEN) | number_mutants(GOLDEN) | byte_mutants(GOLDEN))
def test_report_mutants_are_rejected_or_canonical(data):
    assert_rejected_or_canonical(parse_report, serialize_report, data)


@FUZZ
@given(
    structural_mutants(GOLDEN_VERDICT)
    | number_mutants(GOLDEN_VERDICT)
    | byte_mutants(GOLDEN_VERDICT)
)
def test_verdict_mutants_are_rejected_or_canonical(data):
    assert_rejected_or_canonical(parse_verdict, serialize_verdict, data)


def test_goldens_are_canonical():
    assert serialize_report(parse_report(GOLDEN)) == GOLDEN.encode()
    assert serialize_verdict(parse_verdict(GOLDEN_VERDICT)) == GOLDEN_VERDICT.encode()
