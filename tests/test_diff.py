import json
import math
import random
import sys
from decimal import Decimal

import pytest

from churnscope import (
    AllocFnKind,
    CostModel,
    ModelMismatchError,
    ReportError,
    Thresholds,
    diff_reports,
    parse_report,
    parse_verdict,
    rank_regressions,
    serialize_report,
    serialize_verdict,
)
from churnscope.report import (
    STATUS_IMPROVEMENT,
    STATUS_NEUTRAL,
    STATUS_NEW_PHASE,
    STATUS_REGRESSION,
    STATUS_REMOVED_PHASE,
    ChurnDelta,
    MarkerChurn,
    RegressionVerdict,
    _classify,
    _compare,
    _limits,
)

from factories import Literal, canonical_json, first_difference, report_with_units


def phase_costs(doc):
    """Each phase's cost: the exact sum of the costs of its thread records."""
    costs = {}
    for record in doc["threads"]:
        costs[record["name"]] = costs.get(record["name"], 0) + record["cost"]
    return costs


def oracle_statuses(baseline_doc, candidate_doc, rel=Decimal("0.01"), floor=Decimal(1)):
    """Recompute per-phase statuses from the raw documents (see ``docs``) with exact decimal arithmetic."""
    base, cand = phase_costs(baseline_doc), phase_costs(candidate_doc)
    out = {}
    for phase in set(base) | set(cand):
        if phase not in base:
            out[phase] = STATUS_NEW_PHASE
        elif phase not in cand:
            out[phase] = STATUS_REMOVED_PHASE
        else:
            b, c = base[phase], cand[phase]
            if (b > 0 and c > b * (1 + rel)) or (b == 0 and c > floor):
                out[phase] = STATUS_REGRESSION
            elif (c > 0 and b > c * (1 + rel)) or (c == 0 and b > floor):
                out[phase] = STATUS_IMPROVEMENT
            else:
                out[phase] = STATUS_NEUTRAL
    return out


def docs(report):
    """A report as a document whose costs are exact decimals."""
    return json.loads(serialize_report(report), parse_float=Decimal)


def literal_doc(report):
    """A report as a document to edit, each cost and weight literal kept as written."""
    return json.loads(serialize_report(report), parse_float=Literal)


def test_identical_reports_all_neutral():
    report = report_with_units({"a": 3, "b": 7})
    verdict = diff_reports(report, report)
    assert not verdict.regression_detected
    assert all(d.status == STATUS_NEUTRAL for d in verdict.deltas)
    assert all(d.cost_delta_micro == 0 for d in verdict.deltas)
    assert all(d.cost_delta_rel == 0.0 for d in verdict.deltas)


def test_ten_percent_growth_is_regression():
    baseline = report_with_units({"hot": 10})  # cost 100
    candidate = report_with_units({"hot": 11})  # cost 110
    verdict = diff_reports(baseline, candidate)
    (delta,) = verdict.deltas
    assert delta.status == STATUS_REGRESSION
    assert delta.cost_delta_rel == pytest.approx(0.10, abs=1e-9)
    assert delta.cost_delta_micro == 10_000_000
    assert verdict.regression_detected
    assert oracle_statuses(docs(baseline), docs(candidate)) == {"hot": STATUS_REGRESSION}


def test_growth_below_threshold_is_neutral():
    baseline = report_with_units({"hot": 1000})
    candidate = report_with_units({"hot": 1005})  # +0.5% < 1%
    verdict = diff_reports(baseline, candidate)
    assert verdict.deltas[0].status == STATUS_NEUTRAL
    assert not verdict.regression_detected


EXACT_PERCENT = [(base, base + base // 100) for base in range(100, 2000, 100)]  # 19 pairs, growth exactly 1%


@pytest.mark.parametrize("base, cand", EXACT_PERCENT, ids=lambda n: str(n))
def test_growth_of_exactly_rel_is_neutral_and_one_micro_unit_more_is_not(base, cand):
    # A phase regresses when it grows by more than rel, in exact integers.
    limits = _limits(Thresholds())
    assert _classify(base, cand, 0, limits) == _classify(cand, base, 0, limits) == STATUS_NEUTRAL
    assert _classify(base, cand + 1, 0, limits) == STATUS_REGRESSION
    assert _classify(cand + 1, base, 0, limits) == STATUS_IMPROVEMENT


@pytest.mark.parametrize("rel", [0.5, 0.123457, 7, sys.float_info.max], ids=["0.5", "0.123457", "7", "float-max"])
def test_the_gate_compares_the_six_decimals_a_verdict_writes(rel):
    th = Thresholds(rel=rel, abs_floor=rel)
    written = json.loads(serialize_verdict(RegressionVerdict(th, [])), parse_float=Literal)["thresholds"]
    rel_micro = abs_micro = int(written["rel"].replace(".", ""))  # the literal's digits are its micro-units
    assert written["abs_floor"] == written["rel"]
    base = 10**6
    cand = base + rel_micro  # base is one cost unit, so this is growth of exactly rel
    limits = _limits(th)
    assert _classify(base, cand, 0, limits) == _classify(cand, base, 0, limits) == STATUS_NEUTRAL
    assert _classify(base, cand + 1, 0, limits) == STATUS_REGRESSION
    assert _classify(cand + 1, base, 0, limits) == STATUS_IMPROVEMENT
    assert _classify(0, abs_micro, 0, limits) == _classify(abs_micro, 0, 0, limits) == STATUS_NEUTRAL
    assert _classify(0, abs_micro + 1, 0, limits) == STATUS_REGRESSION
    assert _classify(abs_micro + 1, 0, 0, limits) == STATUS_IMPROVEMENT


def test_growth_of_exactly_rel_passes_the_gate_and_a_verdict_that_flagged_it_is_refused():
    doc = literal_doc(report_with_units({"p": 0}))
    record = doc["threads"][0]
    record.update(cost=100.0, bytes_allocated=2)
    record["calls"]["malloc"] = 1
    base = parse_report(canonical_json(doc))
    record["cost"] = 101.0  # +1%, not more than the default 1%
    cand = parse_report(canonical_json(doc))
    verdict = diff_reports(base, cand)
    assert verdict.deltas[0].status == diff_reports(cand, base).deltas[0].status == STATUS_NEUTRAL
    # As an earlier version wrote it: parse_verdict recomputes the status.
    data = serialize_verdict(verdict)
    flagged = serialize_verdict(verdict._replace(deltas=[verdict.deltas[0]._replace(status=STATUS_REGRESSION)]))
    assert _rejected_at(flagged, "deltas[0]", "status") == first_difference(flagged, data) - 1


def test_phase_only_in_candidate_is_new_phase():
    baseline = report_with_units({"a": 1})
    candidate = report_with_units({"a": 1, "fresh": 1})
    verdict = diff_reports(baseline, candidate)
    by_phase = {d.phase: d for d in verdict.deltas}
    assert by_phase["fresh"].status == STATUS_NEW_PHASE
    assert by_phase["fresh"].baseline is None
    assert by_phase["fresh"].cost_delta_rel is None
    assert not verdict.regression_detected  # new phases inform, they do not gate


def test_phase_only_in_baseline_is_removed_phase():
    baseline = report_with_units({"a": 1, "gone": 2})
    candidate = report_with_units({"a": 1})
    verdict = diff_reports(baseline, candidate)
    by_phase = {d.phase: d for d in verdict.deltas}
    assert by_phase["gone"].status == STATUS_REMOVED_PHASE
    assert by_phase["gone"].candidate is None


def test_zero_baseline_regresses_only_above_floor():
    baseline = report_with_units({"idle": 0, "a": 1})
    small = report_with_units({"idle": 0, "a": 1})
    # hand the candidate a sub-floor cost by editing the document
    doc = literal_doc(small)
    doc["threads"][1 if doc["threads"][0]["name"] == "a" else 0].update(
        {"cost": 0.9, "calls": {"calloc": 0, "free": 0, "malloc": 1, "realloc": 0},
         "bytes_allocated": 2}
    )
    small = parse_report(canonical_json(doc))
    verdict = diff_reports(baseline, small)
    assert {d.phase: d.status for d in verdict.deltas}["idle"] == STATUS_NEUTRAL

    grown = report_with_units({"idle": 2, "a": 1})  # cost 20 > floor
    verdict = diff_reports(baseline, grown)
    delta = {d.phase: d for d in verdict.deltas}["idle"]
    assert delta.status == STATUS_REGRESSION
    assert delta.cost_delta_rel is None
    assert verdict.deltas[0].phase == "idle"  # undefined rel ranks first


def test_model_mismatch_rejected():
    baseline = report_with_units({"a": 1})
    doubled = CostModel({k: w * 2.0 for k, w in CostModel().weights.items()}, "doubled")
    scaled = report_with_units({"a": 1}, model=doubled)
    with pytest.raises(ModelMismatchError):
        diff_reports(baseline, scaled)


def test_antisymmetry_on_random_reports():
    rng = random.Random(6001)
    for _ in range(40):
        phases = {f"p{i}": rng.randrange(0, 30) for i in range(rng.randrange(1, 8))}
        tweaked = {
            name: max(0, units + rng.randrange(-5, 6)) for name, units in phases.items()
        }
        a = report_with_units(phases)
        b = report_with_units(tweaked)
        forward = {d.phase: d.status for d in diff_reports(a, b).deltas}
        backward = {d.phase: d.status for d in diff_reports(b, a).deltas}
        for phase, status in forward.items():
            if status == STATUS_REGRESSION:
                assert backward[phase] == STATUS_IMPROVEMENT
            elif status == STATUS_IMPROVEMENT:
                assert backward[phase] == STATUS_REGRESSION
            elif status == STATUS_NEUTRAL:
                assert backward[phase] == STATUS_NEUTRAL


def test_statuses_match_oracle_on_random_reports():
    rng = random.Random(6002)
    for _ in range(30):
        a = report_with_units({f"p{i}": rng.randrange(0, 20) for i in range(5)})
        b = report_with_units({f"p{i}": rng.randrange(0, 20) for i in range(5)})
        verdict = diff_reports(a, b)
        expected = oracle_statuses(docs(a), docs(b))
        assert {d.phase: d.status for d in verdict.deltas} == expected


def test_call_floor_flags_call_growth():
    baseline = report_with_units({"a": 5})
    candidate = report_with_units({"a": 5})
    # same cost, but the option considers call deltas
    verdict = diff_reports(baseline, candidate, Thresholds(call_floor=0))
    assert verdict.deltas[0].status == STATUS_NEUTRAL

    grown = report_with_units({"a": 7})
    verdict = diff_reports(baseline, grown, Thresholds(rel=10.0, call_floor=1))
    assert verdict.deltas[0].status == STATUS_REGRESSION  # 2 extra calls > 1


def _reference_row(base, cand, th):
    """A reference for one row: its status and deltas by plain arithmetic on
    the two records, call counts kind by kind, a missing side counting as 0."""
    base_cost = base.cost_micro if base else 0
    cand_cost = cand.cost_micro if cand else 0
    call_delta = {kind: (cand.calls[kind] if cand else 0) - (base.calls[kind] if base else 0) for kind in AllocFnKind}
    rel = None
    if base is None:
        status = STATUS_NEW_PHASE
    elif cand is None:
        status = STATUS_REMOVED_PHASE
    else:
        status = _classify(base_cost, cand_cost, sum(call_delta.values()), _limits(th))
        rel = cand_cost / base_cost - 1 if base_cost > 0 else None
    allocated = (cand.bytes_allocated if cand else 0) - (base.bytes_allocated if base else 0)
    freed = (cand.bytes_freed if cand else 0) - (base.bytes_freed if base else 0)
    return status, cand_cost - base_cost, rel, abs(allocated) + abs(freed)


def test_computed_deltas_match_a_reference_arithmetic():
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings
    from hypothesis import strategies as st

    count = st.integers(0, 50) | st.integers(0, 2**64)
    cost = st.just(0) | st.integers(0, 100 * 10**6) | st.integers(0, int(sys.float_info.max))
    records = st.builds(
        MarkerChurn, name=st.just("p"), cost_micro=cost, malloc_calls=count, calloc_calls=count,
        realloc_calls=count, free_calls=count, bytes_allocated=count, bytes_freed=count,
    )
    thresholds = st.builds(Thresholds, rel=st.sampled_from([0, 0.01, 0.5]), abs_floor=st.sampled_from([0, 1.0]),
                           call_floor=st.none() | st.integers(0, 3))
    zero = MarkerChurn("p", 0)
    some = MarkerChurn("p", 3_000_000, 1, 1, 1, 1, 64, 32)

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(st.none() | records, st.none() | records, thresholds)
    @example(None, some, Thresholds())
    @example(some, None, Thresholds())
    @example(zero, some, Thresholds())
    @example(zero, zero, Thresholds())
    @example(some, zero, Thresholds(call_floor=0))
    def check(base, cand, th):
        if base is None and cand is None:
            return
        delta = _compare("p", base, cand, _limits(th))
        assert delta == ChurnDelta("p", delta.status, base, cand)
        computed = (delta.status, delta.cost_delta_micro, delta.cost_delta_rel, delta.byte_delta_magnitude)
        assert computed == _reference_row(base, cand, th)

    check()


def test_equal_records_are_neutral_under_every_threshold():
    # Why _compare may call an unchanged phase neutral without arithmetic:
    # _classify's own arithmetic gives neutral for it under every checked Thresholds.
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings
    from hypothesis import strategies as st

    count = st.integers(0, 50) | st.integers(0, 2**64)
    cost = st.just(0) | st.integers(0, 100 * 10**6) | st.integers(0, int(sys.float_info.max))
    records = st.builds(
        MarkerChurn, name=st.just("p"), cost_micro=cost, malloc_calls=count, calloc_calls=count,
        realloc_calls=count, free_calls=count, bytes_allocated=count, bytes_freed=count,
    )
    bound = st.floats(0, sys.float_info.max) | st.sampled_from([0, 1e-7, sys.float_info.max])
    thresholds = st.builds(Thresholds, rel=bound, abs_floor=bound,
                           call_floor=st.none() | st.just(0) | st.integers(2**32, 2**70))
    units = st.dictionaries(st.sampled_from("abcdef"), st.integers(0, 4), max_size=6)

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(records, thresholds, units)
    @example(MarkerChurn("p", 0), Thresholds(0, 0, 0), {"a": 0, "b": 1})
    @example(MarkerChurn("p", int(sys.float_info.max), 1), Thresholds(0, 0, 0), {})
    def check(record, th, phase_units):
        copy, limits = MarkerChurn(*record), _limits(th)
        for base, cand in ((record, copy), (copy, record)):
            assert _classify(base.cost_micro, cand.cost_micro, cand.total_calls - base.total_calls,
                             limits) == STATUS_NEUTRAL
        report = report_with_units(phase_units)
        for cand in (report, parse_report(serialize_report(report))):  # the same records, and equal ones
            deltas = diff_reports(report, cand, th).deltas
            assert len(deltas) == len(phase_units)
            assert all(_classify(d.baseline.cost_micro, d.candidate.cost_micro, 0, limits) == d.status
                       == STATUS_NEUTRAL for d in deltas)

    check()


def _delta(phase, status, rel, alloc=0, freed=0, cost_micro=1_000_000):
    """A row whose records give it relative delta ``rel`` (None: a zero-cost
    baseline) on a baseline of ``cost_micro``, and byte deltas ``alloc`` and
    ``freed``. A new phase keeps only the candidate, a removed one only the
    baseline; either side's cost is then ``cost_micro``."""
    if status in (STATUS_NEW_PHASE, STATUS_REMOVED_PHASE) or rel is None:
        base_cost, cand_cost = 0, cost_micro
    else:
        base_cost, cand_cost = cost_micro, round(cost_micro * (1 + rel))
    base = MarkerChurn(name=phase, cost_micro=base_cost, malloc_calls=1)
    cand = MarkerChurn(name=phase, cost_micro=cand_cost, malloc_calls=1, bytes_allocated=alloc, bytes_freed=freed)
    if status == STATUS_NEW_PHASE:
        base = None
    elif status == STATUS_REMOVED_PHASE:
        base, cand = cand, None
    return ChurnDelta(phase, status, base, cand)


def synthetic_verdict(deltas):
    return RegressionVerdict(thresholds=Thresholds(), deltas=deltas)


def test_rank_orders_regressions_by_rel_desc():
    verdict = synthetic_verdict(
        [
            _delta("a", STATUS_REGRESSION, 0.5),
            _delta("b", STATUS_REGRESSION, 0.1),
            _delta("c", STATUS_REGRESSION, 0.9),
        ]
    )
    ranked = rank_regressions(verdict)
    assert [d.phase for d in ranked] == ["c", "a", "b"]
    assert [d.cost_delta_rel for d in ranked] == pytest.approx([0.9, 0.5, 0.1])


def test_rank_breaks_rel_ties_by_byte_delta():
    verdict = synthetic_verdict(
        [
            _delta("small", STATUS_REGRESSION, 0.5, alloc=100),
            _delta("large", STATUS_REGRESSION, 0.5, alloc=900),
        ]
    )
    assert [d.phase for d in rank_regressions(verdict)] == ["large", "small"]


def test_rank_breaks_remaining_ties_by_name():
    verdict = synthetic_verdict(
        [
            _delta("zeta", STATUS_REGRESSION, 0.5, alloc=100),
            _delta("alpha", STATUS_REGRESSION, 0.5, alloc=100),
        ]
    )
    assert [d.phase for d in rank_regressions(verdict)] == ["alpha", "zeta"]


def test_rank_full_group_order_matches_oracle_sort():
    rng = random.Random(6003)
    deltas = []
    for i in range(60):
        status = rng.choice(
            [STATUS_REGRESSION, STATUS_NEW_PHASE, STATUS_IMPROVEMENT, STATUS_NEUTRAL,
             STATUS_REMOVED_PHASE]
        )
        rel = None
        if status in (STATUS_REGRESSION, STATUS_IMPROVEMENT, STATUS_NEUTRAL):
            rel = rng.choice([round(rng.uniform(-1, 1), 2), None])
            if status == STATUS_REGRESSION and rng.random() < 0.5 and rel is None:
                pass  # zero-baseline regression, undefined rel
        deltas.append(
            _delta(f"p{i:02d}", status, rel, alloc=rng.randrange(0, 1000),
                   cost_micro=rng.randrange(0, 50 * 10**6))
        )
    ranked = rank_regressions(synthetic_verdict(deltas))

    group_order = [STATUS_REGRESSION, STATUS_NEW_PHASE, STATUS_IMPROVEMENT,
                   STATUS_NEUTRAL, STATUS_REMOVED_PHASE]

    def oracle_key(d):
        # Every figure straight from the records: a missing side counts as zero.
        base, cand = d.baseline, d.candidate
        if d.status == STATUS_NEW_PHASE:
            severity = cand.cost
        elif d.status == STATUS_REMOVED_PHASE:
            severity = base.cost
        else:
            severity = cand.cost_micro / base.cost_micro - 1 if base.cost_micro > 0 else float("inf")
        side = [(r.bytes_allocated, r.bytes_freed) if r else (0, 0) for r in (base, cand)]
        magnitude = abs(side[1][0] - side[0][0]) + abs(side[1][1] - side[0][1])
        return (group_order.index(d.status), -severity, -magnitude, d.phase)

    assert [d.phase for d in ranked] == [d.phase for d in sorted(deltas, key=oracle_key)]


def test_rank_is_idempotent_and_permutation_stable():
    rng = random.Random(6004)
    deltas = [
        _delta(f"p{i}", rng.choice([STATUS_REGRESSION, STATUS_NEUTRAL]),
               round(rng.uniform(0, 1), 3), alloc=rng.randrange(0, 100))
        for i in range(20)
    ]
    verdict = synthetic_verdict(deltas)
    once = rank_regressions(verdict)
    assert rank_regressions(synthetic_verdict(once)) == once
    shuffled = list(deltas)
    rng.shuffle(shuffled)
    assert rank_regressions(synthetic_verdict(shuffled)) == once


def test_rank_empty_verdict():
    assert rank_regressions(synthetic_verdict([])) == []


def test_rank_alternate_flags():
    verdict = synthetic_verdict(
        [
            _delta("zeta", STATUS_REGRESSION, 0.5, alloc=900),
            _delta("alpha", STATUS_REGRESSION, 0.5, alloc=100),
        ]
    )
    assert [d.phase for d in rank_regressions(verdict)] == ["zeta", "alpha"]
    assert [d.phase for d in rank_regressions(verdict, tie_break="name")] == ["alpha", "zeta"]

    low = _delta("low", STATUS_REGRESSION, 0.9)  # +0.9 on a cost of 1
    high = _delta("high", STATUS_REGRESSION, 0.1, cost_micro=50_000_000)  # +5 on a cost of 50
    ranked = rank_regressions(synthetic_verdict([low, high]), by="abs")
    assert [d.phase for d in ranked] == ["high", "low"]
    assert [d.phase for d in rank_regressions(synthetic_verdict([low, high]))] == ["low", "high"]


@pytest.mark.parametrize(
    "kwargs, message",
    [({"tie_break": "size"}, "unknown tie_break 'size'"), ({"by": "bytes"}, "unknown ranking key 'bytes'")],
    ids=["tie_break", "by"],
)
def test_rank_refuses_an_unknown_key(kwargs, message):
    with pytest.raises(ValueError) as excinfo:
        rank_regressions(synthetic_verdict([_delta("a", STATUS_REGRESSION, 0.5)]), **kwargs)
    assert str(excinfo.value) == message


def test_uniform_weight_scaling_leaves_verdict_unchanged():
    for factor in (0.5, 2.0, 10.0):
        model = CostModel({k: w * factor for k, w in CostModel().weights.items()}, "scaled")
        base = report_with_units({"a": 10, "b": 3, "c": 7})
        cand = report_with_units({"a": 11, "b": 3, "c": 9})
        base_s = report_with_units({"a": 10, "b": 3, "c": 7}, model=model)
        cand_s = report_with_units({"a": 11, "b": 3, "c": 9}, model=model)
        plain = diff_reports(base, cand)
        scaled = diff_reports(base_s, cand_s)
        assert [d.phase for d in plain.deltas] == [d.phase for d in scaled.deltas]
        assert [d.status for d in plain.deltas] == [d.status for d in scaled.deltas]


def test_verdict_round_trips_through_canonical_json():
    baseline = report_with_units({"a": 10, "b": 2})
    candidate = report_with_units({"a": 12, "c": 4})
    verdict = diff_reports(baseline, candidate)
    data = serialize_verdict(verdict)
    parsed = parse_verdict(data)
    assert serialize_verdict(parsed) == data
    assert parsed.regression_detected == verdict.regression_detected
    assert [d.phase for d in parsed.deltas] == [d.phase for d in verdict.deltas]
    assert [d.status for d in parsed.deltas] == [d.status for d in verdict.deltas]


def test_regression_flag_follows_reassigned_and_reordered_deltas():
    verdict = diff_reports(report_with_units({"a": 10, "b": 5, "c": 8}), report_with_units({"a": 12, "b": 5, "c": 6}))
    deltas = verdict.deltas
    assert verdict.regression_detected
    calm = verdict._replace(deltas=[d for d in deltas if d.status != STATUS_REGRESSION])
    assert [d.phase for d in calm.deltas] == ["c", "b"]
    assert not calm.regression_detected
    assert calm._replace(deltas=deltas).regression_detected
    for by in ("rel", "abs"):
        for tie_break in ("bytes", "name"):
            ranked = rank_regressions(verdict, tie_break=tie_break, by=by)
            assert RegressionVerdict(verdict.thresholds, ranked).regression_detected
            assert RegressionVerdict(verdict.thresholds, ranked[::-1]).regression_detected
            calm = [d for d in ranked if d.status != STATUS_REGRESSION]
            assert not RegressionVerdict(verdict.thresholds, calm).regression_detected


def test_parse_verdict_rejects_inconsistent_flag():
    # The flag is recomputed from the statuses and written back: an edited one is where the bytes depart.
    verdict = diff_reports(report_with_units({"a": 1}), report_with_units({"a": 1}))
    data = serialize_verdict(verdict)
    doc = json.loads(data)
    doc["regression_detected"] = True
    edited = canonical_json(doc)
    at = data.index(b'"regression_detected": false') + len(b'"regression_detected": ')
    assert _rejected_at(edited, key="regression_detected") == at


@pytest.mark.parametrize(
    "kwargs",
    [
        {"rel": math.nan},
        {"rel": math.inf},
        {"rel": -0.01},
        {"abs_floor": math.nan},
        {"abs_floor": -math.inf},
        {"abs_floor": -1.0},
        {"abs_floor": 10**400},
        {"rel": True},
        {"rel": "0.01"},
        {"call_floor": -1},
        {"call_floor": 1.5},
        {"call_floor": True},
    ],
)
def test_thresholds_reject_values_that_disable_the_gate(kwargs):
    with pytest.raises(ValueError):
        Thresholds(**kwargs)


def test_thresholds_accept_zero_and_integers():
    assert Thresholds(rel=0, abs_floor=0.0, call_floor=0).rel == 0


def test_thresholds_store_negative_zero_as_the_zero_a_verdict_writes():
    for th in (Thresholds(rel=-0.0, abs_floor=-0.0), Thresholds()._replace(rel=-0.0, abs_floor=-0.0)):
        assert math.copysign(1, th.rel) == math.copysign(1, th.abs_floor) == 1
        assert repr(th) == "Thresholds(rel=0.0, abs_floor=0.0, call_floor=None)"
        assert b'"abs_floor": 0.000000,' in serialize_verdict(RegressionVerdict(th, []))


@pytest.mark.parametrize(
    "field, literal",
    [("rel", "-0.5"), ("rel", "1e400"), ("abs_floor", "-1"), ("call_floor", "-3"),
     ("call_floor", '"2"')],
)
def test_parse_verdict_rejects_invalid_thresholds(field, literal):
    # None of these is a threshold the writer writes, so each is named at its slot.
    verdict = diff_reports(report_with_units({"a": 1}), report_with_units({"a": 1}))
    doc = json.loads(serialize_verdict(verdict))
    doc["thresholds"][field] = "@"
    data = canonical_json(doc).replace(b'"@"', literal.encode())
    assert _rejected_at(data, key=field) == data.index(f'"{field}": {literal}'.encode()) + len(field) + 4


def test_parse_verdict_rejects_non_finite_literal():
    verdict = diff_reports(report_with_units({"a": 1}), report_with_units({"a": 1}))
    data = serialize_verdict(verdict).decode()
    nan = data.replace('"rel": 0.010000', '"rel": NaN', 1)
    assert _rejected_at(nan, key="rel") == data.index('"rel": 0.010000') + len('"rel": ')
    # Six decimals too many digits for a float: the literal fits the slot and reads as infinity.
    overflow = data.replace('"rel": 0.010000', '"rel": 1' + "0" * 400 + ".000000", 1)
    with pytest.raises(ReportError) as excinfo:
        parse_verdict(overflow)
    assert str(excinfo.value) == "verdict has invalid thresholds: threshold rel must be a finite number >= 0, got inf"


def _regressed_verdict_doc():
    verdict = diff_reports(report_with_units({"a": 10, "b": 2}), report_with_units({"a": 12, "b": 2}))
    assert verdict.regression_detected
    return json.loads(serialize_verdict(verdict))


def test_parse_verdict_rejects_repeated_phase():
    doc = _regressed_verdict_doc()
    doc["deltas"].append(doc["deltas"][0])
    phase = doc["deltas"][0]["phase"]
    with pytest.raises(ReportError, match=f"repeats phase '{phase}'"):
        parse_verdict(canonical_json(doc))


def test_parse_verdict_rejects_hand_edited_status():
    doc = _regressed_verdict_doc()
    canonical = canonical_json(doc)
    for delta in doc["deltas"]:
        delta["status"] = STATUS_NEUTRAL
    doc["regression_detected"] = False  # consistent with the edited statuses
    data = canonical_json(doc)
    # The recomputed status is named at its slot, just before the first edited byte.
    at = canonical.index(b'"regression"')
    assert _rejected_at(data, "deltas[0]", "status") == first_difference(data, canonical) - 1 == at


def _rejected_at(data, label="verdict", key=None):
    """Parse ``data``, which must be refused for its bytes at ``label`` (and its field ``key``); return the offset."""
    with pytest.raises(ReportError) as excinfo:
        parse_verdict(data)
    field = "" if key is None else f" field {key!r}"
    prefix = f"{label}{field} is not in canonical form at byte {excinfo.value.offset}: expected "
    assert str(excinfo.value).startswith(prefix)
    return excinfo.value.offset


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d.update(cost_delta_abs=19.0),
        lambda d: d.update(cost_delta_rel=0.5),
        lambda d: d.update(cost_delta_rel=None),
        lambda d: d.update(call_delta={"calloc": 0, "free": 0, "malloc": 0, "realloc": 0}),
        lambda d: d.update(bytes_allocated_delta=0),
        lambda d: d.update(bytes_freed_delta=1),
    ],
    ids=["abs", "rel", "rel-null", "call_delta", "bytes_allocated", "bytes_freed"],
)
def test_parse_verdict_rejects_deltas_that_do_not_match_their_records(edit):
    # A row's deltas are computed from its records and never written, so a
    # stored one, as a verdict of schema 1 held it, is where the bytes depart.
    doc = _regressed_verdict_doc()
    canonical = canonical_json(doc)
    edit(doc["deltas"][0])
    data = canonical_json(doc)
    assert _rejected_at(data, "deltas[0]") == first_difference(data, canonical)


def test_parse_verdict_rejects_an_equivalent_non_canonical_layout():
    data = serialize_verdict(diff_reports(report_with_units({"a": 10, "b": 2}), report_with_units({"a": 12, "b": 2})))
    flat = b"\n".join(line.strip() for line in data.splitlines())
    assert flat != data
    assert _rejected_at(flat) == _rejected_at(flat.decode()) == first_difference(flat, data) == len(b"{\n")


def test_parse_verdict_rejects_an_edited_delta_in_the_canonical_layout():
    data = serialize_verdict(diff_reports(report_with_units({"a": 10, "b": 2}), report_with_units({"a": 12, "b": 2})))
    edited = data.replace(b'"status": "regression"', b'"status": "improvement"')
    assert edited != data
    assert _rejected_at(edited, "deltas[0]", "status") == data.index(b'"status": "regression"') + len(b'"status": ')


def test_parse_verdict_names_a_respelled_cost_by_its_offset():
    # The respelled literal reads as no cost, which changes the recomputed
    # status; the error still names the literal, not the status.
    data = serialize_verdict(diff_reports(report_with_units({"a": 10, "b": 2}), report_with_units({"a": 12, "b": 2})))
    assert data.count(b'"cost": 120.000000') == 1
    edited = data.replace(b'"cost": 120.000000', b'"cost": 1.200000e+02')
    assert _rejected_at(edited, "deltas[0] candidate", "cost") == data.index(b'"cost": 120.000000') + len(b'"cost": ')
    redumped = json.dumps(json.loads(data)).encode()  # the same content in json.dumps' own layout
    assert _rejected_at(redumped) == first_difference(redumped, data) == 1


def test_parse_verdict_labels_a_record_it_cannot_take_apart():
    doc = _regressed_verdict_doc()
    canonical = canonical_json(doc)
    doc["deltas"][1]["candidate"]["calls"] = [1]
    data = canonical_json(doc)
    assert _rejected_at(data, "deltas[1] candidate") == first_difference(data, canonical)


def test_parse_verdict_rejects_the_previous_schema_version():
    doc = _regressed_verdict_doc()
    doc["schema_version"] = "1"
    with pytest.raises(ReportError) as excinfo:
        parse_verdict(canonical_json(doc))
    assert str(excinfo.value) == "unknown schema_version '1' (expected '2')"


def test_parse_verdict_rejects_status_the_records_contradict():
    # The status is recomputed and written back, so the stored one is where the bytes depart.
    doc = _regressed_verdict_doc()
    regression = doc["deltas"][0]
    regression["candidate"] = regression["baseline"]  # now an unchanged phase
    data = canonical_json(doc)
    assert _rejected_at(data, "deltas[0]", "status") == data.index(b'"status": "regression"') + len(b'"status": ')
    doc = _regressed_verdict_doc()
    doc["deltas"][0]["baseline"] = None  # records now say new_phase
    data = canonical_json(doc)
    assert _rejected_at(data, "deltas[0]", "status") == data.index(b'"status": "regression"') + len(b'"status": ')
    doc["deltas"][0]["candidate"] = None
    with pytest.raises(ReportError, match="neither"):
        parse_verdict(canonical_json(doc))


def test_parse_verdict_rejects_record_named_for_another_phase():
    doc = _regressed_verdict_doc()
    doc["deltas"][0]["candidate"]["name"] = "b"
    with pytest.raises(ReportError, match="named 'b'"):
        parse_verdict(canonical_json(doc))


def test_parse_verdict_rejects_lone_surrogates():
    data = serialize_verdict(diff_reports(report_with_units({"a": 10}), report_with_units({"a": 12}))).decode()
    for name in ('"\\udc00"', '"\udc00"'):  # an escape, and the raw code point in a str
        with pytest.raises(ReportError, match="not valid Unicode"):
            parse_verdict(data.replace('"a"', name))
    raw = parse_verdict(data.replace('"a"', '"\U0001F600"'))
    assert [d.phase for d in raw.deltas] == ["\U0001F600"]
    # An escaped pair means the same phase name, but the writer writes the raw character.
    assert _rejected_at(data.replace('"a"', '"\\ud83d\\ude00"'), "deltas[0] baseline", "name") == data.index('"a"')


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"rel": math.nan}, "threshold rel must be a finite number >= 0, got nan"),
        ({"abs_floor": -1}, "threshold abs_floor must be a finite number >= 0, got -1"),
        ({"call_floor": True}, "threshold call_floor must be null or an integer >= 0, got True"),
    ],
)
def test_thresholds_replace_checks_like_the_constructor(kwargs, message):
    # A plain named tuple's _replace and _make build without calling __new__.
    for build in (lambda: Thresholds(**kwargs), lambda: Thresholds()._replace(**kwargs)):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message


def test_thresholds_make_rounds_like_the_constructor():
    made = Thresholds._make([0.0123456789, 1, None])
    assert type(made) is Thresholds and made.rel == 0.012346
    assert made == Thresholds(0.0123456789, 1) == Thresholds()._replace(rel=0.0123456789, abs_floor=1)
    with pytest.raises(TypeError):
        Thresholds._make([0.01, 1.0])


def test_thresholds_gate_on_the_six_decimals_a_verdict_records():
    assert Thresholds(rel=0.0123456789, abs_floor=0.5000004).rel == 0.012346
    assert Thresholds(abs_floor=0.5000004).abs_floor == 0.5
    # rel 0.0123450 sits between the given threshold and its six decimals, so
    # the status must come from the rounded one for a parsed verdict to agree.
    base = report_with_units({"a": 0})
    doc = literal_doc(base)
    record = doc["threads"][0]
    record.update(cost=100.0, bytes_allocated=2)
    record["calls"]["malloc"] = 1
    base = parse_report(canonical_json(doc))
    record["cost"] = 101.2345
    cand = parse_report(canonical_json(doc))
    verdict = diff_reports(base, cand, Thresholds(rel=0.0123449))
    data = serialize_verdict(verdict)
    assert serialize_verdict(parse_verdict(data)) == data
