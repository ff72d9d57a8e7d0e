import json
import math
import random

import pytest

from churnscope import (
    AllocFnKind,
    ModelMismatchError,
    ReportError,
    Thresholds,
    default_cost_model,
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
)

from factories import report_with_units


def oracle_statuses(baseline_doc, candidate_doc, rel=0.01, floor=1.0):
    """Recompute per-phase statuses from the raw documents with plain arithmetic."""
    base = {k: v["cost"] for k, v in baseline_doc["phases"].items()}
    cand = {k: v["cost"] for k, v in candidate_doc["phases"].items()}
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
    return json.loads(serialize_report(report))


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
    doc = docs(small)
    for record in (doc["phases"]["idle"],):
        record["cost"] = 0.9
        record["calls"]["malloc"] = 1
        record["bytes_allocated"] = 2
    doc["threads"][1 if doc["threads"][0]["name"] == "a" else 0].update(
        {"cost": 0.9, "calls": {"calloc": 0, "free": 0, "malloc": 1, "realloc": 0},
         "bytes_allocated": 2}
    )
    small = parse_report(json.dumps(doc))
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
    scaled = report_with_units({"a": 1}, model=default_cost_model().scaled(2.0))
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


def _delta(phase, status, rel, alloc=0, freed=0, cost_micro=1_000_000):
    calls = {k: 0 for k in AllocFnKind}
    record = MarkerChurn(name=phase, cost_micro=cost_micro, calls={**calls, AllocFnKind.MALLOC: 1})
    return ChurnDelta(
        phase=phase,
        status=status,
        baseline=None if status == STATUS_NEW_PHASE else record,
        candidate=None if status == STATUS_REMOVED_PHASE else record,
        cost_delta_micro=0,
        cost_delta_rel=rel,
        call_delta=calls,
        bytes_allocated_delta=alloc,
        bytes_freed_delta=freed,
    )


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
    assert [d.cost_delta_rel for d in rank_regressions(verdict)] == [0.9, 0.5, 0.1]


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
        if d.status == STATUS_NEW_PHASE:
            severity = d.candidate.cost
        elif d.status == STATUS_REMOVED_PHASE:
            severity = d.baseline.cost
        else:
            severity = d.cost_delta_rel if d.cost_delta_rel is not None else float("inf")
        magnitude = abs(d.bytes_allocated_delta) + abs(d.bytes_freed_delta)
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

    import dataclasses

    low = dataclasses.replace(_delta("low", STATUS_REGRESSION, 0.9), cost_delta_micro=1_000_000)
    high = dataclasses.replace(_delta("high", STATUS_REGRESSION, 0.1), cost_delta_micro=50_000_000)
    ranked = rank_regressions(synthetic_verdict([low, high]), by="abs")
    assert [d.phase for d in ranked] == ["high", "low"]


def test_uniform_weight_scaling_leaves_verdict_unchanged():
    for factor in (0.5, 2.0, 10.0):
        model = default_cost_model().scaled(factor, "scaled")
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
    verdict.deltas = [d for d in deltas if d.status != STATUS_REGRESSION]
    assert [d.phase for d in verdict.deltas] == ["c", "b"]
    assert not verdict.regression_detected
    verdict.deltas = deltas
    assert verdict.regression_detected
    for by in ("rel", "abs"):
        for tie_break in ("bytes", "name"):
            ranked = rank_regressions(verdict, tie_break=tie_break, by=by)
            assert RegressionVerdict(verdict.thresholds, ranked).regression_detected
            assert RegressionVerdict(verdict.thresholds, ranked[::-1]).regression_detected
            calm = [d for d in ranked if d.status != STATUS_REGRESSION]
            assert not RegressionVerdict(verdict.thresholds, calm).regression_detected


def test_parse_verdict_rejects_inconsistent_flag():
    verdict = diff_reports(report_with_units({"a": 1}), report_with_units({"a": 1}))
    doc = json.loads(serialize_verdict(verdict))
    doc["regression_detected"] = True
    with pytest.raises(ReportError, match="regression_detected"):
        parse_verdict(json.dumps(doc))


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


@pytest.mark.parametrize(
    "field, literal",
    [("rel", "-0.5"), ("rel", "1e400"), ("abs_floor", "-1"), ("call_floor", "-3"),
     ("call_floor", '"2"')],
)
def test_parse_verdict_rejects_invalid_thresholds(field, literal):
    verdict = diff_reports(report_with_units({"a": 1}), report_with_units({"a": 1}))
    doc = json.loads(serialize_verdict(verdict))
    doc["thresholds"][field] = "@"
    data = json.dumps(doc).replace('"@"', literal)
    with pytest.raises(ReportError, match="thresholds"):
        parse_verdict(data)


def test_parse_verdict_rejects_non_finite_literal():
    verdict = diff_reports(report_with_units({"a": 1}), report_with_units({"a": 1}))
    data = serialize_verdict(verdict).decode().replace('"rel": 0.010000', '"rel": NaN', 1)
    with pytest.raises(ReportError, match="non-finite"):
        parse_verdict(data)


def _regressed_verdict_doc():
    verdict = diff_reports(report_with_units({"a": 10, "b": 2}), report_with_units({"a": 12, "b": 2}))
    assert verdict.regression_detected
    return json.loads(serialize_verdict(verdict))


def test_parse_verdict_rejects_repeated_phase():
    doc = _regressed_verdict_doc()
    doc["deltas"].append(doc["deltas"][0])
    phase = doc["deltas"][0]["phase"]
    with pytest.raises(ReportError, match=f"repeats phase '{phase}'"):
        parse_verdict(json.dumps(doc))


def test_parse_verdict_rejects_hand_edited_status():
    doc = _regressed_verdict_doc()
    for delta in doc["deltas"]:
        delta["status"] = STATUS_NEUTRAL
    doc["regression_detected"] = False  # consistent with the edited statuses
    with pytest.raises(ReportError, match="status 'neutral'.*give 'regression'"):
        parse_verdict(json.dumps(doc))


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d.update(cost_delta_abs=19.0),
        lambda d: d.update(cost_delta_rel=0.5),
        lambda d: d.update(cost_delta_rel=None),
        lambda d: d["call_delta"].update(malloc=0),
        lambda d: d.update(bytes_allocated_delta=0),
        lambda d: d.update(bytes_freed_delta=1),
    ],
    ids=["abs", "rel", "rel-null", "call_delta", "bytes_allocated", "bytes_freed"],
)
def test_parse_verdict_rejects_deltas_that_do_not_match_their_records(edit):
    doc = _regressed_verdict_doc()
    edit(doc["deltas"][0])
    with pytest.raises(ReportError, match="does not match its records"):
        parse_verdict(json.dumps(doc))


def test_parse_verdict_rejects_status_the_records_contradict():
    doc = _regressed_verdict_doc()
    regression = doc["deltas"][0]
    regression["candidate"] = regression["baseline"]  # now an unchanged phase
    with pytest.raises(ReportError, match="status"):
        parse_verdict(json.dumps(doc))
    doc = _regressed_verdict_doc()
    doc["deltas"][0]["baseline"] = None  # records now say new_phase
    with pytest.raises(ReportError, match="new_phase"):
        parse_verdict(json.dumps(doc))
    doc["deltas"][0]["candidate"] = None
    with pytest.raises(ReportError, match="neither"):
        parse_verdict(json.dumps(doc))


def test_parse_verdict_rejects_record_named_for_another_phase():
    doc = _regressed_verdict_doc()
    doc["deltas"][0]["candidate"]["name"] = "b"
    with pytest.raises(ReportError, match="named 'b'"):
        parse_verdict(json.dumps(doc))


def test_thresholds_gate_on_the_six_decimals_a_verdict_records():
    assert Thresholds(rel=0.0123456789, abs_floor=0.5000004).rel == 0.012346
    assert Thresholds(abs_floor=0.5000004).abs_floor == 0.5
    # rel 0.0123450 sits between the given threshold and its six decimals, so
    # the status must come from the rounded one for a parsed verdict to agree.
    base = report_with_units({"a": 0})
    doc = docs(base)
    for record in (doc["phases"]["a"], doc["threads"][0]):
        record.update(cost=100.0, bytes_allocated=2)
        record["calls"]["malloc"] = 1
    base = parse_report(json.dumps(doc))
    for record in (doc["phases"]["a"], doc["threads"][0]):
        record["cost"] = 101.2345
    cand = parse_report(json.dumps(doc))
    verdict = diff_reports(base, cand, Thresholds(rel=0.0123449))
    data = serialize_verdict(verdict)
    assert serialize_verdict(parse_verdict(data)) == data
