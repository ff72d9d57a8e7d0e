import copy
import math
import pickle
import random

import pytest

from churnscope import (
    AllocFnKind,
    CostModel,
    CostModelError,
    DEFAULT_WEIGHTS,
    RecordingSession,
    ReportError,
    ThreadRecorder,
    TracingAllocator,
    event_cost,
    load_cost_model,
    marker,
    parse_report,
    serialize_report,
)

from factories import report_with_units

MODEL = CostModel()


def test_default_weights():
    assert MODEL.weights == {
        AllocFnKind.CALLOC: 2.0,
        AllocFnKind.FREE: 1.0,
        AllocFnKind.MALLOC: 1.0,
        AllocFnKind.REALLOC: 3.0,
    }
    assert MODEL.model_version == "paper-v1"
    assert all(w > 0 for w in MODEL.weights.values())


def test_replace_and_make_normalize_weights_like_the_constructor():
    weights = {kind: 1 for kind in AllocFnKind}
    weights[AllocFnKind.CALLOC] = 1.2345678  # held at the six decimals a report writes
    want = {**weights, AllocFnKind.CALLOC: 1.234568}
    for model in (MODEL._replace(weights=weights), CostModel._make([weights, "v"]), CostModel(weights, "v")):
        assert type(model) is CostModel and model.weights == want and model.weights is not weights
        assert all(type(w) is float for w in model.weights.values())


def test_weights_cannot_change_after_they_are_checked():
    model = CostModel()
    for weights in (model.weights, DEFAULT_WEIGHTS):
        with pytest.raises(TypeError):
            weights[AllocFnKind.MALLOC] = 7.0
        with pytest.raises(TypeError):
            del weights[AllocFnKind.FREE]
    assert model.weights == DEFAULT_WEIGHTS and model.weights[AllocFnKind.MALLOC] == 1.0
    assert b'"malloc": 1.000000' in serialize_report(report_with_units({"p": 1}, model=model))


def test_models_and_reports_pickle_and_copy():
    report = report_with_units({"p": 2}, model=CostModel({kind: 0.5 for kind in AllocFnKind}, "halves"))
    copies = [pickle.loads(pickle.dumps(report, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in [*copies, copy.copy(report), copy.deepcopy(report)]:
        assert twin == report and type(twin.model) is CostModel
        assert serialize_report(twin) == serialize_report(report)
        with pytest.raises(TypeError):
            twin.model.weights[AllocFnKind.MALLOC] = 7.0


def test_phase_cost_is_the_cost_under_the_reports_own_model():
    # Weights past six decimals: the report writes malloc as 0.000000 and calloc as 1.234568.
    weights = {**MODEL.weights, AllocFnKind.MALLOC: 0.0000004, AllocFnKind.CALLOC: 1.2345678}

    def report(model):
        session = RecordingSession(model, build_id="b", created_at="2026-01-01T00:00:00Z")
        rec = session.recorder("main")
        heap = TracingAllocator(rec)
        with marker(rec, "p"):
            for _ in range(3000):
                heap.free(heap.malloc(1024))
            heap.free(heap.calloc(3, 1000))
        session.seal_all()
        return session.build_report()

    parsed = parse_report(serialize_report(report(CostModel(weights, "fine"))))
    assert parsed.merged["p"].cost_micro == report(parsed.model).merged["p"].cost_micro


@pytest.mark.parametrize(
    "kind,nbytes,expected",
    [
        (AllocFnKind.MALLOC, 1024, 10.0),
        (AllocFnKind.FREE, 1, 0.0),
        (AllocFnKind.REALLOC, 4096, 36.0),
        (AllocFnKind.CALLOC, 0, 0.0),
        (AllocFnKind.CALLOC, 256, 16.0),
        (AllocFnKind.FREE, 512, 9.0),
    ],
)
def test_event_cost_spot_values(kind, nbytes, expected):
    assert event_cost(MODEL, kind, nbytes) == pytest.approx(expected, abs=1e-12)


def test_event_cost_zero_and_one_bytes():
    for kind in AllocFnKind:
        assert event_cost(MODEL, kind, 0) == 0.0
        assert event_cost(MODEL, kind, 1) == 0.0


def test_event_cost_rejects_negative_bytes():
    with pytest.raises(ValueError):
        event_cost(MODEL, AllocFnKind.MALLOC, -1)


def test_event_cost_monotone_in_bytes():
    rng = random.Random(1001)
    for kind in AllocFnKind:
        sizes = sorted(rng.randrange(1, 1 << 30) for _ in range(200))
        costs = [event_cost(MODEL, kind, n) for n in sizes]
        assert all(a <= b for a, b in zip(costs, costs[1:]))


def test_uniform_weight_scaling_scales_cost():
    rng = random.Random(1002)
    cases = [(rng.choice(list(AllocFnKind)), rng.randrange(0, 1 << 24)) for _ in range(300)]
    for factor in (0.5, 2.0, 4.0):
        scaled = CostModel({k: w * factor for k, w in MODEL.weights.items()}, "scaled")
        for kind, nbytes in cases:
            # power-of-two factors commute with the multiply exactly
            assert event_cost(scaled, kind, nbytes) == factor * event_cost(MODEL, kind, nbytes)
    scaled = CostModel({k: w * 3.0 for k, w in MODEL.weights.items()}, "scaled")
    for kind, nbytes in cases:
        assert event_cost(scaled, kind, nbytes) == pytest.approx(
            3.0 * event_cost(MODEL, kind, nbytes), rel=1e-12
        )


def test_uniform_weight_scaling_preserves_cost_ordering():
    rng = random.Random(1003)
    events = [(rng.choice(list(AllocFnKind)), rng.randrange(2, 1 << 22)) for _ in range(120)]
    base_order = sorted(
        range(len(events)),
        key=lambda i: (-event_cost(MODEL, *events[i]), i),
    )
    for factor in (0.5, 2.0, 10.0):
        scaled = CostModel({k: w * factor for k, w in MODEL.weights.items()}, "scaled")
        order = sorted(
            range(len(events)),
            key=lambda i: (-event_cost(scaled, *events[i]), i),
        )
        assert order == base_order


def test_doubling_bytes_adds_one_weight():
    rng = random.Random(1004)
    for kind in AllocFnKind:
        for _ in range(100):
            nbytes = rng.randrange(1, 1 << 40)
            gap = event_cost(MODEL, kind, 2 * nbytes) - event_cost(MODEL, kind, nbytes)
            assert gap == pytest.approx(MODEL.weights[kind], rel=1e-9, abs=1e-9)


def test_validate_accepts_default():
    assert CostModel() == MODEL == (DEFAULT_WEIGHTS, "paper-v1")
    assert CostModel().weights is not DEFAULT_WEIGHTS


def test_validate_names_missing_kind():
    weights = dict(MODEL.weights)
    del weights[AllocFnKind.REALLOC]
    with pytest.raises(CostModelError, match="^invalid cost model: missing weight for realloc$"):
        CostModel(weights, "broken")


def test_validate_names_negative_weight():
    weights = dict(MODEL.weights)
    weights[AllocFnKind.FREE] = -1.0
    with pytest.raises(CostModelError, match="free"):
        CostModel(weights, "broken")


def test_validate_rejects_non_finite():
    weights = dict(MODEL.weights)
    weights[AllocFnKind.MALLOC] = math.inf
    with pytest.raises(CostModelError, match="malloc"):
        CostModel(weights, "broken")


def test_validate_rejects_weights_whose_costs_overflow_nano_units():
    weights = dict(MODEL.weights)
    weights[AllocFnKind.MALLOC] = 1e300
    with pytest.raises(CostModelError, match="malloc"):
        CostModel(weights, "huge")
    weights[AllocFnKind.MALLOC] = 1e290
    model = CostModel(weights, "large")
    rec = ThreadRecorder("t", model)
    rec.record_malloc(2**63 - 1, 0x10)  # the largest cost a malloc can have
    assert rec.snapshot().cost_nano == round(event_cost(model, AllocFnKind.MALLOC, 2**63 - 1) * 10**9)


@pytest.mark.parametrize(
    "weights,version,message",
    [
        ({AllocFnKind.MALLOC: 1.0}, "partial",
         "missing weight for calloc; missing weight for realloc; missing weight for free"),
        ({}, "paper-v1",
         "missing weight for malloc; missing weight for calloc; missing weight for realloc; missing weight for free"),
        ({**DEFAULT_WEIGHTS, "malloc": 1.0}, "v", "unknown weight key 'malloc'"),
        ({**DEFAULT_WEIGHTS, AllocFnKind.FREE: -0.5}, "v", "weight for free is negative: -0.5"),
        ({**DEFAULT_WEIGHTS, AllocFnKind.CALLOC: math.nan}, "v", "weight for calloc is not finite: nan"),
        ({**DEFAULT_WEIGHTS, AllocFnKind.REALLOC: 1e300}, "v", "weight for realloc is too large: 1e+300"),
        (DEFAULT_WEIGHTS, "", "model_version must be a nonempty string"),
        (DEFAULT_WEIGHTS, None, "model_version must be a nonempty string"),
        ({**DEFAULT_WEIGHTS, AllocFnKind.MALLOC: "x"}, "v", "weight for malloc is not a number: 'x'"),
        ({**DEFAULT_WEIGHTS, AllocFnKind.FREE: None}, "v", "weight for free is not a number: None"),
        ({**DEFAULT_WEIGHTS, AllocFnKind.MALLOC: "2.5"}, "v", "weight for malloc is not a number: '2.5'"),
        ({**DEFAULT_WEIGHTS, AllocFnKind.CALLOC: True}, "v", "weight for calloc is not a number: True"),
        ({**DEFAULT_WEIGHTS, AllocFnKind.CALLOC: 10**400}, "v", f"weight for calloc is too large: {10**400!r}"),
        ([1.0, 2.0, 3.0, 1.0], "v", "weights must map each kind to a weight, got list"),
        ({**DEFAULT_WEIGHTS, "q": 1.0, AllocFnKind.MALLOC: [1.0], AllocFnKind.FREE: -1.0}, "",
         "unknown weight key 'q'; weight for malloc is not a number: [1.0]; weight for free is negative: -1.0; "
         "model_version must be a nonempty string"),
    ],
    ids=["partial", "empty", "unknown-key", "negative", "nan", "too-large", "empty-version", "no-version",
         "str-weight", "none-weight", "numeric-str-weight", "bool-weight", "int-past-float", "weight-list", "every-fault"],
)
def test_every_way_of_building_a_model_checks_it(weights, version, message):
    builds = (
        lambda: CostModel(weights, version),
        lambda: MODEL._replace(weights=weights, model_version=version),
        lambda: CostModel._make([weights, version]),
    )
    for build in builds:
        with pytest.raises(CostModelError) as excinfo:
            build()
        assert str(excinfo.value) == f"invalid cost model: {message}"


def test_each_reader_names_an_invalid_model_in_its_own_terms(tmp_path):
    path = tmp_path / "weights.cfg"
    path.write_text("malloc = 1\ncalloc = 2\nrealloc = 3\nfree = 1e300\n")
    with pytest.raises(CostModelError) as excinfo:
        load_cost_model(path)
    assert str(excinfo.value) == f"{path}: invalid cost model: weight for free is too large: 1e+300"
    data = serialize_report(report_with_units({"p": 1}))
    assert data.count(b'"free": 1.000000') == 1
    with pytest.raises(ReportError) as excinfo:
        parse_report(data.replace(b'"free": 1.000000', b'"free": 1' + b"0" * 300 + b".000000"))
    assert str(excinfo.value) == "invalid cost_model: weight for free is too large: 1e+300"


def test_load_cost_model_file(tmp_path):
    path = tmp_path / "weights.cfg"
    path.write_text(
        "# tuned for this target\n"
        "malloc = 1.5\n"
        "calloc = 2.5\n"
        "realloc = 4\n"
        "free = 0.5\n"
        "model_version = tuned-1\n"
    )
    model = load_cost_model(path)
    assert model.model_version == "tuned-1"
    assert model.weights[AllocFnKind.REALLOC] == 4.0
    assert model.weights[AllocFnKind.FREE] == 0.5


def test_load_cost_model_defaults_version(tmp_path):
    path = tmp_path / "weights.cfg"
    path.write_text("malloc = 1\ncalloc = 2\nrealloc = 3\nfree = 1\n")
    assert load_cost_model(path).model_version == "custom"


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("malloc = 1\ncalloc = 2\nfree = 1\n", "realloc"),
        ("malloc = one\ncalloc = 2\nrealloc = 3\nfree = 1\n", "not a number"),
        ("malloc = 1\nmalloc = 2\ncalloc = 2\nrealloc = 3\nfree = 1\n", "duplicate"),
        ("mallocs = 1\n", "unknown key"),
        ("malloc 1\n", "expected"),
        ("malloc = -2\ncalloc = 2\nrealloc = 3\nfree = 1\n", "negative"),
        ("malloc = 1\ncalloc = 2\nrealloc = 3\nfree = 1\nmodel_version = a\nmodel_version = b\n",
         ":6: duplicate model_version$"),
        ("malloc = 1\ncalloc = 2\nrealloc = 3\nfree = 1\nmodel_version =\n", ":5: model_version must not be empty$"),
    ],
)
def test_load_cost_model_rejects_bad_files(tmp_path, body, fragment):
    path = tmp_path / "weights.cfg"
    path.write_text(body)
    with pytest.raises(CostModelError, match=fragment):
        load_cost_model(path)
