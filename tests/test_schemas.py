import json
from pathlib import Path

import pytest

from test_byte_identity import edge_outputs, many_record_outputs, outputs

jsonschema = pytest.importorskip("jsonschema")

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schemas"


def load_schema(name):
    return json.loads((SCHEMA_DIR / name).read_text())


def test_reports_conform_to_schema(tmp_path, capsysbinary):
    # Every report the byte-identity tests pin.
    schema = load_schema("churn-report.schema.json")
    names = []
    for generate in (outputs, many_record_outputs, edge_outputs):
        for name, data in generate(tmp_path, capsysbinary):
            if name.endswith(".churn.json"):
                doc = json.loads(data)
                jsonschema.validate(doc, schema)
                assert "phases" not in doc
                names.append(name)
    assert len(names) == 11


def test_verdicts_conform_to_schema(tmp_path, capsysbinary):
    # Every verdict and rank --format json output the byte-identity tests pin.
    schema = load_schema("churn-verdict.schema.json")
    names = []
    for generate in (outputs, many_record_outputs, edge_outputs):
        for name, data in generate(tmp_path, capsysbinary):
            if name.endswith(".json") and not name.endswith(".churn.json"):
                jsonschema.validate(json.loads(data), schema)
                names.append(name)
    assert len(names) == 13


def test_schema_files_are_valid_schemas():
    for name in ("churn-report.schema.json", "churn-verdict.schema.json"):
        jsonschema.Draft7Validator.check_schema(load_schema(name))
