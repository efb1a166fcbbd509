"""The in-repo schema checker against jsonschema, the reference.

``runner._valid`` decides accept or reject for every case config and
report; jsonschema only words a rejection.  These tests mutate valid
documents and require the same decision, and the same error, as
``jsonschema.validate``.
"""

import copy
import json
import math

import hypothesis.strategies as st
import jsonschema
import pytest
from hypothesis import given, settings

from simpvex import runner
from simpvex.errors import CaseConfigError, SimpvexError

WEIRD = [None, True, 0, -1, 0.5, math.nan, math.inf, -math.inf, "", [], {}]
UNKNOWN = "unknown_key"


def _corpus_configs():
    return [json.loads(entry.read_text(encoding="utf-8"))
            for entry in sorted(runner._corpus_dir().iterdir(), key=lambda e: e.name)
            if entry.name.endswith(".json")]


CORPUS_CONFIGS = _corpus_configs()

# (f, df, F, d4sup) in the shape of the benchmark's generated families
MODELS = [
    ("1.5*x^3+0.25", "4.5*x^2", "0.375*x^4+0.25*x", 0.0),
    ("0.8*exp((-1.2)*x)", "(-0.96)*exp((-1.2)*x)", "(-0.6666666666666667)*exp((-1.2)*x)", 2.0),
    ("log(x+0.5)", "1/(x+0.5)", "(x+0.5)*log(x+0.5)-x", 96.0),
    ("sin(3.0*x+0.5)", "3.0*cos(3.0*x+0.5)", "(-0.3333333333333333)*cos(3.0*x+0.5)", 81.0),
]
ETAS = [{"kind": "difference"}, {"kind": "abs_example"},
        {"kind": "expression", "value": "0.75*(v-u)"},
        {"kind": "expression", "value": "(v-u)/(1+0.5*abs(v-u))"}]
THEOREMS = ["T3.1", "T3.2", "T3.3", "T3.4", "T4.1", "T4.2", "T4.3", "C4.1", "C4.2", "CLASSICAL"]


@st.composite
def generated_configs(draw, repeats=False):
    """A case config in the shape of the benchmark's; with ``repeats`` its
    q and theorem lists may repeat an entry, which the schema rejects."""
    f, df, F, d4sup = draw(st.sampled_from(MODELS))
    unique_by = None if repeats else float
    cfg = {
        "name": "gen_case",
        "f": f,
        "df": df,
        "eta": draw(st.sampled_from(ETAS)),
        "K": [0.0, 1.5],
        "a": 0.25,
        "b": 1.25,
        "q": draw(st.lists(st.sampled_from([1, 1.0, 1.5, 2, 3.0, 4]), min_size=1, max_size=4,
                           unique_by=unique_by)),
        "theorems": draw(st.lists(st.sampled_from(THEOREMS[:8]), min_size=1, max_size=8,
                                  unique=not repeats)),
    }
    if draw(st.booleans()):
        cfg["F"] = draw(st.sampled_from([F, None]))
    if draw(st.booleans()):
        cfg["d4sup"] = draw(st.sampled_from([d4sup, None]))
    if draw(st.booleans()):
        cfg["tolerances"] = {"oracle": 1e-10, "slack": 1e-12, "invexity": 1e-9}
    if draw(st.booleans()):
        cfg["expected"] = {"T3.1": {"rhs": 0.5, "tolerance": 1e-9},
                           "T3.2@2": {"rhs": 1, "tolerance": 0.25}}
    return cfg


def _paths(doc, prefix=()):
    """Every (path, value) below ``doc``: dict values and list items."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        path = prefix + (key,)
        yield path, value
        if isinstance(value, (dict, list)):
            yield from _paths(value, path)


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    _at(doc, path[:-1])[path[-1]] = value
    return doc


@st.composite
def mutations(draw, base, required, extra=()):
    """A copy of ``base`` with one mutation.

    ``required(path)`` lists the keys the dict at ``path`` must have;
    ``extra`` lists document-specific (path, value) replacements.
    """
    doc = copy.deepcopy(base)
    paths = list(_paths(doc))
    dicts = [()] + [p for p, v in paths if isinstance(v, dict)]
    kind = draw(st.sampled_from(["delete", "add", "replace", "extra"] if extra
                                else ["delete", "add", "replace"]))
    if kind == "delete":
        candidates = [p + (k,) for p in dicts for k in _at(doc, p) if k in required(p)]
        path = draw(st.sampled_from(candidates))
        del _at(doc, path[:-1])[path[-1]]
    elif kind == "add":
        _at(doc, draw(st.sampled_from(dicts)))[UNKNOWN] = draw(st.sampled_from(WEIRD))
    elif kind == "replace":
        path = draw(st.sampled_from([p for p, _ in paths]))
        _at(doc, path[:-1])[path[-1]] = draw(st.sampled_from(WEIRD))
    else:
        doc = _replaced(doc, *draw(st.sampled_from(extra)))
    return doc


def _case_required(path):
    if path == ():
        return runner.case_schema()["required"]
    if path == ("eta",):
        return ["kind"]
    if len(path) == 2 and path[0] == "expected":
        return ["rhs", "tolerance"]
    return []


CASE_EXTRAS = [
    (("K",), [0.0]), (("K",), [0.0, 0.5, 1.0]), (("q",), []), (("theorems",), []),
    (("theorems",), ["T3.1", "T9.9"]), (("eta",), {"kind": "mystery"}),
    (("tolerances",), {UNKNOWN: 1.0}), (("tolerances",), {"oracle": 0}),
    (("expected",), {"T3.1": {"rhs": 1.0, "tolerance": 0.1, UNKNOWN: 1}}),
    (("expected",), {"T3.1": {"rhs": 1.0, "tolerance": 0.0}}),
    (("q",), [1, 2.0, 0.999]), (("q",), [math.nan]), (("d4sup",), -0.5),
    (("name",), "x"), (("f",), 1),
    (("q",), [1, 1.0]), (("q",), [2, 3, 2.0]), (("q",), [True, 1]), (("q",), [1.5, 2]),
    (("q",), [math.nan, math.nan]), (("q",), [1, math.nan, 1]),
    (("theorems",), ["T3.1", "T3.1"]), (("theorems",), ["T3.1", "T4.1", "T3.1"]),
]


def _load_case_decision(cfg):
    """None if load_case passes the schema stage, else its error and cause texts."""
    try:
        runner.load_case(cfg)
    except CaseConfigError as exc:
        if str(exc).startswith("case config invalid at "):
            return str(exc), str(exc.__cause__)
    except SimpvexError:  # a later gate: the schema accepted the config
        pass
    return None


def _jsonschema_decision(cfg):
    try:
        jsonschema.validate(cfg, runner.case_schema())
    except jsonschema.ValidationError as exc:
        path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        return f"case config invalid at {path}: {exc.message}", str(exc)
    return None


@settings(max_examples=250)
@given(st.one_of(st.sampled_from(CORPUS_CONFIGS), generated_configs(repeats=True)).flatmap(
    lambda cfg: mutations(cfg, _case_required, CASE_EXTRAS)))
def test_load_case_rejects_exactly_what_jsonschema_rejects(cfg):
    assert _load_case_decision(cfg) == _jsonschema_decision(cfg)


@settings(max_examples=100)
@given(generated_configs(repeats=True))
def test_repeated_entries_are_rejected_exactly_as_jsonschema_rejects_them(cfg):
    # 1 and 1.0 repeat; T3.1 twice repeats; the schema, not _request_error, rejects
    decision = _load_case_decision(cfg)
    assert decision == _jsonschema_decision(cfg)
    repeated = (len({float(q) for q in cfg["q"]}) < len(cfg["q"])
                or len(set(cfg["theorems"])) < len(cfg["theorems"]))
    assert (decision is not None and "has non-unique elements" in decision[0]) == repeated


@pytest.mark.parametrize("items, unique", [
    ([1, 1.0], False), ([True, 1], True), ([False, 0], True), ([1, True, 1.0], False),
    ([[1], [1.0]], False), ([[1], [True]], True), ([{"a": 1}, {"a": 1.0}], False),
    ([{"a": 1}, {"b": 1}], True), (["T3.1", 1, "T3.1"], False), ([None, None], False),
    ([math.nan, math.nan], False), ([1, "1"], True), ([], True),
])
def test_unique_items_follows_json_schema_equality(items, unique):
    schema = {"type": "array", "uniqueItems": True}
    assert runner._valid(items, schema, schema) == unique
    assert jsonschema.Draft202012Validator(schema).is_valid(items) == unique


def test_case_extras_cover_both_decisions():
    decisions = []
    for path, value in CASE_EXTRAS:
        cfg = _replaced(CORPUS_CONFIGS[0], path, value)
        want = _jsonschema_decision(cfg)
        assert _load_case_decision(cfg) == want, path
        decisions.append(want is None)
    assert any(decisions) and not all(decisions)


@settings(max_examples=50)
@given(st.one_of(st.sampled_from(CORPUS_CONFIGS), generated_configs()))
def test_unmutated_configs_pass_the_schema(cfg):
    assert runner._schema_error(cfg, "case_schema") is None
    assert _jsonschema_decision(cfg) is None


def _report_required(path):
    schema = runner.report_schema()
    if path == ():
        return schema["required"]
    if path == ("counts",):
        return schema["properties"]["counts"]["required"]
    entry = schema["$defs"]["case_entry"]
    if len(path) == 2:
        return entry["required"]
    return entry["properties"][path[2]]["items"]["required"] if len(path) == 4 else []


@pytest.fixture(scope="module")
def report_doc(corpus_report):
    return corpus_report.to_dict()


def _report_extras(doc):
    base, witness = next((("cases", i, "hypotheses", j), tuple(h["witness"]))
                         for i, case in enumerate(doc["cases"])
                         for j, h in enumerate(case["hypotheses"]) if h["witness"])
    return [
        (base + ("samples",), 2.5), (base + ("samples",), 3.0), (base + ("samples",), -1.0),
        (base + ("witness",), witness), (base + ("witness",), list(witness)),
        (base + ("verdict",), "unknown_verdict"), (("cases", 0, "verdict"), "unknown_verdict"),
        (("cases", 0, "bounds", 0, "theorem"), "T9.9"), (("counts", "pass"), 1.5),
        (("counts", "pass"), math.nan), (("cases", 0, "defect_evaluations"), 2.0),
    ]


def _report_errors(doc):
    try:
        runner._validate(doc, "report_schema")
        got = None
    except jsonschema.ValidationError as exc:
        got = str(exc)
    try:
        jsonschema.validate(doc, runner.report_schema())
        want = None
    except jsonschema.ValidationError as exc:
        want = str(exc)
    return got, want


@settings(max_examples=25)
@given(st.data())
def test_report_validation_rejects_exactly_what_jsonschema_rejects(report_doc, data):
    doc = data.draw(mutations(report_doc, _report_required, _report_extras(report_doc)))
    got, want = _report_errors(doc)
    assert got == want


def test_report_extras_cover_both_decisions(report_doc):
    decisions = []
    for path, value in _report_extras(report_doc):
        got, want = _report_errors(_replaced(report_doc, path, value))
        assert got == want, path
        decisions.append(got is None)
    assert any(decisions) and not all(decisions)


HANDLED = {"$schema", "title", "description", "$defs", "$ref", "type", "enum", "required",
           "properties", "additionalProperties", "items", "minItems", "maxItems", "uniqueItems",
           "minimum", "exclusiveMinimum", "minLength"}


def _subschemas(schema):
    yield schema
    for sub in list(schema.get("properties", {}).values()) + list(
            schema.get("$defs", {}).values()):
        yield from _subschemas(sub)
    for key in ("items", "additionalProperties"):
        if isinstance(schema.get(key), dict):
            yield from _subschemas(schema[key])


@pytest.mark.parametrize("name", ["case_schema", "report_schema"])
def test_bundled_schemas_use_only_keywords_the_checker_handles(name):
    root = getattr(runner, name)()
    assert root["$schema"] == "https://json-schema.org/draft/2020-12/schema"
    for schema in _subschemas(root):
        assert set(schema) <= HANDLED, set(schema) - HANDLED
        assert "$defs" not in schema or schema is root
        types = schema.get("type", [])
        assert set([types] if isinstance(types, str) else types) <= set(runner._TYPES)
        assert all(isinstance(e, str) for e in schema.get("enum", []))
        if "$ref" in schema:
            assert schema["$ref"].startswith("#/$defs/")
            assert schema["$ref"][len("#/$defs/"):] in root["$defs"]
        for key in ("additionalProperties", "items"):
            assert isinstance(schema.get(key, {}), (bool, dict))
