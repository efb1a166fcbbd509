"""The in-repo schema checker against jsonschema, the reference.

``runner._failure`` accepts or rejects every case config, and words the
rejection; reports are checked against the report schema by the tests
that write them, with jsonschema.  These tests mutate valid documents and require the
same decision as jsonschema on every one, and the same message as
jsonschema's ``best_match`` wherever jsonschema finds exactly one error.
The case schema checks shape only; ``load_case`` must still reject every
config that the case schema with its former value rules
(``data/case_schema_with_value_rules.json``) rejects.
"""

import copy
import inspect
import json
import math
import pathlib
import re

import hypothesis.strategies as st
import jsonschema
import pytest
from hypothesis import given, settings
from jsonschema.exceptions import best_match

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
    q and theorem lists may repeat an entry, which ``_request_error`` rejects."""
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
    (("name",), "x"), (("name",), ""), (("f",), 1),
    (("tolerances",), {"zz": 1.0, UNKNOWN: 2.0, "aa": 3.0}),
    (("q",), [1, 1.0]), (("q",), [2, 3, 2.0]), (("q",), [True, 1]), (("q",), [1.5, 2]),
    (("q",), [math.nan, math.nan]), (("q",), [1, math.nan, 1]),
    (("theorems",), ["T3.1", "T3.1"]), (("theorems",), ["T3.1", "T4.1", "T3.1"]),
]


def _load_case_decision(cfg):
    """None if load_case passes the schema stage, else its error text."""
    try:
        runner.load_case(cfg)
    except CaseConfigError as exc:
        if str(exc).startswith("case config invalid at "):
            return str(exc)
    except SimpvexError:  # a later gate: the schema accepted the config
        pass
    return None


def _jsonschema_decision(doc):
    """(None or jsonschema's best_match worded as the program words a rejection,
    the number of errors jsonschema finds in ``doc``)."""
    errors = list(jsonschema.Draft202012Validator(runner.case_schema()).iter_errors(doc))
    if not errors:
        return None, 0
    error = best_match(errors)
    path = "/".join(str(p) for p in error.absolute_path) or "<root>"
    return f"case config invalid at {path}: {error.message}", len(errors)


def _assert_as_jsonschema(got, doc):
    """``got`` rejects ``doc`` exactly when jsonschema does, in its words when it
    finds one error."""
    want, errors = _jsonschema_decision(doc)
    assert (got is None) == (want is None), (got, want)
    if errors == 1:
        assert got == want


@settings(max_examples=250)
@given(st.one_of(st.sampled_from(CORPUS_CONFIGS), generated_configs(repeats=True)).flatmap(
    lambda cfg: mutations(cfg, _case_required, CASE_EXTRAS)))
def test_load_case_rejects_exactly_what_jsonschema_rejects(cfg):
    _assert_as_jsonschema(_load_case_decision(cfg), cfg)


@settings(max_examples=100)
@given(generated_configs(repeats=True))
def test_repeated_entries_are_rejected_in_the_words_of_request_error(cfg):
    # 1 and 1.0 repeat; T3.1 twice repeats; the schema accepts both, _request_error rejects
    assert _jsonschema_decision(cfg) == (None, 0)
    q_list = [float(q) for q in cfg["q"]]
    repeated = len(set(q_list)) < len(q_list) or len(set(cfg["theorems"])) < len(cfg["theorems"])
    error = runner._request_error(q_list, cfg["theorems"])
    assert (error is not None) == repeated
    if repeated:
        assert error[1].endswith(" is listed more than once")
        with pytest.raises(CaseConfigError) as info:
            runner.load_case(cfg)
        assert str(info.value) == f"case 'gen_case': {error[1]}"


WITH_VALUE_RULES = json.loads((pathlib.Path(__file__).parent / "data" /
                               "case_schema_with_value_rules.json").read_text(encoding="utf-8"))


def _assert_load_case_rejects_what_the_value_rules_reject(cfg):
    if not jsonschema.Draft202012Validator(WITH_VALUE_RULES).is_valid(cfg):
        with pytest.raises(CaseConfigError):
            runner.load_case(cfg)


@settings(max_examples=250)
@given(st.one_of(st.sampled_from(CORPUS_CONFIGS), generated_configs(repeats=True)).flatmap(
    lambda cfg: mutations(cfg, _case_required, CASE_EXTRAS)))
def test_load_case_rejects_every_config_the_schema_with_value_rules_rejects(cfg):
    _assert_load_case_rejects_what_the_value_rules_reject(cfg)


def test_case_extras_cover_both_decisions():
    decisions = []
    for path, value in CASE_EXTRAS:
        cfg = _replaced(CORPUS_CONFIGS[0], path, value)
        want, errors = _jsonschema_decision(cfg)
        assert errors <= 1, path  # one error each: the wording is compared
        assert _load_case_decision(cfg) == want, path
        _assert_load_case_rejects_what_the_value_rules_reject(cfg)
        decisions.append(want is None)
    assert any(decisions) and not all(decisions)


@settings(max_examples=50)
@given(st.one_of(st.sampled_from(CORPUS_CONFIGS), generated_configs()))
def test_unmutated_configs_pass_the_schema(cfg):
    assert runner._failure(cfg, runner.case_schema()) is None
    assert _jsonschema_decision(cfg) == (None, 0)


HANDLED = {"$schema", "title", "description", "type", "required", "properties",
           "additionalProperties", "items", "minItems", "maxItems", "minLength"}


def _subschemas(schema):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _subschemas(sub)
    for key in ("items", "additionalProperties"):
        if isinstance(schema.get(key), dict):
            yield from _subschemas(schema[key])


def test_the_case_schema_uses_only_keywords_the_checker_handles():
    root = runner.case_schema()
    assert root["$schema"] == "https://json-schema.org/draft/2020-12/schema"
    for schema in _subschemas(root):
        assert set(schema) <= HANDLED, set(schema) - HANDLED
        types = schema.get("type", [])
        assert set([types] if isinstance(types, str) else types) <= set(runner._TYPES)
        for key in ("additionalProperties", "items"):
            assert isinstance(schema.get(key, {}), (bool, dict))
        # the checker words these keywords as jsonschema does for these values only
        assert schema.get("minLength", 1) == 1
        assert schema.get("minItems", 2) > 1 and schema.get("maxItems", 1) > 0


def test_every_keyword_the_checker_handles_is_used_by_the_case_schema():
    used = set()
    for schema in _subschemas(runner.case_schema()):
        used |= set(schema)
    assert used == HANDLED, HANDLED - used
    # and the checker reads exactly these keywords, the three annotations aside
    read = re.findall(r"""(?:schema\.get\(|schema\[)["'](\$?\w+)["']"""
                      r"""|["'](\$?\w+)["'] in schema""", inspect.getsource(runner._failure))
    assert {a or b for a, b in read} == HANDLED - {"$schema", "title", "description"}
