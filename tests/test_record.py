"""Record against its reference, ``dataclasses``: for five of the value
classes, a dataclass twin with the same fields must behave the same; and
every value class's generated ``__init__`` takes its fields and class-body
defaults."""

import ast
import builtins
import dataclasses
import functools
import inspect
import textwrap
from typing import List, Optional

import pytest

import simpvex  # noqa: F401 (defines every record class)
from simpvex.bounds import BoundValue, FunctionModel
from simpvex.expr import Num, Var
from simpvex.invexity import Domain, PropertyReport
from simpvex.record import FrozenInstanceError, Record, factory, replace
from simpvex.runner import CaseResult
from simpvex.scan import CellTable


def _twin(cls, fields, frozen=True):
    return dataclasses.make_dataclass(
        cls.__name__, fields, frozen=frozen,
        namespace={"__post_init__": cls.__dict__["__post_init__"]}
        if "__post_init__" in cls.__dict__ else {})


def _none():
    return dataclasses.field(default=None)


def _list():
    return dataclasses.field(default_factory=list)


TWINS = {
    Domain: _twin(Domain, ["lo", "hi"]),
    BoundValue: _twin(BoundValue, ["theorem", "q", "p", "rhs", "slack"]),
    PropertyReport: _twin(PropertyReport, ["property", "verdict", "worst_violation", "witness",
                                           "samples", ("exponent_q", Optional[float], _none())]),
    CaseResult: _twin(CaseResult, ["name", "verdict"] + [
        (name, object, _none()) for name in ("eta_step", "defect", "lemma", "identity_residual")
    ] + [(name, List, _list()) for name in ("bounds", "hypotheses", "notes", "golden_failures")]
      + [("error", Optional[str], _none())], frozen=False),
    CellTable: _twin(CellTable, list(CellTable._fields)),
}

# (positional, keyword) arguments of valid instances, two per class, unequal
VALID = {
    Domain: [((0.0, 1.0), {}), ((-2.0,), {"hi": 0.5})],
    BoundValue: [(("T3.1", None, None, 0.25, 0.1), {}),
                 (("T3.2", 2.0), {"p": 2.0, "rhs": 0.5, "slack": -1e-3})],
    PropertyReport: [(("preinvex", "verified_on_samples", -1e-3, None, 10), {}),
                     (("preinvex", "violated", 0.5, (0.0, 1.0, 0.5), 10, 2.0), {})],
    CaseResult: [(("c", "pass"), {}),
                 (("c", "violation", 1.0), {"notes": ["n"], "error": "e"})],
    # tuples for the table's lists and arrays, so that both can be hashed
    CellTable: [(((0.0, 1.0), (2.0, 3.0), (0, 1)) + ((),) * 13, {}),
                (((0.0,), (2.0,), (0, 1), (0.5,), (0.25,), (0,), (0,)),
                 dict(dict.fromkeys(CellTable._fields[7:], (0.5,)), steps=(2.0,)))],
}

# argument lists the shared __init__ must refuse as a generated one does
BAD_CALLS = [
    ((), {}),
    (("x",), {}),
    ((1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12), {}),
    ((1, 2), {"zzz": 3}),
    ((1, 2), {"name": 3, "lo": 3, "theorem": 3, "property": 3}),
    ((1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12), {"zzz": 3}),
    ((), {"verdict": "pass", "hi": 1.0, "q": 1.0, "samples": 1}),
]

CLASSES = list(TWINS)


def _both(cls, args, kwargs):
    return cls(*args, **kwargs), TWINS[cls](*args, **kwargs)


def _outcome(fn, *args, **kwargs):
    try:
        return "ok", repr(fn(*args, **kwargs))
    except Exception as exc:  # the type and text are compared
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("cls", CLASSES)
def test_fields_are_the_twins(cls):
    assert cls._fields == tuple(f.name for f in dataclasses.fields(TWINS[cls]))


@pytest.mark.parametrize("cls", CLASSES)
def test_repr_eq_and_hash_match_dataclasses(cls):
    (first, first_twin), (second, second_twin) = (_both(cls, *call) for call in VALID[cls])
    assert repr(first) == repr(first_twin)
    assert repr(second) == repr(second_twin)
    assert repr(Domain(0.0, 1.0)) == "Domain(lo=0.0, hi=1.0)"
    again, _ = _both(cls, *VALID[cls][0])
    assert (first == again, first != again) == (True, False)
    assert (first == second, first != second) == (False, True)
    # another class with equal field values is never equal, either way
    assert first != first_twin and first_twin != first
    assert first.__eq__(first_twin) is NotImplemented
    if cls is CaseResult:
        for record in (first, first_twin):
            with pytest.raises(TypeError, match="unhashable type: 'CaseResult'"):
                hash(record)
    else:
        assert hash(first) == hash(first_twin) == hash(again)
        assert hash(second) == hash(second_twin)


def test_records_of_two_classes_with_equal_fields_differ():
    assert Var("x") != Num("x") and hash(Var("x")) == hash(Num("x"))
    assert TWINS[Domain](0.0, 1.0) != _twin(Domain, ["lo", "hi"])(0.0, 1.0)


@pytest.mark.parametrize("cls", CLASSES)
def test_assignment_matches_dataclasses(cls):
    record, twin = _both(cls, *VALID[cls][0])
    name = cls._fields[0]
    for act in (lambda target: setattr(target, name, "new"),
                lambda target: setattr(target, "other", 7),
                lambda target: delattr(target, name)):
        got = _outcome(act, record)
        assert got == _outcome(act, twin)
        assert got[0] == ("ok" if cls is CaseResult else "FrozenInstanceError")
    if cls is not CaseResult:
        assert issubclass(FrozenInstanceError, AttributeError)
        with pytest.raises(AttributeError):
            setattr(record, name, "new")


@pytest.mark.parametrize("cls", CLASSES)
@pytest.mark.parametrize("args, kwargs", BAD_CALLS)
def test_argument_errors_match_dataclasses(cls, args, kwargs):
    got = _outcome(cls, *args, **kwargs)
    assert got[0] == "TypeError"
    assert got == _outcome(TWINS[cls], *args, **kwargs)


def test_each_instance_gets_a_fresh_default_list():
    for cls in (CaseResult, TWINS[CaseResult]):
        first, second = cls("a", "pass"), cls("a", "pass")
        for name in ("bounds", "hypotheses", "notes", "golden_failures"):
            assert getattr(first, name) == [] and getattr(first, name) is not getattr(second, name)
            assert name not in cls.__dict__
        first.notes.append("n")
        assert second.notes == []


POST_INIT_FAILURES = [
    (Domain, (1.0, 1.0)),
    (Domain, (0.0, float("nan"))),
    (BoundValue, ("T3.1", None, None, -1.0, 0.0)),
    (PropertyReport, ("preinvex", "maybe", 0.0, None, 1)),
    (PropertyReport, ("preinvex", "violated", 1.0, None, 1)),
]


@pytest.mark.parametrize("cls, args", POST_INIT_FAILURES)
def test_post_init_errors_match_dataclasses(cls, args):
    got = _outcome(cls, *args)
    assert got[0] == "ValueError"
    assert got == _outcome(TWINS[cls], *args)


# a change of each frozen class that its __post_init__ refuses
REFUSED = {Domain: {"hi": -5.0}, BoundValue: {"rhs": -1.0}, PropertyReport: {"verdict": "maybe"}}


@pytest.mark.parametrize("cls", CLASSES)
def test_replace_matches_dataclasses(cls):
    record, twin = _both(cls, *VALID[cls][1])
    first, last = cls._fields[0], cls._fields[-1]
    for change in ({}, {first: -5.0 if cls is Domain else "other"}, {last: None}, {"zzz": 1},
                   REFUSED.get(cls, {})):
        assert _outcome(replace, record, **change) == _outcome(dataclasses.replace, twin, **change)
    copy = replace(record)
    assert copy == record and copy is not record


def test_post_init_runs_last_with_every_field_set():
    seen = []

    class Probe(Record):
        x: int
        y: int = 2
        items: list = factory(list)

        def __post_init__(self):
            seen.append((self.x, self.y, self.items))

    Probe(1)
    Probe(1, items=[3], y=4)
    assert seen == [(1, 2, []), (1, 4, [3])]


def test_a_field_without_default_after_one_with_a_default_is_refused():
    with pytest.raises(TypeError, match="non-default argument 'y' follows default argument"):
        class Bad(Record):
            x: int = 1
            y: int


def test_function_model_compiles_through_cached_properties():
    # the benchmark's tracer patches these class entries
    for name in ("f_fn", "df_fn"):
        assert isinstance(FunctionModel.__dict__[name], functools.cached_property)
    model = FunctionModel.from_config({"name": "m", "f": "x^2", "df": "2*x", "K": [0, 1]})
    assert model.f_fn is model.f_fn and model.f_fn(3.0) == 9.0
    # a frozen record: the cached values go to the instance dict, and a checked
    # d4sup cannot turn negative
    with pytest.raises(FrozenInstanceError):
        model.d4sup = -1.0


def _package_records():
    return [cls for cls in Record.__subclasses__() if cls.__module__.startswith("simpvex.")]


def _body_defaults(cls):
    """{field: its class-body default as a syntax tree, or None}, read from the source."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(cls))).body[0]
    return {node.target.id: node.value for node in tree.body if isinstance(node, ast.AnnAssign)}


@pytest.mark.parametrize("cls", _package_records(), ids=lambda cls: cls.__name__)
def test_each_generated_init_takes_the_fields_and_body_defaults(cls):
    body = _body_defaults(cls)
    params = list(inspect.signature(cls).parameters.values())
    assert [p.name for p in params] == list(cls._fields) == list(body)
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    made = {name: value.args[0].id for name, value in body.items()
            if isinstance(value, ast.Call) and value.func.id == "factory"}
    for p in params:
        if body[p.name] is None:
            assert p.default is p.empty, p.name
        elif p.name in made:  # a private sentinel, no class attribute
            assert p.default is not p.empty and p.name not in cls.__dict__, p.name
        else:
            assert p.default is cls.__dict__[p.name], p.name
    if made:  # the classes with factory fields set no __post_init__ checks
        required = [None] * sum(value is None for value in body.values())
        first, second = cls(*required), cls(*required)
        for name, make in made.items():
            assert getattr(first, name) == getattr(builtins, make)()
            assert getattr(first, name) is not getattr(second, name)


def test_every_value_class_of_the_package_is_checked():
    assert len(_package_records()) == 19
