import builtins
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import tempfile
from pathlib import Path
from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

# jsonschema is imported inside the tests that use it, so an interpreter without its
# compiled parts fails only those tests, and the rest of the module still runs

from simpvex import bounds, expr, invexity, quadrature, runner, scan
from simpvex.bounds import FunctionModel
from simpvex.cli import main
from simpvex.errors import (
    CaseConfigError,
    DomainError,
    EvalDomainError,
    PreconditionUnmet,
    QuadratureError,
    SimpvexError,
)
from simpvex.invexity import Domain, EtaMap, SampleGrid, _plan, check_invex_set
from simpvex.record import replace
from simpvex.runner import (
    CaseResult,
    Tolerances,
    aggregate_exit_code,
    load_case,
    load_corpus,
    run_case,
    run_corpus,
    tightness_scan,
)


def square_case(**overrides):
    cfg = {
        "name": "unit_square",
        "f": "x^2",
        "df": "2*x",
        "F": "(x^3)/3",
        "eta": {"kind": "difference"},
        "K": [0, 1],
        "a": 0,
        "b": 1,
        "q": [1, 2],
        "theorems": ["T3.1", "T3.2", "T4.1"],
    }
    cfg.update(overrides)
    return cfg


def test_corpus_loads_enough_cases():
    cases = load_corpus()
    assert len(cases) >= 12
    names = [c.name for c in cases]
    assert names == sorted(names)
    assert len(set(names)) == len(names)


def test_corpus_verdict_counts(corpus_report):
    counts = corpus_report.counts
    assert counts["cases"] == 15
    assert counts["pass"] == 14
    assert counts["hypothesis_unmet"] == 1
    assert counts["violation"] == 0
    assert counts["input_error"] == 0


def test_corpus_unmet_case_is_the_sin_one(corpus_report):
    unmet = [r for r in corpus_report.results if r.verdict == "hypothesis_unmet"]
    assert [r.name for r in unmet] == ["sin_midpoint"]
    assert any("C4.2" in note for note in unmet[0].notes)
    assert unmet[0].bounds == []


def test_corpus_filter_selects_substring():
    report = run_corpus(cases=load_corpus("x4"))
    assert [r.name for r in report.results] == ["poly_x4"]
    r = report.results[0]
    assert r.verdict == "pass"
    assert r.defect.defect == pytest.approx(1.0 / 120.0, abs=1e-14)
    assert r.golden_failures == []


def test_corpus_filter_without_match_is_empty():
    import jsonschema
    report = run_corpus(cases=load_corpus("no_such_case"))
    assert report.results == []
    assert report.counts["cases"] == 0
    jsonschema.validate(json.loads(report.to_json()), runner.report_schema())


def test_corpus_runs_are_byte_identical():
    a = run_corpus(cases=load_corpus("poly_x2")).to_json()
    b = run_corpus(cases=load_corpus("poly_x2")).to_json()
    assert a == b


def test_report_json_is_sorted_and_schema_valid(corpus_report):
    import jsonschema
    text = corpus_report.to_json()
    doc = json.loads(text)
    jsonschema.validate(doc, runner.report_schema())
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert "wall_time" not in text


def _report_cases():
    """One config per verdict, then one whose report holds a golden failure and a note."""
    return [
        square_case(),
        square_case(eta={"kind": "abs_example"}, K=[-1, 1], theorems=["T3.1"]),
        # f^(4) = 24, so a d4sup of 1 puts CLASSICAL's rhs below the defect
        square_case(f="x^4", df="4*x^3", F="x^5/5", d4sup=1.0, theorems=["CLASSICAL"]),
        square_case(eta={"kind": "expression", "value": "u-v"}),  # a negative step
        square_case(q=[1], theorems=["T3.2"], expected={"T3.1": {"rhs": 0.5, "tolerance": 1e-9}}),
    ]


def test_every_report_the_program_writes_passes_the_report_schema(tmp_path, capsys):
    import jsonschema
    # the program never checks the reports it writes; this test does, with jsonschema
    validator = jsonschema.Draft202012Validator(runner.report_schema())
    results = [run_case(load_case(cfg)) for cfg in _report_cases()]
    assert [r.verdict for r in results] == [
        "pass", "hypothesis_unmet", "violation", "input_error", "pass"]
    assert results[3].error == "InvalidEta: eta step must be finite and > 0, got -1.0"
    assert results[4].golden_failures == ["T3.1: bound was not evaluated"]
    assert results[4].notes == ["T3.2 needs q > 1 but the case lists none"]
    validator.validate(json.loads(runner.RunReport(results, 0.0).to_json()))
    for i, (cfg, result) in enumerate(zip(_report_cases(), results)):
        path = tmp_path / f"case_{i}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        main(["--quiet", "check", str(path)])
        doc = json.loads(capsys.readouterr().out)
        validator.validate(doc)
        assert doc["cases"] == [result.to_dict()]
    assert main(["--quiet", "corpus"]) == 0
    doc = json.loads(capsys.readouterr().out)
    validator.validate(doc)
    assert doc["counts"]["cases"] == len(load_corpus())


def test_to_json_reads_no_schema_file_and_checks_nothing(monkeypatch):
    def no_read(*args, **kwargs):
        raise AssertionError("to_json read a file")

    for owner, name in ((Path, "read_text"), (Path, "open"), (builtins, "open")):
        monkeypatch.setattr(owner, name, no_read)
    # a case name must be a string in the report schema; a hand-built result is written as is
    text = runner.RunReport([CaseResult(1, "pass")], 0.0).to_json()
    assert json.loads(text)["cases"][0]["case"] == 1


def test_report_csv_shape(corpus_report):
    lines = corpus_report.to_csv().strip().split("\n")
    assert lines[0] == ("case,verdict,theorem,q,p,rhs,slack,defect,"
                        "quadrature_error,identity_residual")
    bound_rows = sum(len(r.bounds) or 1 for r in corpus_report.results)
    assert len(lines) == 1 + bound_rows
    assert any(line.startswith("poly_x2,pass,T3.1,") for line in lines)


@pytest.mark.parametrize("name", ['a,b "x"\ny', "a\rb", "a\r\nb", "a\nb", 'a"', "a,"])
def test_report_csv_quotes_a_name_holding_a_comma_a_quote_and_a_newline(name):
    bound = bounds.BoundValue("T3.2", 2.0, 2.0, 0.5, None)
    report = runner.RunReport([CaseResult(name, "pass", bounds=[bound]),
                               CaseResult(name, "input_error", error="bad")], 0.0)
    rows = list(csv.reader(io.StringIO(report.to_csv())))
    assert [len(row) for row in rows] == [10, 10, 10]
    assert rows[1] == [name, "pass", "T3.2", "2.0", "2.0", "0.5", "", "", "", ""]
    assert rows[2] == [name, "input_error", "", "", "", "", "", "", "", ""]


@pytest.mark.parametrize("eta, K, message", [
    ({"kind": "difference", "value": "0.5*(v-u)"}, [0, 1],
     "case 'unit_square': bad eta: eta kind 'difference' takes no 'value'"),
    ({"kind": "difference"}, [-1e308, 1e308],
     "bad K in case 'unit_square': domain width hi - lo overflows, got [-1e+308, 1e+308]"),
])
def test_load_case_rejects_a_value_on_a_builtin_eta_and_a_K_too_wide(eta, K, message):
    with pytest.raises(CaseConfigError) as info:
        load_case(square_case(eta=eta, K=K))
    assert str(info.value) == message


def test_wrong_derivative_fixture_rejected_at_load(data_dir):
    config = json.loads((data_dir / "bad_df.json").read_text())
    with pytest.raises(CaseConfigError) as info:
        load_case(config)
    assert "disagrees" in str(info.value)


def test_nan_derivative_rejected_at_load():
    with pytest.raises(CaseConfigError) as info:
        load_case(square_case(f="x", df="1 + (x-x)*1e999", F="x^2/2"))
    assert "disagrees" in str(info.value) and "df=nan" in str(info.value)


def test_invalid_eta_fixture_is_an_input_error(data_dir):
    config = json.loads((data_dir / "invalid_eta.json").read_text())
    case = load_case(config)
    result = run_case(case)
    assert result.verdict == "input_error"
    assert result.error.startswith("InvalidEta")
    assert "-2.0" in result.error
    assert result.bounds == []


def test_load_case_schema_rejections():
    bad = square_case()
    del bad["df"]
    with pytest.raises(CaseConfigError) as info:
        load_case(bad)
    assert "case config invalid" in str(info.value)
    with pytest.raises(CaseConfigError):
        load_case(square_case(q=[0.5]))
    with pytest.raises(CaseConfigError):
        load_case(square_case(theorems=["T9.9"]))
    with pytest.raises(CaseConfigError):
        load_case(square_case(eta={"kind": "mystery"}))
    with pytest.raises(CaseConfigError):
        load_case(square_case(extra_field=1))


def _schema_rejections():
    missing_df = square_case()
    del missing_df["df"]
    return [missing_df, square_case(q=["0.5"]), square_case(theorems=[1]),
            square_case(eta={"kind": None}), square_case(extra_field=1)]


def test_load_case_schema_messages_match_jsonschema_validate():
    import jsonschema
    for bad in _schema_rejections():
        with pytest.raises(jsonschema.ValidationError) as want:
            jsonschema.validate(bad, runner.case_schema())
        path = "/".join(str(p) for p in want.value.absolute_path) or "<root>"
        with pytest.raises(CaseConfigError) as got:
            load_case(bad)
        assert str(got.value) == f"case config invalid at {path}: {want.value.message}"


def test_mutating_a_returned_schema_does_not_change_validation():
    runner.case_schema().clear()
    schema = runner.case_schema()
    schema["additionalProperties"] = True
    schema["required"] = []
    assert runner.case_schema() != schema
    with pytest.raises(CaseConfigError):
        load_case(square_case(extra_field=1))


def test_load_case_requires_d4sup_for_classical():
    with pytest.raises(CaseConfigError) as info:
        load_case(square_case(theorems=["CLASSICAL"]))
    assert "d4sup" in str(info.value)
    case = load_case(square_case(theorems=["CLASSICAL"], d4sup=0.0))
    result = run_case(case)
    assert result.verdict == "pass"
    assert result.bounds[0].rhs == 0.0


def test_load_case_rejects_unparsable_expression():
    with pytest.raises(CaseConfigError) as info:
        load_case(square_case(f="x +"))
    assert "bad expression" in str(info.value)


def test_each_expression_compiles_once_in_the_model_or_eta_that_owns_it(monkeypatch):
    calls = []
    compile_expr = expr.compile_expr

    def counted(tree, var_order):
        calls.append(var_order)
        return compile_expr(tree, var_order)

    monkeypatch.setattr(expr, "compile_expr", counted)
    case = load_case(square_case())
    assert calls == [("x",)] * 3  # f, df and F; the derivative gate reuses f and df
    assert run_case(case).verdict == "pass"
    assert len(calls) == 3
    calls.clear()
    case = load_case(square_case(eta={"kind": "expression", "value": "v - u"}))
    assert sorted(calls) == [("v", "u")] + [("x",)] * 3
    run_case(case)
    assert len(calls) == 4


def sum_case(terms):
    """x + ... + x with df 1 + ... + 1: a parse tree one level deeper per term."""
    return square_case(name=f"sum_{terms}", f="+".join(["x"] * terms),
                       df="+".join(["1"] * terms), F=None, q=[1], theorems=["T3.1"])


def test_a_900_term_sum_gets_a_verdict():
    result = run_case(load_case(sum_case(900)), SampleGrid(nu=5, nv=5, nt=3, random_triples=20))
    assert result.verdict == "pass"
    assert result.bounds[0].rhs == pytest.approx(5.0 / 72.0 * 1800.0)


def test_a_sum_too_deep_to_compile_is_a_config_error():
    with pytest.raises(CaseConfigError) as info:
        load_case(sum_case(3000))
    assert str(info.value) == "case 'sum_3000': an expression is nested too deeply"


def test_an_antiderivative_check_that_cannot_converge_is_a_config_error():
    cfg = square_case(name="exp_wide", f="exp(x)", df="exp(x)", F="exp(x)", K=[0, 20], b=20)
    with pytest.raises(CaseConfigError) as info:
        load_case(cfg)
    message = str(info.value)
    assert message.startswith("model 'exp_wide': cannot integrate f on [0.0, 20.0] to check F: ")
    assert isinstance(info.value.__cause__, QuadratureError)


def test_an_eta_failing_at_b_a_loads_and_is_an_input_error():
    # the F gate skips the case interval where eta(b, a) fails; run_case words the failure
    case = load_case(square_case(eta={"kind": "expression", "value": "log(v-u)"},
                                 a=0.8, b=0.2))
    result = run_case(case)
    assert (result.verdict, result.error) == (
        "input_error", "EvalDomainError: log of non-positive argument in log((v - u)) "
                       "at -0.6000000000000001")
    assert result.hypotheses == [] and result.bounds == []


def test_run_case_flags_point_outside_domain():
    case = load_case(square_case(b=2, K=[0, 1]))
    result = run_case(case)
    assert result.verdict == "input_error"
    assert result.error.startswith("DomainError")


# bad paths on K = [0, 1] as (a, eta, what each entry raises): each eta is a
# constant, so eta(b, a) is that one step at every b
_BAD_PATHS = [
    (0.25, "0", "InvalidEta: eta step must be finite and > 0, got 0.0"),
    (0.25, "-0.25", "InvalidEta: eta step must be finite and > 0, got -0.25"),
    (0.25, "1e308*10 - 1e308*10", "InvalidEta: eta step must be finite and > 0, got nan"),
    (0.25, "1e308*10", "InvalidEta: eta step must be finite and > 0, got inf"),
    (5.0, "2", "DomainError: path endpoint 5.0 outside [0.0, 1.0]"),
    (-2.0, "1", "DomainError: path endpoint -2.0 outside [0.0, 1.0]"),
    (0.5, "1", "DomainError: path endpoint 1.5 outside [0.0, 1.0]"),
]
# every public entry taking (a, step), called with b = 0.5 and q = 2 where it takes them
_PATH_ENTRIES = {
    "simpson_defect": lambda m, a, b, step: bounds.simpson_defect(m, a, step),
    "lemma_rhs": lambda m, a, b, step: bounds.lemma_rhs(m, a, step),
    "midpoint_gap": lambda m, a, b, step: bounds.midpoint_gap(m, a, step),
    "bound_T3_1": lambda m, a, b, step: bounds.bound_T3_1(m, a, b, step),
    "bound_T3_2": lambda m, a, b, step: bounds.bound_T3_2(m, a, b, step, 2.0),
    "bound_T3_3": lambda m, a, b, step: bounds.bound_T3_3(m, a, b, step, 2.0),
    "bound_T3_4": lambda m, a, b, step: bounds.bound_T3_4(m, a, b, step, 2.0),
    "bound_T4_1": lambda m, a, b, step: bounds.bound_T4_1(m, a, b, step, 2.0),
    "bound_T4_2": lambda m, a, b, step: bounds.bound_T4_2(m, a, b, step, 2.0),
    "bound_T4_3": lambda m, a, b, step: bounds.bound_T4_3(m, a, b, step, 2.0),
    "bound_C4_2_midpoint": lambda m, a, b, step: bounds.bound_C4_2_midpoint(m, a, b, step),
    "bound_classical": lambda m, a, b, step: bounds.bound_classical(m, a, step),
}


@pytest.mark.parametrize("a, eta, error", _BAD_PATHS)
def test_every_entry_taking_a_step_rejects_a_bad_path_alike(a, eta, error):
    # one path rule (bounds._require_path): the same exception and wording from
    # every bound entry, the defect's building blocks and run_case's error field
    assert {name for name in bounds.__all__ if name.startswith("bound_")} <= set(_PATH_ENTRIES)
    model = _model("x^4", "4*x^3", "(x^5)/5", K=(0.0, 1.0), d4sup=24.0)
    eta_map = EtaMap.from_expression(eta)
    raised = {}
    for name, entry in _PATH_ENTRIES.items():
        with pytest.raises(SimpvexError) as info:
            entry(model, a, 0.5, eta_map(0.5, a))
        raised[name] = f"{type(info.value).__name__}: {info.value}"
    case = runner.CorpusCase("path", model, eta_map, a, 0.5, (1.0, 2.0),
                             runner.THEOREM_IDS, runner.DEFAULT_TOLERANCES)
    raised["run_case"] = run_case(case).error
    assert raised == dict.fromkeys(raised, error)


def test_run_case_checks_b_after_the_path():
    # b is not on the path [a, a + eta(b, a)]; the path's own failure comes first
    result = run_case(load_case(square_case(eta={"kind": "expression", "value": "0.5"},
                                            a=0.25, b=1.5)))
    assert (result.verdict, result.error, result.eta_step) == (
        "input_error", "DomainError: b = 1.5 outside [0.0, 1.0]", None)
    result = run_case(load_case(square_case(a=0.5, b=1.5)))
    assert result.error == "DomainError: path endpoint 1.5 outside [0.0, 1.0]"


_EIGHTHS = st.integers(-12, 12).map(lambda k: k / 8.0)


@given(_EIGHTHS, _EIGHTHS,
       st.sampled_from(["v-u", "u-v", "0.5*(v-u)", "2*(v-u)", "v-u+0.25", "0*(v-u)"]))
@settings(max_examples=150)
def test_a_one_cell_scan_ranks_classical_exactly_where_run_case_finds_the_path_usable(
        a, b, eta):
    # a and b in eighths of [-1.5, 1.5], K = [-1, 1]: some paths leave K and some
    # steps are <= 0, and no step is so small that d4sup step^4 / 2880 underflows,
    # so the path alone decides whether the cell ranks
    model = _model("x^4", "4*x^3", "(x^5)/5", K=(-1.0, 1.0), d4sup=24.0)
    eta_map = EtaMap.from_expression(eta)
    case = runner.CorpusCase("cell", model, eta_map, a, b, (1.0,), ("CLASSICAL",),
                             runner.DEFAULT_TOLERANCES)
    error = run_case(case).error
    (result,) = tightness_scan(model, eta_map, model.domain, (a, a), (b, b), [1.0], 2,
                               ["CLASSICAL"])
    assert (result.status == "ok") == (error is None), (result, error)
    if error is None:
        assert (result.at_a, result.at_b) == (a, b) and result.ratio > 0.0


def test_run_case_notes_missing_large_exponent():
    case = load_case(square_case(q=[1], theorems=["T3.2"]))
    result = run_case(case)
    assert result.verdict == "pass"
    assert result.bounds == []
    assert any("needs q > 1" in note for note in result.notes)


def test_golden_mismatch_is_reported():
    cfg = square_case(expected={"T3.1": {"rhs": 0.99, "tolerance": 1e-12}})
    result = run_case(load_case(cfg))
    assert result.verdict == "pass"
    assert len(result.golden_failures) == 1
    assert "T3.1" in result.golden_failures[0]


def test_golden_missing_bound_is_reported():
    cfg = square_case(expected={"T3.3@2": {"rhs": 0.1, "tolerance": 1e-9}})
    result = run_case(load_case(cfg))
    assert result.golden_failures == ["T3.3@2: bound was not evaluated"]


NEEDS_FINITE = "expected 'T3.1' needs a finite rhs and a finite tolerance > 0, "


@pytest.mark.parametrize("key, entry, message", [
    ("T3.2@x", {"rhs": 0.2, "tolerance": 1e-9},
     "expected key 'T3.2@x' is not a theorem id with an optional '@q' for a finite q"),
    ("T3.2@", {"rhs": 0.2, "tolerance": 1e-9}, "expected key 'T3.2@' is not a theorem id"),
    ("T3.2@inf", {"rhs": 0.2, "tolerance": 1e-9}, "expected key 'T3.2@inf' is not a theorem id"),
    ("T9@2", {"rhs": 0.2, "tolerance": 1e-9}, "expected key 'T9@2' is not a theorem id"),
    ("T3.1", {"rhs": 123.0, "tolerance": math.nan}, NEEDS_FINITE + "got rhs 123.0, tolerance nan"),
    ("T3.1", {"rhs": math.inf, "tolerance": 1e-9}, NEEDS_FINITE + "got rhs inf, tolerance 1e-09"),
    ("T3.1", {"rhs": 0.2, "tolerance": math.inf}, NEEDS_FINITE + "got rhs 0.2, tolerance inf"),
    # keys no bound is labelled with: each would only ever read "bound was not evaluated"
    ("T3.1@1", {"rhs": 0.2, "tolerance": 1e-9},
     "expected key 'T3.1@1' can never match: T3.1 labels no bound q = 1.0"),
    ("C4.2@1", {"rhs": 0.2, "tolerance": 1e-9},
     "expected key 'C4.2@1' can never match: C4.2 labels no bound q = 1.0"),
    ("CLASSICAL@2", {"rhs": 0.2, "tolerance": 1e-9},
     "expected key 'CLASSICAL@2' can never match: CLASSICAL labels no bound q = 2.0"),
    ("C4.1@2", {"rhs": 0.2, "tolerance": 1e-9},
     "expected key 'C4.1@2' can never match: C4.1 labels no bound q = 2.0"),
    ("T3.2@1", {"rhs": 0.2, "tolerance": 1e-9},
     "expected key 'T3.2@1' can never match: T3.2 labels no bound q = 1.0"),
    ("T3.4@0.5", {"rhs": 0.2, "tolerance": 1e-9},
     "expected key 'T3.4@0.5' can never match: T3.4 labels no bound q = 0.5"),
])
def test_bad_expected_entries_are_config_errors(key, entry, message):
    # json.loads accepts NaN and Infinity; the case schema checks types only
    config = json.loads(json.dumps(square_case(expected={key: entry})))
    with pytest.raises(CaseConfigError) as info:
        load_case(config)
    assert f"case 'unit_square': {message}" in str(info.value)
    # a hand-built case gets a verdict, not a raise
    case = replace(load_case(square_case()),
                   expected={key: (entry["rhs"], entry["tolerance"])})
    result = run_case(case)
    assert result.verdict == "input_error"
    assert result.error.startswith(f"InvalidExpected: {message}")


def test_expected_keys_at_q_one_match_the_bounds_labelled_q_one():
    cfg = square_case(theorems=["T4.1", "T3.4", "C4.1"])
    rhs = {f"{bv.theorem}@1": bv.rhs for bv in run_case(load_case(cfg)).bounds if bv.q == 1.0}
    assert sorted(rhs) == ["C4.1@1", "T3.4@1", "T4.1@1"]
    matching = {key: {"rhs": value, "tolerance": 1e-12} for key, value in rhs.items()}
    assert run_case(load_case(dict(cfg, expected=matching))).golden_failures == []
    off = {key: {"rhs": value + 1.0, "tolerance": 1e-12} for key, value in rhs.items()}
    failures = run_case(load_case(dict(cfg, expected=off))).golden_failures
    assert [f.split(":")[0] for f in failures] == sorted(rhs)
    assert all("differs from expected" in f for f in failures)


def test_unmet_verdict_when_invex_set_fails():
    cfg = square_case(eta={"kind": "abs_example"}, K=[-1, 1], a=0, b=1,
                      theorems=["T3.1"])
    result = run_case(load_case(cfg))
    assert result.verdict == "hypothesis_unmet"
    assert any("not invex" in note for note in result.notes)


def test_c4_2_off_its_precondition_is_skipped_with_the_three_values():
    # no corpus case misses C4.2's precondition, so no digest pins this note
    cfg = square_case(q=[1], theorems=["C4.2"])
    result = run_case(load_case(cfg))
    want = "midpoint bound needs f(a) = f(mid) = f(end); got 0.0, 0.25, 1.0"
    assert result.verdict == "hypothesis_unmet"
    assert result.notes == [f"skipped C4.2: {want}"]
    with pytest.raises(PreconditionUnmet) as raised:
        bounds.bound_C4_2_midpoint(load_case(cfg).model, 0.0, 1.0, 1.0)
    assert str(raised.value) == want


def test_tolerances_merge():
    tol = Tolerances().merged({"oracle": 1e-9, "slack": 1e-10})
    assert tol.oracle == 1e-9
    assert tol.slack == 1e-10
    assert tol.invexity == 1e-12
    assert Tolerances().merged(None) == Tolerances()
    # an unset --tol-* flag passes None, which counts as absent
    assert Tolerances().merged({"oracle": None, "slack": 1e-10}) == Tolerances(slack=1e-10)
    for bad in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(CaseConfigError, match="tolerance slack must be finite and > 0"):
            Tolerances().merged({"slack": bad})


@pytest.mark.parametrize("field", Tolerances._fields)
@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_tolerances_check_themselves_however_built(field, bad):
    # hand-built or replaced sets meet the rule merged sets meet
    message = f"tolerance {field} must be finite and > 0, got {bad!r}"
    for build in (lambda: Tolerances(**{field: bad}),
                  lambda: replace(Tolerances(), **{field: bad})):
        with pytest.raises(CaseConfigError) as info:
            build()
        assert str(info.value) == message


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_sin_midpoint_cannot_be_made_to_pass_through_its_tolerances(bad):
    # a NaN invexity tolerance flagged no excess, so C4.2's unmet hypothesis passed
    case = load_corpus("sin_midpoint")[0]
    assert run_case(case).verdict == "hypothesis_unmet"
    for field in Tolerances._fields:
        with pytest.raises(CaseConfigError, match=f"tolerance {field} must be finite and > 0"):
            replace(case, tolerances=Tolerances(**{field: bad}))


@pytest.mark.parametrize("overrides, message", [
    ({"K": [1, 0]}, "domain needs lo < hi, got [1.0, 0.0]"),
    ({"K": [0, math.inf]}, "domain needs lo < hi, got [0.0, inf]"),
    ({"q": [math.nan]}, "every q must be finite and >= 1, got [nan]"),
    ({"tolerances": {"oracle": math.nan}}, "tolerance oracle must be finite and > 0, got nan"),
    ({"tolerances": {"slack": 0}}, "tolerance slack must be finite and > 0, got 0.0"),
    ({"d4sup": -0.5}, "d4sup must be a finite value >= 0, got -0.5"),
    ({"eta": {"kind": "mystery"}}, "bad eta: unknown eta kind 'mystery'"),
])
def test_load_case_turns_bad_numbers_into_config_errors(overrides, message):
    # json.loads accepts NaN and Infinity; the case schema checks types only
    config = json.loads(json.dumps(square_case(**overrides)))
    with pytest.raises(CaseConfigError) as info:
        load_case(config)
    assert message in str(info.value)


@pytest.mark.parametrize("field", ["a", "b"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_non_finite_a_or_b_is_a_config_error(field, value):
    ends = dict({"a": 0.0, "b": 1.0}, **{field: value})
    message = f"a and b must be finite, got a = {ends['a']!r}, b = {ends['b']!r}"
    config = json.loads(json.dumps(square_case(**{field: value})))
    with pytest.raises(CaseConfigError) as info:
        load_case(config)
    assert str(info.value) == f"case 'unit_square': {message}"
    # a hand-built case gets a verdict, not a raise
    result = run_case(replace(load_case(square_case()), **{field: value}))
    assert result.verdict == "input_error"
    assert result.error == f"InvalidInterval: {message}"


def test_theorem_ids_match_the_report_schema_enum():
    bounds_entry = runner.report_schema()["$defs"]["case_entry"]["properties"]["bounds"]
    assert bounds_entry["items"]["properties"]["theorem"]["enum"] == list(runner.THEOREM_IDS)
    # the case schema checks shape only: bounds.THEOREMS is the one list of ids
    case_schema = json.dumps(runner.case_schema())
    assert not [theorem for theorem in runner.THEOREM_IDS if theorem in case_schema]


def _model(f, df, F=None, K=(-1.5, 1.5), d4sup=None):
    cfg = {"name": "scan", "f": f, "df": df, "F": F, "d4sup": d4sup, "K": list(K)}
    return FunctionModel.from_config(cfg)


def test_tightness_quartic_classical_is_sharp():
    model = _model("x^4", "4*x^3", "(x^5)/5", d4sup=24.0)
    results = tightness_scan(model, EtaMap.difference(), Domain(-1.5, 1.5),
                             (0.0, 0.0), (1.0, 1.0), [2.0], steps=2,
                             theorems=("CLASSICAL",))
    assert len(results) == 1
    r = results[0]
    assert r.status == "ok"
    assert abs(r.ratio - 1.0) <= 1e-9
    assert (r.at_a, r.at_b) == (0.0, 1.0)


def test_tightness_exp_endpoint_mean_ratio():
    model = _model("exp(x)", "exp(x)", "exp(x)", K=(0.0, 1.0))
    results = tightness_scan(model, EtaMap.difference(), Domain(0.0, 1.0),
                             (0.0, 0.0), (1.0, 1.0), [2.0], steps=2,
                             theorems=("T3.1",))
    assert results[0].status == "ok"
    assert results[0].ratio == pytest.approx(0.0022435785122142391, rel=1e-10)


def test_hinge_extremal_model_meets_the_sharp_convex_constant():
    # f' = -(1 - 4t)_+ on [0, 1]: |f'| convex, |defect| = (|f'(a)| + |f'(b)|)/96, the sup over
    # convex |f'| (ROADMAP item 13), so T3.1's 5/72 is loose by 0.15 and T4.1's 5/36 by 0.075
    result = run_case(load_case(square_case(
        name="hinge_extremal", f="if(x < 0.25, 2*x^2 - x, -0.125)",
        df="if(x < 0.25, 4*x - 1, 0)",
        F="if(x < 0.25, 2*x^3/3 - x^2/2, -1/48 - 0.125*(x - 0.25))",
        q=[1], theorems=["T3.1", "T4.1", "C4.1"])))
    assert result.verdict == "pass"
    assert [h.verdict for h in result.hypotheses] == ["verified_on_samples"] * 3
    lhs = abs(result.defect.defect)
    assert lhs == pytest.approx(1.0 / 96.0, rel=0.0, abs=1e-12)
    ratios = {b.theorem: lhs / b.rhs for b in result.bounds}
    assert ratios == pytest.approx({"T3.1": 0.15, "T4.1": 0.075, "C4.1": 0.075},
                                   rel=0.0, abs=1e-12)


def test_tightness_skips_exponentless_theorems():
    model = _model("x^2", "2*x", "(x^3)/3", K=(0.0, 1.0))
    results = tightness_scan(model, EtaMap.difference(), Domain(0.0, 1.0),
                             (0.0, 0.0), (1.0, 1.0), [1.0], steps=2,
                             theorems=("T3.2",))
    assert results[0].status == "all_skipped"
    assert results[0].ratio is None


def test_tightness_skips_classical_without_d4sup():
    model = _model("x^2", "2*x", "(x^3)/3", K=(0.0, 1.0))
    results = tightness_scan(model, EtaMap.difference(), Domain(0.0, 1.0),
                             (0.0, 0.0), (1.0, 1.0), [2.0], steps=2,
                             theorems=("CLASSICAL",))
    assert results[0].status == "all_skipped"
    assert results[0].skipped == results[0].cells


def test_tightness_skips_when_invex_set_fails():
    model = _model("x^2", "2*x", "(x^3)/3", K=(-1.0, 1.0))
    results = tightness_scan(model, EtaMap.abs_example(), Domain(-1.0, 1.0),
                             (-1.0, -0.5), (0.5, 1.0), [1.0], steps=2,
                             theorems=("T3.1",))
    assert results[0].status == "all_skipped"


def test_tightness_validates_steps():
    model = _model("x^2", "2*x", "(x^3)/3", K=(0.0, 1.0))
    with pytest.raises(ValueError):
        tightness_scan(model, EtaMap.difference(), Domain(0.0, 1.0),
                       (0.0, 0.0), (1.0, 1.0), [1.0], steps=1)


@pytest.mark.parametrize("q", [math.nan, math.inf, 0.5])
def test_tightness_rejects_bad_exponents_before_sweeping(q, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("swept before validating the exponents")

    monkeypatch.setattr(runner, "check_invex_set", no_sweep)
    monkeypatch.setattr(runner, "hypothesis_pair", no_sweep)
    model = _model("x^2", "2*x", "(x^3)/3", K=(0.0, 1.0))
    with pytest.raises(ValueError, match=r"every q must be finite and >= 1, got \[1.0, "):
        tightness_scan(model, EtaMap.difference(), Domain(0.0, 1.0),
                       (0.0, 0.0), (1.0, 1.0), [1.0, q], steps=2, theorems=("T4.1",))


def test_tightness_rejects_unknown_theorem_before_sweeping(monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("swept before validating theorem ids")

    monkeypatch.setattr(runner, "check_invex_set", no_sweep)
    monkeypatch.setattr(runner, "hypothesis_pair", no_sweep)
    model = _model("x^2", "2*x", "(x^3)/3", K=(0.0, 1.0))
    with pytest.raises(ValueError, match="unknown theorem id 'T9'"):
        tightness_scan(model, EtaMap.difference(), Domain(0.0, 1.0),
                       (0.0, 0.0), (1.0, 1.0), [1.0], steps=2, theorems=("T3.1", "T9"))


@pytest.mark.parametrize("q_list, theorems, message", [
    ([2.0, 2.0], ("T3.2",), "q 2.0 is listed more than once"),
    ([2.0], ("T3.2", "T4.1", "T3.2"), "theorem 'T3.2' is listed more than once"),
], ids=["q", "theorem"])
def test_tightness_rejects_repeats_before_sweeping(q_list, theorems, message, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("swept before rejecting a repeat")

    monkeypatch.setattr(runner, "check_invex_set", no_sweep)
    monkeypatch.setattr(runner, "hypothesis_pair", no_sweep)
    model = _model("x^2", "2*x", "(x^3)/3", K=(0.0, 1.0))
    with pytest.raises(ValueError) as info:
        tightness_scan(model, EtaMap.difference(), Domain(0.0, 1.0),
                       (0.0, 0.4), (0.6, 1.0), q_list, steps=3, theorems=theorems)
    assert str(info.value) == message


TWO_PI = "6.283185307179586"
# f(0) = f(1/2) = f(1) = 0 and the mean of f on [0, 1] is 1/2, so C4.2's
# precondition holds with a nonzero gap; no corpus case has one.  On this
# coarse grid C4.2's hypothesis holds too.
SIN2 = dict(name="sin2_midpoint", f=f"sin({TWO_PI}*x)^2",
            df=f"2*{TWO_PI}*sin({TWO_PI}*x)*cos({TWO_PI}*x)", F=None,
            K=[0, 1.5], a=0, b=1, q=[1, 2], theorems=["T3.1", "T4.2", "C4.1", "C4.2"])
SIN2_GRID = SampleGrid(2, 2, 2, random_triples=0)


def _runs(corpus_report):
    """(case, run_case result, grid) over the corpus and the C4.2 nonzero-gap case."""
    results = {r.name: r for r in corpus_report.results}
    runs = [(case, results[case.name], runner.DEFAULT_GRID) for case in load_corpus()]
    sin2 = load_case(square_case(**SIN2))
    runs.append((sin2, run_case(sin2, SIN2_GRID), SIN2_GRID))
    return runs


def test_one_cell_scan_matches_run_case(corpus_report):
    for case, result, grid in _runs(corpus_report):
        scans = tightness_scan(case.model, case.eta, case.model.domain,
                               (case.a, case.a), (case.b, case.b), case.q_list, steps=2,
                               theorems=case.theorems, tolerances=case.tolerances, grid=grid)
        assert [s.theorem for s in scans] == list(case.theorems)
        for scan in scans:
            if scan.theorem == "C4.2":
                lhs = abs(bounds.midpoint_gap(case.model, case.a, result.eta_step,
                                              case.tolerances.oracle)[0])
            else:
                lhs = abs(result.defect.defect)
            ratios = [lhs / bv.rhs for bv in result.bounds
                      if bv.theorem == scan.theorem and bv.rhs != 0.0]
            if ratios:
                assert scan.status == "ok", (case.name, scan.theorem)
                assert scan.ratio == max(ratios), (case.name, scan.theorem)
            else:
                assert scan.status == "all_skipped", (case.name, scan.theorem)


def test_aggregate_exit_codes():
    def res(verdict):
        return CaseResult(name="r", verdict=verdict)

    assert aggregate_exit_code([res("pass")]) == 0
    assert aggregate_exit_code([]) == 0
    assert aggregate_exit_code([res("pass"), res("hypothesis_unmet")]) == 0
    assert aggregate_exit_code([res("pass"), res("hypothesis_unmet")], strict=True) == 2
    assert aggregate_exit_code([res("input_error"), res("pass")]) == 3
    assert aggregate_exit_code([res("violation"), res("input_error")], strict=True) == 1


def test_case_schema_accepts_bundled_corpus():
    import jsonschema
    schema = runner.case_schema()
    raw_docs = [json.loads(entry.read_text(encoding="utf-8"))
                for entry in runner._corpus_dir().iterdir()
                if entry.name.endswith(".json")]
    assert len(raw_docs) >= 12
    for doc in raw_docs:
        jsonschema.validate(doc, schema)


def test_run_case_with_custom_grid_is_faster_but_consistent():
    small = SampleGrid(nu=9, nv=9, nt=5, random_triples=50)
    case = load_case(square_case())
    result = run_case(case, grid=small)
    assert result.verdict == "pass"
    assert result.hypotheses[0].samples == 9 * 9 * 5 + 50


def test_bundled_schemas_pass_their_metaschema():
    from jsonschema.validators import validator_for
    schema_dir = runner._PACKAGE_DIR / "schemas"
    names = sorted(e.name for e in schema_dir.iterdir() if e.name.endswith(".json"))
    assert names == ["case_schema.json", "report_schema.json"]
    for name in names:
        schema = json.loads(schema_dir.joinpath(name).read_text(encoding="utf-8"))
        validator_for(schema).check_schema(schema)


STEEP = dict(f="100*x^3", df="300*x^2", F="25*x^4", K=[0, 2], a=0, b=2)
# on K = [0, 1], |f'| = 10 sqrt(x) is prequasiinvex (increasing) but not preinvex
# (concave), so a scan sweeps each q > 1 of its preinvex pairs
ROOT_LAW = dict(f="20/3*x^1.5", df="10*sqrt(x)", F="8/3*x^2.5")


# f = x on K = [0, 1e100]: CLASSICAL's step^4 overflows for the step 1e100
WIDE_LINE = dict(name="wide_line", f="x", df="1", F=None, K=[0, 1e100], a=0, b=1e100, q=[1],
                 theorems=["CLASSICAL"], d4sup=0)


def test_run_case_turns_an_overflowing_rhs_into_input_error():
    result = run_case(load_case(square_case(**WIDE_LINE)), grid=SampleGrid(5, 5, 3, 20))
    assert result.verdict == "input_error"
    assert result.error == "OverflowError: rhs of CLASSICAL exceeds the float range"


def test_run_case_rescales_a_power_mean_whose_power_overflows():
    # |f'(b)|^2 overflows at b, which is no sample point and, with
    # eta(b, a) = (b - a) / 2, not on the path the lemma integrates; T3.4's rhs
    # at q = 2 rescales its powers by max(|f'(a)|, |f'(b)|) and stays finite
    model = _model("x", "1", "(x^2)/2", K=(0.0, 1.0))
    model.__dict__["df_fn"] = lambda x: 1e200 if x == 0.9 else 1.0  # a cached property
    case = runner.CorpusCase("huge_df_at_b", model, EtaMap.from_expression("0.5*(v-u)"), 0.1,
                             0.9, (1.0, 2.0), ("T3.4",), runner.DEFAULT_TOLERANCES)
    result = run_case(case, grid=SampleGrid(5, 5, 3, 20))
    assert (result.verdict, [bv.q for bv in result.bounds]) == ("pass", [1.0, 2.0])
    # (w x1^2 + w' x2^2)^(1/2) = sqrt(w') 1e200 to within 1e-400 relative, x1 = 1
    want = 0.4 * bounds._M1 ** 0.5 * 1e200 * (bounds._W_FAR ** 0.5 + bounds._W_END ** 0.5)
    assert result.bounds[1].rhs == pytest.approx(want, rel=1e-15)


def test_run_case_turns_sweep_overflow_into_input_error():
    # |f'|^149.9 overflows at |f'| > ~113, which 300*x^2 reaches on [0, 2]
    case = load_case(square_case(**STEEP, q=[149.9, 1], theorems=["T3.1", "T3.2", "T4.1"]))
    result = run_case(case)
    assert result.verdict == "input_error"
    assert result.error == ("OverflowError: hypothesis sweep of |f'|^q at q=149.9: "
                            "|f'|^q exceeds the float range")
    assert [bv.theorem for bv in result.bounds] == ["T3.1"]
    assert [h.exponent_q for h in result.hypotheses] == [None, 1.0, 1.0]


# f' = 1 except at one point, which no derivative-gate point hits, where it is NaN
NAN_DF_AT_B = {"name": "nan_df_at_b", "f": "x", "df": "if(x == 0.75, 0*(1e308*10), 1)",
               "K": [0, 1], "eta": {"kind": "expression", "value": "0.5*(v-u)"},
               "a": 0, "b": 0.75, "q": [1], "theorems": ["T3.1", "C4.1"]}


def test_run_case_turns_a_nan_derivative_at_b_into_input_error():
    # the sweeps skip the NaN sample; the bound's rhs would be NaN
    result = run_case(load_case(NAN_DF_AT_B))
    assert result.verdict == "input_error"
    assert result.error == ("EvalDomainError: T3.1 needs |f'(a)| and |f'(b)|: NaN value in "
                            "if((x == 0.75), (0.0 * (1e+308 * 10.0)), 1.0) at 0.75")
    assert result.bounds == []


INF_DF_AT_B = {"name": "inf_df_at_b", "f": "2*x", "df": "if(x == 1, 1e308*1e308, 2)",
               "K": [0, 1], "eta": {"kind": "expression", "value": "0.5*(v-u)"},
               "a": 0.2, "b": 1.0, "theorems": ["T3.1", "T3.2", "T3.3", "T3.4", "T4.1", "T4.2",
                                                "T4.3"]}


@pytest.mark.parametrize("q", [100.0, 150.0])
def test_run_case_gives_an_infinite_rhs_for_an_infinite_derivative_at_b(q):
    # above q = 100 the T3.2-T3.4 powers are rescaled by max(|f'(a)|, |f'(b)|), here inf
    result = run_case(load_case(dict(INF_DF_AT_B, q=[1, q])))
    assert result.verdict == "pass"
    assert [(bv.theorem, bv.q) for bv in result.bounds] == [
        ("T3.1", None), ("T3.2", q), ("T3.3", q), ("T3.4", 1.0), ("T3.4", q), ("T4.1", 1.0),
        ("T4.1", q), ("T4.2", q), ("T4.3", q)]
    assert all(bv.rhs == math.inf for bv in result.bounds)
    doc = json.loads(runner.RunReport([result], 0.0).to_json())
    assert [bound["rhs"] for bound in doc["cases"][0]["bounds"]] == [math.inf] * 9


def test_the_q_1_note_sweeps_no_q_the_case_does_not_list():
    # |f'|^40 fails its sampled check (an excess of 5632.0 on values near 3^40: rounding)
    cfg = square_case(f="2*x+x^3/3", df="2+x^2", F=None, q=[40],
                      theorems=["T3.2", "T3.4", "T4.2"])
    result = run_case(load_case(cfg))
    assert result.verdict == "hypothesis_unmet"
    assert [(h.property, h.exponent_q) for h in result.hypotheses] == [
        ("invex_set", None), ("preinvex", 40.0), ("prequasiinvex", 40.0)]
    assert not [note for note in result.notes if note.startswith("note: ")]
    # listed, q = 1 is swept and the note written
    result = run_case(load_case(dict(cfg, q=[1, 40])))
    assert "note: |f'| is preinvex at q=1 but |f'|^q fails at q=40" in result.notes


@pytest.mark.parametrize("at", [0.75, 0.0], ids=["b", "a"])
def test_scan_skips_a_cell_whose_derivative_is_nan_at_a_or_b(at):
    model = _model("x", f"if(x == {at!r}, 0*(1e308*10), 1)", K=(0.0, 1.0))
    results = tightness_scan(model, EtaMap.from_expression("0.5*(v-u)"), Domain(0.0, 1.0),
                             (0.0, 0.0), (0.75, 0.75), [1.0], steps=2,
                             theorems=("T3.1", "C4.1", "T4.1"))
    assert [(r.theorem, r.status, r.cells, r.skipped) for r in results] == [
        (theorem, "all_skipped", 4, 4) for theorem in ("T3.1", "C4.1", "T4.1")]


def test_lemma_errors_name_the_point_of_K_where_f_prime_fails():
    cfg = dict(NAN_DF_AT_B, name="nan_df_at_a", f="x^2", df="if(x == 0.25, 0*(1e308*10), 2*x)",
               eta={"kind": "difference"}, a=0.25, b=0.75, theorems=["T3.1"])
    result = run_case(load_case(cfg))
    assert (result.verdict, result.error) == (
        "input_error", "NonFiniteIntegrand: integrand returned nan at x=0.25")


@pytest.mark.parametrize("q", [0.5, math.nan, math.inf])
def test_run_case_turns_a_bad_hand_built_q_into_input_error(q):
    # load_case rejects these q; a CorpusCase built by hand bypasses it
    case = replace(load_corpus("poly_x2")[0], q_list=(q,), theorems=("T3.4",))
    result = run_case(case, grid=SampleGrid(5, 5, 3, 20))
    assert result.verdict == "input_error"
    assert result.error == (f"InvalidExponent: every q must be finite and >= 1, "
                            f"got [{q!r}]")
    assert result.hypotheses == [] and result.bounds == []


def test_scan_skips_exponents_whose_sweep_overflows():
    # the root law's preinvex pairs sweep q = 400, where |f'|^q = 1e400 x^200
    # overflows
    model = _model(ROOT_LAW["f"], ROOT_LAW["df"], ROOT_LAW["F"], K=(0.0, 1.0))
    args = (model, EtaMap.difference(), Domain(0.0, 1.0), (0.0, 0.25), (0.75, 1.0))
    t32, t34 = tightness_scan(*args, [400.0], steps=3, theorems=("T3.2", "T3.4"))
    assert (t32.status, t32.cells, t32.skipped) == ("all_skipped", 9, 9)
    assert (t34.status, t34.cells, t34.skipped) == ("all_skipped", 9, 9)
    # STEEP's |f'| = 300 x^2 is preinvex at q = 1, which implies q = 149.9's
    # hypotheses, q = 1 listed or not: q = 149.9 is not swept, and its cells
    # rank on the rescaled rhs
    model = _model(STEEP["f"], STEEP["df"], STEEP["F"], K=(0.0, 2.0))
    args = (model, EtaMap.difference(), Domain(0.0, 2.0), (0.0, 0.5), (1.5, 2.0))
    t32, t34 = tightness_scan(*args, [149.9], steps=3, theorems=("T3.2", "T3.4"))
    assert (t32.status, t32.at_q, t32.cells, t32.skipped) == ("ok", 149.9, 9, 0)
    assert (t34.status, t34.at_q, t34.cells, t34.skipped) == ("ok", 149.9, 9, 0)
    t32, t34 = tightness_scan(*args, [149.9, 1.0], steps=3, theorems=("T3.2", "T3.4"))
    assert (t32.status, t32.at_q, t32.cells, t32.skipped) == ("ok", 149.9, 9, 0)
    assert (t34.status, t34.at_q, t34.cells, t34.skipped) == ("ok", 149.9, 18, 0)


# on K = [0, 2], |f'| = sqrt(x) + x^6/8 is increasing (prequasiinvex) and
# concave near 0 (not preinvex); its q = 1 preinvex witness, (0.0, 0.95, 0.2),
# reads a negative excess at q = 400, while |f'(2)|^400 = 9.4^400 overflows
SPIKE = dict(f="2/3*x^1.5 + x^7/56", df="sqrt(x) + x^6/8", F="4/15*x^2.5 + x^8/448")


def test_scan_sweeps_an_overflowing_exponent_once(monkeypatch):
    # every theorem at q = [400]: the three preinvex pairs at q = 400 pass their
    # witness, so the first is swept there, and the sweep overflows; the scan
    # remembers that and neither witnesses nor sweeps it again, as it sweeps
    # q = 1 once; the prequasiinvex pairs, implied by q = 1, still rank
    sweeps = _counting(monkeypatch, runner, "hypothesis_pair")
    witnesses = _counting(monkeypatch, runner, "preinvex_excess")
    model = _model(SPIKE["f"], SPIKE["df"], SPIKE["F"], K=(0.0, 2.0))
    results = tightness_scan(model, EtaMap.difference(), Domain(0.0, 2.0), (0.0, 0.5),
                             (1.5, 2.0), [400.0], steps=3)
    assert ([c[3] for c in sweeps], [c[3] for c in witnesses]) == ([1.0, 400.0], [400.0])
    status = {r.theorem: r.status for r in results}
    assert [status[t] for t in ("T3.2", "T3.3", "T3.4")] == ["all_skipped"] * 3
    assert [status[t] for t in ("T4.1", "T4.2", "T4.3")] == ["ok"] * 3


def test_scan_witnesses_an_overflowing_exponent_once(monkeypatch):
    # the root law's q = 1 preinvex witness, (0.0, 1.0, 0.25), reads |f'(1)|^400
    # = 10^400, which overflows: the first preinvex pair at q = 400 fails there
    # with no sweep, and the other two fail without reading it again
    sweeps = _counting(monkeypatch, runner, "hypothesis_pair")
    witnesses = _counting(monkeypatch, runner, "preinvex_excess")
    model = _model(ROOT_LAW["f"], ROOT_LAW["df"], ROOT_LAW["F"], K=(0.0, 1.0))
    results = tightness_scan(model, EtaMap.difference(), Domain(0.0, 1.0), (0.0, 0.25),
                             (0.75, 1.0), [400.0], steps=3)
    assert ([c[3] for c in sweeps], [c[3] for c in witnesses]) == ([1.0], [400.0])
    assert [r.status for r in results if r.theorem in ("T3.2", "T3.3", "T3.4")] == [
        "all_skipped"] * 3


def test_an_overflow_at_q_skips_only_the_pairs_that_read_q():
    # T4.2 is implied by q = 1 and never reads q = 400, so T3.2's overflow there
    # leaves its ranking as it is when T4.2 is requested alone
    model = _model(ROOT_LAW["f"], ROOT_LAW["df"], K=(0.0, 1.0))
    args = (model, EtaMap.difference(), Domain(0.0, 1.0), (0.0, 0.25), (0.75, 1.0),
            [400.0], 3)
    (alone,) = tightness_scan(*args, ("T4.2",))
    t32, t42 = tightness_scan(*args, ("T3.2", "T4.2"))
    assert (alone.status, alone.ratio, alone.skipped) == ("ok", 0.011364107602030738, 0)
    assert t42 == alone
    assert (t32.status, t32.skipped) == ("all_skipped", 9)


def test_an_overflowing_exponent_keeps_no_report(monkeypatch):
    qs = []
    pair = runner.hypothesis_pair

    def counting_pair(model, eta, K, q, *args):
        qs.append(q)
        return pair(model, eta, K, q, *args)

    monkeypatch.setattr(runner, "hypothesis_pair", counting_pair)
    model = _model(STEEP["f"], STEEP["df"], STEEP["F"], K=(0.0, 2.0))
    swept = []
    lookup = runner._hypotheses(model, EtaMap.difference(), Domain(0.0, 2.0),
                                runner.DEFAULT_GRID, 1e-12, swept)
    for mode in ("preinvex", "prequasiinvex"):
        with pytest.raises(OverflowError):
            lookup(mode, 149.9)
    # each lookup of the overflowing q sweeps again and raises there; nothing is kept
    assert qs == [149.9, 149.9] and swept == []


def test_scan_nan_ratio_is_skipped_and_never_the_witness(monkeypatch):
    real = bounds._simpson

    def nan_sum_at_zero(f, a, steps):
        fa, fmids, fends, sums = real(f, a, steps)
        return fa, fmids, fends, [math.nan] * len(sums) if a == 0.0 else sums

    monkeypatch.setattr(bounds, "_simpson", nan_sum_at_zero)
    model = _model("x^4", "4*x^3", "(x^5)/5", K=(0.0, 2.0))
    (r,) = tightness_scan(model, EtaMap.difference(), Domain(0.0, 2.0),
                          (0.0, 0.5), (1.5, 2.0), [1.0], steps=2, theorems=("T3.1",))
    # the two cells at a = 0 come first and give NaN ratios
    assert (r.status, r.at_a, r.cells, r.skipped) == ("ok", 0.5, 4, 2)
    assert not math.isnan(r.ratio)


def _on_defect(bound):
    def evaluate(model, a, b, step, q, defect, tol):
        return bound(model, a, b, step, q, defect), abs(defect.defect)
    return evaluate


def _midpoint(model, a, b, step, q, defect, tol):
    bv = bounds.bound_C4_2_midpoint(model, a, b, step, tol.oracle)
    return bv, abs(bounds.midpoint_gap(model, a, step, tol.oracle)[0])


# Each theorem through the public bound_* wrappers, apart from the runner's
# table: (mode, exponents, evaluate(model, a, b, step, q, defect, tol) ->
# (BoundValue, the lhs its rhs dominates)).
_PUBLIC_BOUNDS = {
    "T3.1": ("preinvex", lambda qs: [1.0], _on_defect(
        lambda m, a, b, s, q, d: bounds.bound_T3_1(m, a, b, s, d))),
    "T3.2": ("preinvex", lambda qs: [q for q in qs if q > 1.0], _on_defect(bounds.bound_T3_2)),
    "T3.3": ("preinvex", lambda qs: [q for q in qs if q > 1.0], _on_defect(bounds.bound_T3_3)),
    "T3.4": ("preinvex", list, _on_defect(bounds.bound_T3_4)),
    "T4.1": ("prequasiinvex", list, _on_defect(bounds.bound_T4_1)),
    "T4.2": ("prequasiinvex", lambda qs: [q for q in qs if q > 1.0],
             _on_defect(bounds.bound_T4_2)),
    "T4.3": ("prequasiinvex", lambda qs: [q for q in qs if q > 1.0],
             _on_defect(bounds.bound_T4_3)),
    "C4.1": ("prequasiinvex", lambda qs: [1.0], _on_defect(
        lambda m, a, b, s, q, d: replace(
            bounds.bound_T4_1(m, a, b, s, q, d), theorem="C4.1"))),
    "C4.2": ("prequasiinvex", lambda qs: [1.0], _midpoint),
    "CLASSICAL": (None, lambda qs: [None], _on_defect(
        lambda m, a, b, s, q, d: bounds.bound_classical(m, a, s, d))),
}


def _reference_scan(model, eta, K, a_range, b_range, q_list, steps, theorems,
                    tolerances=runner.DEFAULT_TOLERANCES, grid=runner.DEFAULT_GRID):
    """The theorem -> q -> a -> b scan that the cell-major scan replaced.

    Four lines differ from it on purpose, marked below: q = 1 decides a
    q > 1 hypothesis where it can, listed or not, a q whose sweep overflows is
    skipped, an overflowing rhs is a skipped cell, and a NaN ratio is a
    skipped cell.
    """
    if steps < 2:
        raise ValueError("steps must be at least 2")
    tol = tolerances

    def axis(rng):
        lo, hi = float(rng[0]), float(rng[1])
        if lo == hi:
            return [lo] * steps
        return [lo + i * (hi - lo) / (steps - 1) for i in range(steps)]

    a_vals = axis(a_range)
    b_vals = axis(b_range)
    invex_report = runner.check_invex_set(K, eta, grid, tol.invexity)
    hypothesis = runner._hypotheses(model, eta, K, grid, tol.invexity, [])
    defect_cache = {}

    def defect_at(a, step):
        key = (a, step)
        if key not in defect_cache:
            try:
                defect_cache[key] = bounds.simpson_defect(model, a, step, tol.oracle)
            except (EvalDomainError, DomainError, QuadratureError):
                defect_cache[key] = None
        return defect_cache[key]

    def unmet(mode, q):
        if invex_report.violated:
            return True
        if q > 1.0:  # changed: by t -> t^q increasing and convex
            pre, quasi = hypothesis("preinvex", 1.0), hypothesis("prequasiinvex", 1.0)
            if quasi.violated or mode == "prequasiinvex" or not pre.violated:
                return quasi.violated
        try:
            return hypothesis(mode, q).violated
        except OverflowError:  # changed: an overflowing sweep skips its q
            return True

    out = []
    for theorem in theorems:
        mode, exponents, evaluate = _PUBLIC_BOUNDS[theorem]
        best = None
        cells = 0
        skipped = 0
        for q in exponents(q_list):
            cells += steps * steps
            if ((mode is not None and unmet(mode, q))
                    or (theorem == "CLASSICAL" and model.d4sup is None)):
                skipped += steps * steps
                continue
            for a in a_vals:
                for b in b_vals:
                    try:
                        step = eta(b, a)
                    except EvalDomainError:
                        skipped += 1
                        continue
                    if not (step > 0.0 and K.contains(a) and K.contains(b)
                            and K.contains(a + step)):
                        skipped += 1
                        continue
                    defect = defect_at(a, step)
                    if defect is None:
                        skipped += 1
                        continue
                    try:
                        bv, lhs = evaluate(model, a, b, step, q, defect, tol)
                    except (PreconditionUnmet, EvalDomainError):
                        skipped += 1
                        continue
                    except OverflowError:  # changed: an overflowing rhs is a skipped cell
                        skipped += 1
                        continue
                    if bv.rhs == 0.0:
                        skipped += 1
                        continue
                    ratio = lhs / bv.rhs
                    if math.isnan(ratio):  # changed: a NaN ratio is skipped
                        skipped += 1
                        continue
                    if best is None or ratio > best[0]:
                        best = (ratio, a, b, q)
        if best is None:
            out.append(runner.TightnessResult(theorem, "all_skipped", None, None, None, None,
                                              cells, skipped))
        else:
            ratio, a, b, q = best
            out.append(runner.TightnessResult(theorem, "ok", ratio, a, b, q, cells, skipped))
    return out


def _scan_outcome(scan, *args):
    try:
        return repr(scan(*args))
    except Exception as exc:  # the raise itself is compared
        return f"{type(exc).__name__}: {exc}"


# (f, df, F, K): smooth; period-1 sin; flat below x = 1 and |f'|
# monotone, so C4.2's hypotheses and precondition hold where the path
# stays below 1 and b does not (eta 0.8*(v-u)); f' that fails at x = 0.3
# only (no sample point of SMALL_GRID); f' that fails on K; and a line
# (zero defect, so every ratio ties at 0)
_SCAN_MODELS = [
    ("x^4-x", "4*x^3-1", "(x^5)/5-(x^2)/2", (-1.0, 2.0)),
    ("exp(x)", "exp(x)", None, (-1.0, 2.0)),
    ("sin(6.283185307179586*x)", "6.283185307179586*cos(6.283185307179586*x)",
     "-cos(6.283185307179586*x)/6.283185307179586", (-1.0, 2.0)),
    ("if(x<1, 0, (x-1)^3)", "if(x<1, 0, 3*(x-1)^2)", "if(x<1, 0, ((x-1)^4)/4)", (-1.0, 2.0)),
    ("x^3", "if(x == 0.3, log(x-x), 3*x^2)", "(x^4)/4", (-1.0, 2.0)),
    ("sqrt(x)", "0.5/sqrt(x)", None, (0.0, 2.0)),
    ("2*x+1", "2", "x^2+x", (-1.0, 2.0)),
]
_SCAN_ETAS = [EtaMap.difference(), EtaMap.abs_example(),
              EtaMap.from_expression("(v-u)/(1+0.5*abs(v-u))"),
              EtaMap.from_expression("0.8*(v-u)")]
SMALL_GRID = SampleGrid(nu=5, nv=5, nt=3, random_triples=20)


@given(st.sampled_from(_SCAN_MODELS), st.booleans(), st.sampled_from((None, 0.0, 30.0)),
       st.sampled_from(_SCAN_ETAS), st.sampled_from((0.0, 0.5, -0.25)),
       st.sampled_from(((0.0, 0.5), (-1.0, 0.0), (0.3, 0.3), (0.5, 0.0), (-0.5, 1.0),
                        (-1.5, 0.5))),
       st.sampled_from(((1.0, 1.5), (1.0, 2.0), (0.3, 1.3), (-1.0, 1.0), (1.0, 2.5))),
       st.lists(st.sampled_from((1.0, 1.0000001, 1.5, 2.0, 3.0, 149.9, 150.0)),
                min_size=1, max_size=4, unique=True),
       st.integers(2, 5),
       st.lists(st.sampled_from(runner.THEOREM_IDS), min_size=1, max_size=10, unique=True))
@settings(max_examples=150)
def test_cell_major_scan_matches_theorem_major_reference(
        spec, with_F, d4sup, eta, margin, a_range, b_range, q_list, steps, theorems):
    f, df, F, K = spec
    model = _model(f, df, F if with_F else None, K=K, d4sup=d4sup)
    # the scan's K is the model's domain, or wider or narrower by ``margin``
    scan_K = Domain(K[0] - margin, K[1] + margin)
    args = (model, eta, scan_K, a_range, b_range, q_list, steps, theorems,
            runner.DEFAULT_TOLERANCES, SMALL_GRID)
    assert _scan_outcome(tightness_scan, *args) == _scan_outcome(_reference_scan, *args)


def test_scan_reference_on_the_bundled_corpus():
    for case in load_corpus():
        K = case.model.domain
        args = (case.model, case.eta, K, (K.lo, case.a), (case.b, K.hi), case.q_list, 4,
                case.theorems, case.tolerances, SMALL_GRID)
        assert _scan_outcome(tightness_scan, *args) == _scan_outcome(_reference_scan, *args)


def _counting(monkeypatch, module, name):
    """The arguments of each call of ``module.name``, which still runs, in order."""
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_midpoint_scan_integrates_each_gap_once_and_one_cell_on_its_own(monkeypatch):
    integrals = _counting(monkeypatch, quadrature, "_integrate_unchecked")
    own = _counting(monkeypatch, bounds, "_mean")
    model = _model(SIN2["f"], SIN2["df"], K=(0.0, 1.5))
    (r,) = tightness_scan(model, EtaMap.difference(), Domain(0.0, 1.5), (0.0, 0.5),
                          (1.0, 1.5), [1.0], steps=9, theorems=("C4.2",), grid=SIN2_GRID)
    # every cell has a defect, and the 9 with b = a + 1 meet C4.2's precondition
    assert (r.status, r.cells, r.skipped) == ("ok", 81, 72)
    # the nodes are the cells' a and ends a + (b - a), which on these dyadic
    # axes are the 18 axis values: 17 gaps, each integrated once; of the 9
    # ranked cells only the winner, whose |f'| at a = 0 and b = 1 is rounding
    # and whose rhs is so tiny that the bounds of its ratio lie above every
    # other cell's, integrates on its own
    assert [(a, step) for _, a, step, _ in own] == [(0.0, 1.0)]
    assert len(integrals) == 17 + 1
    assert (r.at_a, r.at_b) == (0.0, 1.0)


def _perfbench_inputs(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import inputs

    return inputs


def _gap_integrals(monkeypatch):
    """The arguments of each ``quadrature._integrate_unchecked`` call made outside
    ``bounds._mean`` (a scan's gap integrals), which still runs, in order."""
    calls = []
    own = []
    real_integrate, real_mean = quadrature._integrate_unchecked, bounds._mean

    def integrate(*args):
        if not own:
            calls.append(args)
        return real_integrate(*args)

    def mean(*args):
        own.append(args)
        try:
            return real_mean(*args)
        finally:
            own.pop()

    monkeypatch.setattr(quadrature, "_integrate_unchecked", integrate)
    monkeypatch.setattr(bounds, "_mean", mean)
    return calls


@pytest.mark.parametrize("name, own, order", [
    ("scan_00001_exp", 35, "df576da8d014"), ("scan_00002_log", 67, "c482a88d9f35"),
    ("scan_00004_sin", 148, "0d8ac6f011fb")])
def test_pool_scan_integrates_only_the_cells_that_can_win(monkeypatch, name, own, order):
    # the scan workload's model at its full 81 x 81 grid: 6,560 cells have a
    # step (a = b = the middle of K has none), and of those only the ones whose
    # ratio bound reaches the floor of some ranking integrate on their own, in
    # an order pinned by the first 12 hex digits of the sha256 of its repr
    inputs = _perfbench_inputs(monkeypatch)
    (cfg,) = [cfg for cfg in inputs.scan_pool() if cfg["name"] == name]
    case = load_case(cfg)
    gaps = _gap_integrals(monkeypatch)
    sums = _counting(monkeypatch, bounds, "_simpson")
    means = _counting(monkeypatch, bounds, "_mean")
    tightness_scan(case.model, case.eta, case.model.domain, *inputs.scan_args(cfg))
    # one Simpson call per row of a, each of the 81 holding a usable cell
    assert len(sums) == 81 and sum(len(steps) for _, _, steps in sums) == 6560
    assert len(means) == len({(a, step) for _, a, step, _ in means}) == own
    cells = repr([(a, step) for _, a, step, _ in means])
    assert hashlib.sha256(cells.encode()).hexdigest()[:12] == order
    # f is integrated once over each gap between consecutive nodes, every cell's
    # a and end a + step, and over nothing else: no sliver from a nearest node
    # to an end that misses an axis value by rounding (3,033 ends on exp)
    nodes = {x for _, a, steps in sums for step in steps for x in (a, a + step)}
    assert len(gaps) == len(nodes) - 1 == {
        "scan_00001_exp": 318, "scan_00002_log": 175, "scan_00004_sin": 213}[name]


@pytest.mark.parametrize("name, calls", [
    ("scan_00000_poly", 10998), ("scan_00001_exp", 15551), ("scan_00002_log", 9800),
    ("scan_00004_sin", 5507)])
def test_pool_scan_bounds_blocks_of_cells_with_two_rhs_calls_each(monkeypatch, name, calls):
    # a walk over every cell in each of the 19 rankings that call an rhs would
    # make 19 x 6,560 = 124,640 rhs calls (sin ranks CLASSICAL only: 6,560).  Each
    # ranking makes two calls per block of 9 x 9 cells (81 blocks: 162) and one per
    # cell of each block it walks; a block whose rhs at the largest corner is 0 is
    # not walked, nor one whose bound lies below the floor, the largest low end
    # walked (an own mean's is its ratio).  On the cubic every defect is
    # rounding: T3.1's ranking walks every cell, which each integrate on
    # their own (162 + 6,560), each later ranking walks one block of 80 cells
    # (17 x (162 + 80) = 4,114), and CLASSICAL, whose d4sup is 0, none (162).  On
    # exp each ranking but CLASSICAL walks 486 cells (18 x (162 + 486)), and
    # CLASSICAL 3,725 (162 + 3,725); on log T3.1 and T3.4 at q = 1 walk 162 cells,
    # the 16 others but CLASSICAL 243 and CLASSICAL 2,510 (19 x 162 + 2 x 162 +
    # 16 x 243 + 2,510 = 9,800); on sin CLASSICAL walks 5,345 (162 + 5,345)
    inputs = _perfbench_inputs(monkeypatch)
    (cfg,) = [cfg for cfg in inputs.scan_pool() if cfg["name"] == name]
    case = load_case(cfg)
    got = _rhs_calls(monkeypatch, *runner.THEOREM_IDS)
    tightness_scan(case.model, case.eta, case.model.domain, *inputs.scan_args(cfg))
    assert len(got) == calls


def test_scan_matches_the_per_cell_reference_at_21_by_21(monkeypatch):
    # the scan pool's models and one generated batch, F stripped so that every
    # cell's mean comes from the gap sums, on every eta kind
    inputs = _perfbench_inputs(monkeypatch)
    configs = [{k: v for k, v in cfg.items() if k != "F"}
               for cfg in inputs.scan_pool() + inputs.fresh_cases(5, 0, 28)[0]]
    assert {"difference", "expression", "abs_example"} <= {cfg["eta"]["kind"]
                                                          for cfg in configs}
    for cfg in configs:
        case = load_case(cfg)
        a_range, b_range, q_list, _ = inputs.scan_args(cfg)
        args = (case.model, case.eta, case.model.domain, a_range, b_range, q_list, 21,
                runner.THEOREM_IDS, runner.DEFAULT_TOLERANCES, SMALL_GRID)
        assert _scan_outcome(tightness_scan, *args) == _scan_outcome(_reference_scan, *args), (
            cfg["name"])


def _exp_scan_args():
    """A 9 x 9 scan of exp at two q whose every ranking is won by one cell,
    a = -1, b = 2 (step 3), the one cell that integrates on its own."""
    model = _model("exp(x)", "exp(x)", K=(-1.0, 2.0))
    return (model, EtaMap.difference(), Domain(-1.0, 2.0), (-1.0, 0.5), (0.5, 2.0),
            [1.0, 2.0], 9, ("T3.1", "T3.4", "C4.1"), runner.DEFAULT_TOLERANCES, SMALL_GRID)


def _mean_failing_at(monkeypatch, a, step):
    """bounds._mean, raising QuadratureError at (a, step) only; the calls it gets."""
    real = bounds._mean
    calls = []

    def mean(model, at, cell_step, tol):
        calls.append((at, cell_step))
        if (at, cell_step) == (a, step):
            raise QuadratureError("the own integral fails here")
        return real(model, at, cell_step, tol)

    monkeypatch.setattr(bounds, "_mean", mean)
    return calls


def test_scan_drops_a_winner_whose_own_integral_fails_and_ranks_again(monkeypatch):
    args = _exp_scan_args()
    assert {(r.at_a, r.at_b) for r in tightness_scan(*args)} == {(-1.0, 2.0)}
    calls = _mean_failing_at(monkeypatch, -1.0, 3.0)
    got = tightness_scan(*args)
    assert calls[0] == (-1.0, 3.0) and calls.count((-1.0, 3.0)) == 1  # never integrated again
    # the failing cell is dropped from every ranking, as the per-cell rule skips it
    assert repr(got) == repr(_reference_scan(*args))
    assert (-1.0, 2.0) not in {(r.at_a, r.at_b) for r in got}


def _rhs_calls(monkeypatch, *theorems):
    """The arguments of each call of the theorems' rhs, which still runs, in order;
    one counting rhs per rhs, so the pairs that share one (T4.1 at every q and
    C4.1) still share a ranking."""
    calls = []
    counting = {}

    def counted(rhs):
        def count(*cell):
            calls.append(cell)
            return rhs(*cell)
        return counting.setdefault(rhs, count)

    for theorem in theorems:
        row = bounds.THEOREMS[theorem]
        monkeypatch.setitem(bounds.THEOREMS, theorem, row._replace(
            rhs_for=lambda q, rhs_for=row.rhs_for: counted(rhs_for(q))))
    return calls


def test_scan_ranks_again_once_per_round_in_which_an_own_integral_fails(monkeypatch):
    # T3.1 alone on the exp scan, every own integral failing where a <= -0.5 and
    # a + step >= 1.5 (9 cells, 8 of which can win and are integrated): a failed
    # cell stays as one that gives no ratio, and the ranking runs again once per
    # round that met a failure.  Each round makes two corner calls for the one
    # 9 x 9 block and walks its 80 cells with a step: in the first the block's
    # bound lies above the floor, which starts at -inf, and in each later one it
    # holds a failed cell, whose NaN |defect| leaves the block with no bound:
    # 2 + 80 calls a round.  Once per failed cell, after dropping it, took
    # 80 + 79 + ... + 72 = 684 calls for the 8 that fail
    args = list(_exp_scan_args())
    args[7] = ("T3.1",)
    real = bounds._mean
    failed = []

    def mean(model, a, step, tol):
        if a <= -0.5 and a + step >= 1.5:
            failed.append((a, step))
            raise QuadratureError("the own integral fails here")
        return real(model, a, step, tol)

    monkeypatch.setattr(bounds, "_mean", mean)
    calls = _rhs_calls(monkeypatch, "T3.1")
    (got,) = tightness_scan(*args)
    assert len(failed) == len(set(failed)) == 8  # each fails once, and stays failed
    assert len(calls) == 5 * (2 + 80) < 684  # 4 rounds meet failures, the fifth none
    (want,) = _reference_scan(*args)
    assert (got.ratio, got.at_a, got.at_b) == (want.ratio, want.at_a, want.at_b)


def test_scan_counts_a_cell_it_never_integrates_as_ranked(monkeypatch):
    # the second way a scan can differ from the per-cell rule: a cell whose own
    # integral would fail where its gap sums do not, but which cannot win, is
    # never integrated and counts as ranked; the rule skips it in each of its
    # 4 (theorem, q) pairs
    args = _exp_scan_args()
    want = tightness_scan(*args)
    calls = _mean_failing_at(monkeypatch, 0.5, 1.5)  # a = 0.5, b = 2
    got = tightness_scan(*args)
    assert repr(got) == repr(want) and calls == [(-1.0, 3.0)]
    reference = _reference_scan(*args)
    assert [(r.ratio, r.at_a, r.at_b, r.at_q) for r in got] == [
        (r.ratio, r.at_a, r.at_b, r.at_q) for r in reference]
    assert [ref.skipped - r.skipped for r, ref in zip(got, reference)] == [1, 2, 1]


def test_scan_integrates_the_cells_over_a_failing_gap_on_their_own(monkeypatch):
    # f fails at 0.625 only, the midpoint of the gap [0.5, 0.75], which every
    # cell's interval holds (a <= 0.5, b >= 0.75): no cell has an enclosure, and
    # the ranking integrates each on its own, as the per-cell rule does
    model = _model("if(x == 0.625, log(x - x), x^3)", "3*x^2", K=(-1.0, 2.0))
    args = (model, EtaMap.difference(), Domain(-1.0, 2.0), (0.0, 0.5), (0.75, 1.5), [1.0],
            5, ("T3.1",), runner.DEFAULT_TOLERANCES, SMALL_GRID)
    means = _counting(monkeypatch, bounds, "_mean")
    calls = _rhs_calls(monkeypatch, "T3.1")
    got = tightness_scan(*args)
    # 3 cells are skipped: 2 whose Simpson midpoint a + step/2 is 0.625 and
    # (0.25, 0.75), whose own first panel evaluates f there; the other 23 cells
    # integrate on their own
    assert (got[0].status, got[0].skipped, len(means)) == ("ok", 3, 25 - 2)
    # the cells that fail had no enclosure, so they pruned nothing and the one
    # round of rankings stands: the rhs is called at the one block's two corners
    # and, the block having no bound, at the 23 cells once, not twice
    assert len(calls) == 2 + 23
    assert repr(got) == repr(_reference_scan(*args))
    # f fails on (0.6, 0.65): the gap over it starts a new run of sums, and only
    # the cells with a left of it and end right of it have no enclosure; sums
    # that ran on past the gap as NaN would leave none right of it either (58)
    model = _model("if(x > 0.6 and x < 0.65, log(x - x), exp(x))", "exp(x)", K=(-1.0, 2.0))
    args = (model, EtaMap.difference(), Domain(-1.0, 2.0), (0.0, 1.0), (0.5, 2.0), [1.0, 2.0],
            9, ("T3.1", "T3.4", "C4.1"), runner.DEFAULT_TOLERANCES, SMALL_GRID)
    del means[:]
    got = tightness_scan(*args)
    assert len(means) == 39
    assert repr(got) == repr(_reference_scan(*args))


def test_scan_with_F_integrates_no_gap(monkeypatch):
    # with F every mean is exact and cheap: no cell has an enclosure, and the
    # first ranking takes each cell's own
    integrals = _counting(monkeypatch, quadrature, "_integrate_unchecked")
    means = _counting(monkeypatch, bounds, "_mean")
    model = _model("x^4", "4*x^3", "(x^5)/5", K=(0.0, 2.0))
    args = (model, EtaMap.difference(), Domain(0.0, 2.0), (0.0, 0.5), (1.0, 2.0), [1.0], 5,
            ("T3.1", "C4.1"), runner.DEFAULT_TOLERANCES, SMALL_GRID)
    got = tightness_scan(*args)
    assert (integrals, len(means)) == ([], 25)
    assert repr(got) == repr(_reference_scan(*args))


def _failing_at(model, bad, exc, fn="df_fn"):
    """``model`` with an f' (or f, for fn "f_fn") that raises ``exc`` at ``bad`` only."""
    real = getattr(model, fn)

    def failing(x):
        if x == bad:
            raise exc
        return real(x)

    model.__dict__[fn] = failing  # the compiled f and f' are cached properties
    return model


def _eta_raising_at(v_bad, u_bad, exc):
    """The difference map, over a Python function that raises ``exc`` at (v_bad, u_bad) only."""
    def eta(v, u):
        if (v, u) == (v_bad, u_bad):
            raise exc
        return v - u

    return EtaMap(eta, "difference, raising at one cell")


def _scan_edge(name):
    """The tightness_scan arguments of one edge case of the cell-major scan."""
    quartic = ("x^4", "4*x^3", None, (-1.0, 2.0))  # |f'|^q convex: hypotheses hold
    beyond = ((-1.5, 0.5), (1.0, 2.5))  # cells on both sides of the model's domain
    if name in ("K wider than the domain", "K narrower than the domain"):
        K = Domain(-1.5, 2.5) if name.startswith("K wider") else Domain(-0.5, 1.5)
        return (_model(*quartic, d4sup=30.0), EtaMap.difference(), K, *beyond,
                [1.0, 2.0], 5, runner.THEOREM_IDS, runner.DEFAULT_TOLERANCES, SMALL_GRID)
    if name == "C4.2 precondition holds":
        # the 9 cells with b = a + 1 meet C4.2's precondition, with a nonzero gap
        return (_model(SIN2["f"], SIN2["df"], K=(0.0, 1.5)), EtaMap.difference(),
                Domain(0.0, 1.5), (0.0, 0.5), (1.0, 1.5), [1.0], 9, ("T3.1", "C4.2"),
                runner.DEFAULT_TOLERANCES, SIN2_GRID)
    if name.startswith("denormal step"):
        # a + step == a wherever a != 0; f' is large enough for a nonzero rhs
        F = "5e299*x^2" if name.endswith("with F") else None
        return (_model("1e300*x", "1e300", F, K=(-1.0, 2.0)),
                EtaMap.from_expression("1e-310*(v-u)"), Domain(-1.0, 2.0),
                (0.0, 0.5), (1.0, 1.5), [1.0], 3, ("T3.1", "C4.1", "C4.2"),
                runner.DEFAULT_TOLERANCES, SMALL_GRID)
    if name == "f fails in a defect":
        # f fails left of 0.3: at the 6 cells with a < 0.3, beside the one with b = a
        return (_model("sqrt(x - 0.3)", "0.5/sqrt(x - 0.3)", K=(0.0, 1.0), d4sup=1.0),
                EtaMap.difference(), Domain(0.0, 1.0), (0.0, 0.5), (0.5, 1.0), [1.0], 3,
                ("CLASSICAL",), runner.DEFAULT_TOLERANCES, SMALL_GRID)
    # a in {0, 0.375, 0.75}, b in {0.375, 1.125, 1.875}; none is a sample point
    axes = ((0.0, 0.75), (0.375, 1.875))
    model = _model(*quartic, d4sup=30.0)
    if name.endswith("in one row"):
        # two errors in the row a = 0, whose cells' mids are 0.1875, 0.5625 and
        # 0.9375: the one at the earlier cell propagates.  f is read before f' at a
        # cell, and each cell's eta before its f; no point here is a sample point
        eta = _eta_raising_at(1.875, 0.0, ZeroDivisionError("eta raises at (1.875, 0)"))
        if name == "f raises before eta in one row":
            model = _failing_at(model, 0.1875, ValueError("f raises at 0.1875"), "f_fn")
        elif name == "eta raises before f in one row":
            eta = _eta_raising_at(0.375, 0.0, ZeroDivisionError("eta raises at (0.375, 0)"))
            model = _failing_at(model, 0.9375, ValueError("f raises at 0.9375"), "f_fn")
        else:  # f' raises at b = 1.125, a cell before eta's
            model = _failing_at(model, 1.125, ValueError("f' raises at 1.125"))
        return (model, eta, Domain(-1.0, 2.0), *axes, [1.0, 2.0], 3, runner.THEOREM_IDS,
                runner.DEFAULT_TOLERANCES, SMALL_GRID)
    if name == "f' fails at one axis value":
        model = _failing_at(model, 0.375, EvalDomainError("f'", 0.375, "fails"))
    elif name == "f' raises at one axis value":
        model = _failing_at(model, 1.125, ZeroDivisionError("f' raises at 1.125"))
    else:  # f' raises only at a b whose cells all lack a step: never read
        model = _failing_at(model, -0.5, ZeroDivisionError("f' raises at -0.5"))
        axes = ((0.0, 0.75), (-0.5, 1.5))
    return (model, EtaMap.difference(), Domain(-1.0, 2.0), *axes, [1.0, 2.0], 3,
            runner.THEOREM_IDS, runner.DEFAULT_TOLERANCES, SMALL_GRID)


@pytest.mark.parametrize("name", [
    "K wider than the domain", "K narrower than the domain", "C4.2 precondition holds",
    "denormal step", "denormal step with F", "f' fails at one axis value",
    "f' raises at one axis value", "f' raises only where no cell reads it",
    "f fails in a defect", "f raises before eta in one row", "eta raises before f in one row",
    "f' raises before eta in one row"])
def test_scan_edges_match_theorem_major_reference(name):
    args = _scan_edge(name)
    got = _scan_outcome(tightness_scan, *args)
    assert got == _scan_outcome(_reference_scan, *args)
    raised = {"f' raises at one axis value": "ZeroDivisionError: f' raises at 1.125",
              "f raises before eta in one row": "ValueError: f raises at 0.1875",
              "eta raises before f in one row": "ZeroDivisionError: eta raises at (0.375, 0)",
              "f' raises before eta in one row": "ValueError: f' raises at 1.125"}
    if name in raised:
        assert got == raised[name]
        return
    results = {r.theorem: r for r in tightness_scan(*args)}
    if name.startswith("K "):
        # a or a + step outside the model's domain, though inside K, is no
        # usable cell: 12 of 25 cells are usable on the wider K, 6 on the narrower
        skipped = 13 if name.startswith("K wider") else 19
        assert (results["CLASSICAL"].status, results["CLASSICAL"].skipped) == ("ok", skipped)
    if name == "C4.2 precondition holds":
        midpoint = results["C4.2"]
        assert (midpoint.status, midpoint.cells, midpoint.skipped) == ("ok", 81, 72)
        assert midpoint.ratio > 0.0
    if name.startswith("denormal step"):
        # every a != 0 has a usable cell whose mean is 0.0
        assert results["T3.1"].status == "ok" and results["T3.1"].at_a != 0.0
    if name == "f' fails at one axis value":
        # the row a = 0.375 and the column b = 0.375 have no |f'|; CLASSICAL reads none
        assert results["T3.1"].status == "ok"
        assert results["T3.1"].skipped == results["CLASSICAL"].skipped + 3
    if name == "f' raises only where no cell reads it":
        assert results["T3.1"].status == "ok"
    if name == "f fails in a defect":
        assert (results["CLASSICAL"].status, results["CLASSICAL"].cells,
                results["CLASSICAL"].skipped) == ("ok", 9, 7)


@pytest.mark.parametrize("a_range, b_range, message", [
    ((-1e308, 1e308), (0.0, 1.0),
     "a_range needs finite ends and a finite width hi - lo, got [-1e+308, 1e+308]"),
    ((0.0, 0.0), (1e308, -1e308),
     "b_range needs finite ends and a finite width hi - lo, got [1e+308, -1e+308]"),
    ((math.inf, math.inf), (0.0, 1.0),
     "a_range needs finite ends and a finite width hi - lo, got [inf, inf]"),
    ((math.nan, 0.4), (0.0, 1.0),
     "a_range needs finite ends and a finite width hi - lo, got [nan, 0.4]"),
])
def test_scan_rejects_a_range_whose_width_overflows(monkeypatch, a_range, b_range, message):
    def no_sweep(*args, **kwargs):
        raise AssertionError("swept before the ranges were checked")

    monkeypatch.setattr(runner, "check_invex_set", no_sweep)
    model = _model("x^2", "2*x", K=(-1.0, 1.0))
    with pytest.raises(ValueError) as info:
        tightness_scan(model, EtaMap.difference(), model.domain, a_range, b_range, [1.0], 3)
    assert str(info.value) == message


def test_scan_skips_a_cell_whose_rhs_overflows():
    # T3.4 at q = 2 squares |f'(0.375)| = 1e200, an axis value and no sample point:
    # the row a = 0.375 and the column b = 0.375 hold 3 usable cells, whose rhs
    # rescales its powers and ranks; at each q the 2 cells with no step are skipped
    args = list(_scan_edge("f' raises at one axis value"))
    args[0] = _model("x^4", "4*x^3", K=(-1.0, 2.0))
    real = args[0].df_fn
    args[0].__dict__["df_fn"] = lambda x: 1e200 if x == 0.375 else real(x)
    args[7] = ("T3.4",)
    (t34,) = got = tightness_scan(*args)
    assert (t34.status, t34.at_q, t34.cells, t34.skipped) == ("ok", 1.0, 18, 2 + 2)
    assert repr(got) == repr(_reference_scan(*args))
    # CLASSICAL's step^4 overflows for the steps 5e99 and 1e100, not for 1
    model = _model("x", "1", K=(0.0, 1e100), d4sup=1.0)
    args = (model, EtaMap.difference(), model.domain, (0.0, 0.0), (1.0, 1e100), [1.0], 3,
            ("CLASSICAL",), runner.DEFAULT_TOLERANCES, SMALL_GRID)
    (classical,) = got = tightness_scan(*args)
    assert (classical.status, classical.at_b, classical.cells, classical.skipped) == (
        "ok", 1.0, 9, 6)
    assert repr(got) == repr(_reference_scan(*args))


def test_cubic_scan_integrates_every_usable_cell_and_each_gap_once(monkeypatch):
    model = _model("x^3", "3*x^2", K=(-1.0, 2.0))
    real = model.f_fn
    calls = []
    rows = []

    def f(x):
        calls.append(x)
        return real(x)

    def midpoint_cells(fa, fmids, fends):
        rows.append(len(fmids))
        return real_cells(fa, fmids, fends)

    model.__dict__["f_fn"] = f  # the compiled f is a cached property
    real_cells = bounds._midpoint_cells
    monkeypatch.setattr(bounds, "_midpoint_cells", midpoint_cells)
    t31, midpoint = tightness_scan(model, EtaMap.difference(), Domain(-1.0, 2.0), (0.0, 0.5),
                                   (0.5, 1.5), [1.0], steps=5, theorems=("T3.1", "C4.2"),
                                   grid=SMALL_GRID)
    # only a = b = 0.5 has no step; C4.2 tests its precondition once per row of a
    # on the Simpson sum's values, each row holding 5 usable cells but the last,
    # a = 0.5, which holds 4, and ranks only the cells that meet it: none, as x^3
    # is strictly increasing, so f(a) < f(mid) < f(end) at every cell
    assert (t31.status, t31.cells, t31.skipped) == ("ok", 25, 1)
    assert (midpoint.cells, midpoint.skipped, rows) == (25, 25, [5, 5, 5, 5, 4])
    # Simpson is exact on a cubic, so every defect is rounding, far inside its
    # enclosure, and every cell may be T3.1's best: f(a) once per row of a, each
    # of the 5 with a usable cell, per usable cell f(mid) and f(end) for the
    # Simpson sum and 5 evaluations for its own integral (a cubic converges on
    # the first panel), and 5 per gap between the 9 nodes, the cells' a and ends
    # a + (b - a), which on these dyadic axes are the axis values 0, 0.125, ..,
    # 0.5, 0.75, .., 1.5
    assert len(calls) == 5 + (2 + 5) * 24 + 5 * 8


def test_scan_takes_the_shared_T4_1_rhs_once_per_usable_cell(monkeypatch):
    # T4.1 at four q and C4.1 share one rhs function and lhs: the row is ranked
    # once, with two corner calls for the one 9 x 9 block, whose bound lies above
    # the floor, which starts at -inf, and so with a walk over its 25 cells
    real = bounds._max_rhs
    calls = []

    def counted(x1, x2, step):
        calls.append(step)
        return real(x1, x2, step)

    monkeypatch.setattr(bounds, "_max_rhs", counted)
    model = _model("x^2", "2*x", K=(0.0, 2.0))
    args = (model, EtaMap.difference(), Domain(0.0, 2.0), (0.0, 0.5), (1.0, 2.0),
            [1.0, 1.5, 2.0, 3.0], 5, ("T4.1", "C4.1"), runner.DEFAULT_TOLERANCES, SMALL_GRID)
    t41, c41 = got = tightness_scan(*args)
    # every cell is usable: a step, a defect and |f'| at both ends
    assert (t41.status, t41.cells, t41.skipped) == ("ok", 100, 0)
    assert (c41.status, c41.cells, c41.skipped) == ("ok", 25, 0)
    assert len(calls) == 2 + 25
    assert repr(got) == repr(_reference_scan(*args))


def _block_scan_args(name):
    """The tightness_scan arguments of one block-pruning case, and the (a, step)
    cells where bounds._mean fails."""
    theorems = ("T3.1", "T3.2", "T3.4", "T4.1", "T4.3", "C4.1", "C4.2", "CLASSICAL")
    if name == "nan f'":
        # f' NaN at an a and two b values: a row and two columns of cells with no |f'|
        model = _model("exp(x)", "exp(x)", K=(-1.0, 2.0), d4sup=8.0)
        real = model.df_fn
        bad = {invexity.spaced(-1.0, 0.0, 19)[9], *invexity.spaced(1.0, 2.0, 19)[9:16:6]}
        model.__dict__["df_fn"] = lambda x: math.nan if x in bad else real(x)
        return (model, EtaMap.difference(), Domain(-1.0, 2.0), (-1.0, 0.0), (1.0, 2.0),
                [1.0, 2.0], 19, theorems, runner.DEFAULT_TOLERANCES, SMALL_GRID), ()
    if name == "F":  # no cell has a finite enclosure: the first ranking owns them all
        return (_model("x^4", "4*x^3", "(x^5)/5", K=(-1.0, 2.0), d4sup=24.0),
                EtaMap.difference(), Domain(-1.0, 2.0), (-1.0, 0.5), (0.5, 2.0), [1.0, 3.0],
                14, theorems, runner.DEFAULT_TOLERANCES, SMALL_GRID), ()
    if name == "failing winners":
        # the two cells with the largest step, which win every ranking they can,
        # fail their own integrals: each is dropped, and every ranking runs again
        return (_model("exp(x)", "exp(x)", K=(-1.0, 2.0), d4sup=8.0), EtaMap.difference(),
                Domain(-1.0, 2.0), (-1.0, 0.5), (0.5, 2.0), [1.0, 1.5], 23, theorems,
                runner.DEFAULT_TOLERANCES, SMALL_GRID), ((-1.0, 3.0), (-1.0, 2.9318181818181817))
    # ties: f = 0 with |f'| = 1 (no model gate runs here), so every ratio is 0 and the
    # first cell wins; a cell of a later block fails its own integral, which leaves
    # that block with no bound, so it is visited before the block of the first cell
    return (_model("0", "1", "0", K=(-1.0, 2.0)), EtaMap.difference(), Domain(-1.0, 2.0),
            (-1.0, 0.5), (0.5, 2.0), [1.0, 2.0], 10, theorems, runner.DEFAULT_TOLERANCES,
            SMALL_GRID), ((0.5, 1.5),)


@pytest.mark.parametrize("name", ["nan f'", "F", "failing winners", "ties"])
def test_block_pruned_scan_matches_the_per_cell_walk_and_the_reference(monkeypatch, name):
    # 10 to 23 steps: several 9 x 9 blocks of axis indices, the last ones partial
    args, failing = _block_scan_args(name)
    real = bounds._mean
    own = []

    def mean(model, a, step, tol):
        own.append((a, step))
        if (a, step) in failing:
            raise QuadratureError("the own integral fails here")
        return real(model, a, step, tol)

    monkeypatch.setattr(bounds, "_mean", mean)
    calls = _rhs_calls(monkeypatch, *runner.THEOREM_IDS)
    got = tightness_scan(*args)
    blocked_calls, blocked_own = len(calls), own[:]
    # one block as large as the grid: every ranking walks every cell in (a, b) order
    monkeypatch.setattr(scan, "_BLOCK", 10 ** 6)
    del calls[:], own[:]
    walked = tightness_scan(*args)
    assert repr(got) == repr(walked)
    assert blocked_own == own  # the same own integrals, in the same order
    assert set(failing) <= set(own)
    # blocks were pruned, but where every ratio ties at 0 no bound lies below the floor
    assert blocked_calls < len(calls) if name != "ties" else blocked_calls > len(calls)
    del own[:]
    assert repr(got) == repr(_reference_scan(*args))
    if name == "ties":
        assert {(r.ratio, r.at_a, r.at_b) for r in got if r.status == "ok"} == {(0.0, -1.0, 0.5)}


def _assert_bounds_match_public_wrappers(case, result):
    for bv in result.bounds:
        evaluate = _PUBLIC_BOUNDS[bv.theorem][2]
        want, _ = evaluate(case.model, case.a, case.b, result.eta_step, bv.q, result.defect,
                           case.tolerances)
        assert repr(bv) == repr(want), case.name


def test_run_case_bounds_match_the_public_wrappers(corpus_report):
    runs = _runs(corpus_report)
    for case, result, _ in runs:
        _assert_bounds_match_public_wrappers(case, result)
    (midpoint,) = [bv for bv in runs[-1][1].bounds if bv.theorem == "C4.2"]
    assert midpoint.slack == pytest.approx(midpoint.rhs - 0.5, abs=1e-9)


@given(st.sampled_from(_SCAN_MODELS + [(SIN2["f"], SIN2["df"], None, (0.0, 1.5))]),
       st.booleans(), st.sampled_from((None, 0.0, 30.0)), st.sampled_from(_SCAN_ETAS),
       st.sampled_from((-1.0, 0.0, 0.3, 0.5)), st.sampled_from((0.3, 1.0, 1.5, 2.0)),
       st.lists(st.sampled_from((1.0, 1.0000001, 1.5, 2.0, 149.9)), min_size=1, max_size=3,
                unique=True),
       st.lists(st.sampled_from(runner.THEOREM_IDS), min_size=1, max_size=10, unique=True),
       st.sampled_from((SMALL_GRID, SIN2_GRID)))
@settings(max_examples=100)
def test_run_case_bounds_match_the_public_wrappers_on_generated_models(
        spec, with_F, d4sup, eta, a, b, q_list, theorems, grid):
    f, df, F, K = spec
    model = _model(f, df, F if with_F else None, K=K, d4sup=d4sup)
    case = runner.CorpusCase("generated", model, eta, a, b, tuple(q_list), tuple(theorems),
                             runner.DEFAULT_TOLERANCES)
    try:
        result = run_case(case, grid)
    except (SimpvexError, ValueError):  # raises are compared in the scan tests
        return
    _assert_bounds_match_public_wrappers(case, result)


@pytest.mark.parametrize("change, error", [
    (dict(theorems=("T3.1", "T9.9")), "InvalidTheorem: unknown theorem id 'T9.9'"),
    (dict(theorems=()), "InvalidTheorem: the case lists no theorem"),
    (dict(q_list=()), "InvalidExponent: the case lists no q"),
    (dict(theorems=("T3.2", "T3.2")), "InvalidTheorem: theorem 'T3.2' is listed more than once"),
    (dict(q_list=(2, 2.0)), "InvalidExponent: q 2.0 is listed more than once"),
], ids=["unknown_theorem", "no_theorem", "no_q", "repeated_theorem", "repeated_q"])
def test_run_case_turns_hand_built_lists_load_case_rejects_into_input_error(change, error):
    # load_case rejects these lists; a CorpusCase built by hand bypasses it
    case = replace(load_corpus("poly_x2")[0], **change)
    result = run_case(case, grid=SampleGrid(5, 5, 3, 20))
    assert result.verdict == "input_error"
    assert result.error == error
    assert result.hypotheses == [] and result.bounds == []


# bad requests: what each changes in a good one (q list [2.0], theorem list
# ["T3.2"] and, for a scan, 3 steps and an a range [0, 0.4]), and the kind and
# message of the one rule it breaks; a scan's steps and ranges have no kind
BAD_REQUESTS = {
    "unknown_id": (dict(theorems=["T3.2", "T9"]), "InvalidTheorem", "unknown theorem id 'T9'"),
    "repeated_id": (dict(theorems=["T3.2", "T4.1", "T3.2"]), "InvalidTheorem",
                    "theorem 'T3.2' is listed more than once"),
    "repeated_q": (dict(q_list=[2.0, 2.0]), "InvalidExponent", "q 2.0 is listed more than once"),
    "q_below_one": (dict(q_list=[1.0, 0.5]), "InvalidExponent",
                    "every q must be finite and >= 1, got [1.0, 0.5]"),
    "q_infinite": (dict(q_list=[1.0, math.inf]), "InvalidExponent",
                   "every q must be finite and >= 1, got [1.0, inf]"),
    "no_q": (dict(q_list=[]), "InvalidExponent", "the case lists no q"),
    "no_theorem": (dict(theorems=[]), "InvalidTheorem", "the case lists no theorem"),
    "one_step": (dict(steps=1), None, "steps must be at least 2, got 1"),
    "nan_range_end": (dict(a_range=(math.nan, 0.4)), None,
                      "a_range needs finite ends and a finite width hi - lo, got [nan, 0.4]"),
    "wide_range": (dict(a_range=(-1e308, 1e308)), None,
                   "a_range needs finite ends and a finite width hi - lo, "
                   "got [-1e+308, 1e+308]"),
}
SCAN_ONLY = ("one_step", "nan_range_end", "wide_range")


def _load_case_text(q_list=(2.0,), theorems=("T3.2",)):
    with pytest.raises(CaseConfigError) as info:
        load_case(square_case(q=list(q_list), theorems=list(theorems)))
    return str(info.value)


def _run_case_text(q_list=(2.0,), theorems=("T3.2",)):
    case = replace(load_corpus("poly_x2")[0], q_list=tuple(q_list),
                   theorems=tuple(theorems))
    result = run_case(case, grid=SampleGrid(5, 5, 3, 20))
    assert result.verdict == "input_error"
    assert result.hypotheses == [] and result.bounds == []
    return result.error


def _tightness_scan_text(q_list=(2.0,), theorems=("T3.2",), steps=3, a_range=(0.0, 0.4)):
    model = _model("x^2", "2*x", "(x^3)/3", K=(0.0, 1.0))
    with pytest.raises(ValueError) as info:
        tightness_scan(model, EtaMap.difference(), Domain(0.0, 1.0), a_range, (0.6, 1.0),
                       q_list, steps=steps, theorems=theorems)
    return str(info.value)


def _cli_check_text(q_list=(2.0,), theorems=("T3.2",)):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "case.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(square_case(q=list(q_list), theorems=list(theorems)), fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["--quiet", "check", path]) == 3
    return err.getvalue()


def _cli_scan_text(q_list=(2.0,), theorems=("T3.2",), steps=3, a_range=(0.0, 0.4)):
    argv = ["scan", "--f", "x^2", "--df", "2*x", "--K", "0,1",
            "--a-range=" + ",".join(map(repr, a_range)), "--b-range", "0.6,1",
            "--q", ",".join(map(repr, q_list)), "--theorems", ",".join(theorems),
            "--steps", str(steps)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(argv) == 3
    return err.getvalue()


# entry point -> (its text for a bad request, that text's shape, the requests
# that reach the shared rule there); --q rejects an empty list as text
CASE_REQUESTS = tuple(r for r in BAD_REQUESTS if r not in SCAN_ONLY)
ENTRY_POINTS = {
    "load_case": (_load_case_text, "case 'unit_square': {message}", CASE_REQUESTS),
    "run_case": (_run_case_text, "{kind}: {message}", CASE_REQUESTS),
    "tightness_scan": (_tightness_scan_text, "{message}", tuple(BAD_REQUESTS)),
    "simpvex_check": (_cli_check_text, "error: case 'unit_square': {message}\n",
                      CASE_REQUESTS),
    "simpvex_scan": (_cli_scan_text, "error: {message}\n",
                     tuple(r for r in BAD_REQUESTS if r != "no_q")),
}


@pytest.mark.parametrize("entry, request_id", [
    (entry, request_id) for entry, (_, _, requests) in ENTRY_POINTS.items()
    for request_id in requests])
def test_every_entry_point_rejects_a_bad_request_with_the_same_message(entry, request_id):
    request, kind, message = BAD_REQUESTS[request_id]
    text, shape, _ = ENTRY_POINTS[entry]
    assert text(**request) == shape.format(kind=kind, message=message)


def test_run_case_turns_f_prime_failing_at_b_into_input_error():
    # the sweeps and the lemma path (which ends at a + eta = b / 2) never reach b
    cfg = square_case(f="x", df="if(x == 0.7123456789, 1/(x-0.7123456789), 1)", F=None,
                      eta={"kind": "expression", "value": "0.5*(v-u)"}, b=0.7123456789,
                      q=[1], theorems=["T3.1", "T4.1"])
    result = run_case(load_case(cfg))
    assert result.verdict == "input_error"
    assert result.error == ("EvalDomainError: T3.1 needs |f'(a)| and |f'(b)|: division by "
                            "zero in (1.0 / (x - 0.7123456789)) at 0.0")
    assert result.bounds == []
    assert [h.verdict for h in result.hypotheses] == ["verified_on_samples"] * 3


def test_consecutive_cases_on_one_K_and_eta_share_a_plan():
    x2, x3 = load_corpus("poly_x2")[0], load_corpus("poly_x3")[0]
    assert (x2.model.domain, x2.eta) == (x3.model.domain, x3.eta)
    _plan.cache_clear()
    run_case(x2)
    run_case(x3)
    assert _plan.cache_info().misses == 1


def test_cases_on_one_plan_get_equal_invex_set_reports():
    x2, x3 = load_corpus("poly_x2")[0], load_corpus("poly_x3")[0]
    _plan.cache_clear()
    first, second = run_case(x2).hypotheses[0], run_case(x3).hypotheses[0]
    assert first.property == "invex_set"
    assert second == first
    K, tol = x2.model.domain, x2.tolerances.invexity
    other = check_invex_set(K, x2.eta, tol=10 * tol)  # another tol on the same plan
    assert other == first
    assert _plan.cache_info().misses == 1


def test_corpus_run_does_the_shared_plan_work_once(monkeypatch):
    """Pins the work a corpus run does in the sample plans, as its digest pins the bytes."""
    df_calls = [0]
    invex_sets = [0]
    counted = {}  # id(model) -> (model, its counting stand-in), one stand-in per model
    pair, report = runner.hypothesis_pair, invexity._report

    def counting_pair(model, *args):
        if id(model) not in counted:
            df = model.df_fn

            def df_fn(x):
                df_calls[0] += 1
                return df(x)

            counted[id(model)] = (model, SimpleNamespace(df_fn=df_fn))
        return pair(counted[id(model)][1], *args)

    def counting_report(prop, *args):
        invex_sets[0] += prop == "invex_set"
        return report(prop, *args)

    monkeypatch.setattr(runner, "hypothesis_pair", counting_pair)
    monkeypatch.setattr(invexity, "_report", counting_report)
    _plan.cache_clear()
    run_corpus()
    assert _plan.cache_info().misses == 8
    assert invex_sets[0] == 15  # one report computed per case, none kept on a plan
    # every case's f' at every sample point of its plan
    assert df_calls[0] == 15 * 41_383 == 620_745


def _fresh_config(monkeypatch, seed, index):
    """Generated case ``index`` of a fresh_cases run with ``seed``, as perfbench/inputs.py draws it."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import inputs

    return inputs.fresh_cases(seed, index // 28, 28)[0][index % 28]


def _classical(result):
    (bound,) = [bv for bv in result.bounds if bv.theorem == "CLASSICAL"]
    return bound


@pytest.mark.parametrize("seed, index, verdict", [(0, 14, "pass"),
                                                   (4242, 48, "hypothesis_unmet")])
def test_a_bound_within_its_quadrature_error_of_equality_is_not_a_violation(
        monkeypatch, seed, index, verdict):
    # quartics without F: CLASSICAL holds with equality, so its slack is about -qerr
    result = run_case(load_case(_fresh_config(monkeypatch, seed, index)))
    qerr, slack = result.defect.quadrature_error, _classical(result).slack
    assert -(2 * qerr + 1e-12) < slack < -1e-12
    assert result.verdict == verdict
    assert result.notes[-1] == (f"note: CLASSICAL slack {slack!r} lies within the quadrature "
                                f"error estimate {qerr!r}; not counted as a violation")


@pytest.mark.parametrize("shortfall, verdict", [(2.5, "violation"), (0.5, "pass")])
def test_a_bound_below_its_lhs_by_more_than_its_quadrature_error_is_a_violation(
        monkeypatch, shortfall, verdict):
    # d4sup scaled so CLASSICAL's rhs is |defect| - shortfall * qerr
    cfg = _fresh_config(monkeypatch, 0, 14)
    exact = run_case(load_case(cfg))
    lhs, qerr = abs(exact.defect.defect), exact.defect.quadrature_error
    cfg["d4sup"] *= (lhs - shortfall * qerr) / _classical(exact).rhs
    result = run_case(load_case(cfg))
    assert _classical(result).rhs == pytest.approx(lhs - shortfall * qerr, rel=1e-15)
    assert result.verdict == verdict
    assert any(note.startswith("note: CLASSICAL slack") for note in result.notes) == (
        verdict == "pass")


def test_generated_cases_keep_their_recorded_verdicts_and_scans(monkeypatch, data_dir):
    # tests/data/fresh_verdicts.json, written by tools/fresh_ledger.py: a change that
    # moves a verdict, a bound's number or a scan there re-records the ledger and declares it
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "tools"))
    import fresh_ledger

    recorded = json.loads((data_dir / "fresh_verdicts.json").read_text(encoding="utf-8"))
    assert len(recorded) == 84 + 7  # the fresh configs, then the scan pool's models
    assert sum(len(entry.get("bounds", ())) for entry in recorded.values()) == 407
    scans = [entry["scan"] for entry in recorded.values()]
    assert (len(scans), sum(scan.startswith("EvalDomainError: ") for scan in scans)) == (91, 4)
    now = json.loads(json.dumps(fresh_ledger.ledger()))
    assert list(now) == list(recorded)
    assert {name: entry for name, entry in now.items() if entry != recorded[name]} == {}


def test_run_case_turns_a_hand_built_classical_without_d4sup_into_input_error():
    # load_case rejects this config; a CorpusCase built by hand bypasses it
    case = replace(load_corpus("frac_power")[0], theorems=("T3.1", "CLASSICAL"))
    result = run_case(case, grid=SampleGrid(5, 5, 3, 20))
    assert result.verdict == "input_error"
    assert result.error == ("MissingFourthDerivative: model 'frac_power' has no d4sup; "
                            "the classical bound needs one")
    assert result.hypotheses == [] and result.bounds == []


SQRT_ETA = EtaMap.from_expression("sqrt(v-u)")  # fails wherever v < u


def test_run_case_turns_an_eta_failing_in_the_invex_set_check_into_input_error(monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("swept after the invex-set check failed")

    monkeypatch.setattr(runner, "hypothesis_pair", no_sweep)
    monkeypatch.setattr(bounds, "simpson_defect", no_sweep)
    model = _model("x^2", "2*x", "(x^3)/3", K=(0.0, 1.0))
    case = runner.CorpusCase("sqrt_eta", model, SQRT_ETA, 0.0, 0.25, (1.0,),
                             ("T3.1", "T4.1"), runner.DEFAULT_TOLERANCES)
    result = run_case(case, grid=SampleGrid(5, 5, 3, 20))
    assert result.verdict == "input_error"
    assert result.error == ("EvalDomainError: invex-set check of eta on K: square root of "
                            "negative argument in sqrt((v - u)) at -0.25")
    assert result.eta_step == 0.5
    assert result.hypotheses == [] and result.bounds == [] and result.defect is None


def test_scan_treats_an_eta_failing_in_the_invex_set_check_as_not_invex():
    model = _model("x^4", "4*x^3", "(x^5)/5", K=(0.0, 1.0), d4sup=24.0)
    results = tightness_scan(model, SQRT_ETA, Domain(0.0, 1.0), (0.0, 0.25), (0.25, 0.5),
                             [1.0, 2.0], steps=3, theorems=("T3.1", "T4.1", "CLASSICAL"),
                             grid=SMALL_GRID)
    t31, t41, classical = results
    assert (t31.status, t31.cells, t31.skipped) == ("all_skipped", 9, 9)
    assert (t41.status, t41.cells, t41.skipped) == ("all_skipped", 18, 18)
    # CLASSICAL needs no hypothesis; only the cell a = b = 0.25 (step 0) is skipped
    assert (classical.status, classical.cells, classical.skipped) == ("ok", 9, 1)
    # where b < a, sqrt(v - u) fails at the cell itself: 3 such cells and 3 with b = a
    (classical,) = tightness_scan(_model("x^2", "2*x", K=(0.0, 1.0), d4sup=2.0), SQRT_ETA,
                                  Domain(0.0, 1.0), (0.0, 0.5), (0.0, 0.5), [1.0], steps=3,
                                  theorems=("CLASSICAL",), grid=SMALL_GRID)
    assert (classical.status, classical.cells, classical.skipped) == ("ok", 9, 6)


_POLY_ETAS = [EtaMap.difference(), EtaMap.abs_example(), EtaMap.from_expression("0.5*(v-u)"),
              EtaMap.from_expression("v-2*u"), SQRT_ETA]
_COEFFICIENT = st.sampled_from((-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0))


@st.composite
def _polynomial_cases(draw):
    """Hand-built cases (no load_case) on polynomial models, whose f' is defined on all of K."""
    c = draw(st.lists(_COEFFICIENT, min_size=5, max_size=5))
    f = " + ".join(f"({c[i]})*x^{i}" for i in range(5))
    df = " + ".join(f"({i * c[i]})*x^{i - 1}" for i in range(1, 5))
    F = " + ".join(f"({c[i] / (i + 1)})*x^{i + 1}" for i in range(5))
    K = draw(st.sampled_from(((0.0, 1.0), (-1.0, 1.0), (-2.0, 0.5), (0.5, 2.0))))
    d4sup = draw(st.sampled_from((None, 0.0, abs(24.0 * c[4]) + 1.0)))
    model = _model(f, df, F if draw(st.booleans()) else None, K=K, d4sup=d4sup)
    mid = 0.5 * (K[0] + K[1])
    a = draw(st.sampled_from((K[0], 0.5 * (K[0] + mid), mid)))
    b = draw(st.sampled_from((mid, 0.5 * (mid + K[1]), K[1])))
    q_list = tuple(draw(st.lists(st.sampled_from((1.0, 1.5, 3.0)), min_size=1, max_size=3,
                                 unique=True)))
    theorems = tuple(draw(st.lists(st.sampled_from(runner.THEOREM_IDS), min_size=1,
                                   max_size=len(runner.THEOREM_IDS), unique=True)))
    grid = SampleGrid(nu=draw(st.integers(2, 5)), nv=draw(st.integers(2, 5)),
                      nt=draw(st.integers(2, 4)), random_triples=draw(st.integers(0, 10)))
    case = runner.CorpusCase("generated", model, draw(st.sampled_from(_POLY_ETAS)), a, b,
                             q_list, theorems, runner.DEFAULT_TOLERANCES)
    return case, grid


@given(_polynomial_cases())
@settings(max_examples=100)
def test_polynomial_cases_give_verdicts_never_a_traceback(generated):
    case, grid = generated
    result = run_case(case, grid)
    assert result.verdict in ("pass", "hypothesis_unmet", "violation", "input_error")
    K = case.model.domain
    results = tightness_scan(case.model, case.eta, K, (K.lo, case.a), (case.b, K.hi),
                             case.q_list, 3, case.theorems, case.tolerances, grid)
    assert [r.theorem for r in results] == list(case.theorems)


def test_case_interval_two_ulps_wide_runs_without_F():
    # the defect integrates f over [a, b]: too narrow to split, one Simpson panel
    cfg = json.loads((runner._corpus_dir() / "poly_x2.json").read_text(encoding="utf-8"))
    del cfg["F"], cfg["expected"]
    a = 0.5
    b = math.nextafter(math.nextafter(a, 1.0), 1.0)
    result = run_case(load_case(dict(cfg, a=a, b=b)))
    assert result.verdict == "pass"
    assert result.defect.evaluations == 3


def test_K_one_ulp_wide_passes_the_F_gate():
    K = [1.0, math.nextafter(1.0, 2.0)]
    case = load_case(square_case(K=K, a=K[0], b=K[1]))
    assert run_case(case).verdict == "pass"


# Known faults whose mends move recorded benchmark bytes; each mend drops its marker.


@pytest.mark.xfail(strict=True, raises=EvalDomainError, reason="ROADMAP item 1")
def test_an_f_prime_failing_in_the_hypothesis_sweep_is_an_input_error():
    # f' = 0.5/sqrt(x) divides by zero at x = 0, a sample point of K the sweep reads
    cfg = square_case(f="sqrt(x)", df="0.5/sqrt(x)", F=None, a=0.25, b=0.75, q=[1],
                      theorems=["T3.1"])
    assert run_case(load_case(cfg)).verdict == "input_error"


@pytest.mark.xfail(strict=True, raises=EvalDomainError, reason="ROADMAP item 1")
def test_a_scan_whose_hypothesis_sweep_fails_skips_that_modes_cells():
    model = _model("sqrt(x)", "0.5/sqrt(x)", K=(0.0, 1.0))
    results = tightness_scan(model, EtaMap.difference(), Domain(0.0, 1.0),
                             (0.0, 0.5), (0.5, 1.0), [1.0], steps=3, theorems=("T3.1",))
    assert [(r.status, r.cells, r.skipped) for r in results] == [("all_skipped", 9, 9)]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 2")
def test_a_convex_f_prime_to_a_large_q_meets_its_hypotheses():
    # |f'|^40 = (2 + x^2)^40 is convex on [0, 1]; its values near 3^40 differ by a few ulps
    cfg = square_case(f="2*x+x^3/3", df="2+x^2", F=None, q=[40], theorems=["T3.4"])
    assert run_case(load_case(cfg)).verdict == "pass"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 2")
def test_a_wide_K_is_invex_for_the_difference_map():
    # at t = 1, u + 1.0*(v - u) rounds one ulp of 1e307 above v
    result = run_case(load_case(square_case(f="2*x", df="2", F=None, K=[0, 1e307],
                                            q=[1], theorems=["T3.1"])))
    assert [(h.property, h.verdict) for h in result.hypotheses[:1]] == [
        ("invex_set", "verified_on_samples")]
