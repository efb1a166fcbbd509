import json

import jsonschema
import pytest

from simpvex import bounds, runner
from simpvex.bounds import FunctionModel
from simpvex.errors import CaseConfigError
from simpvex.invexity import Domain, EtaMap, SampleGrid
from simpvex.expr import parse
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
    report = run_corpus(name_filter="x4")
    assert [r.name for r in report.results] == ["poly_x4"]
    r = report.results[0]
    assert r.verdict == "pass"
    assert r.defect.defect == pytest.approx(1.0 / 120.0, abs=1e-14)
    assert r.golden_failures == []


def test_corpus_filter_without_match_is_empty():
    report = run_corpus(name_filter="no_such_case")
    assert report.results == []
    assert report.counts["cases"] == 0
    jsonschema.validate(json.loads(report.to_json()), runner.report_schema())


def test_corpus_runs_are_byte_identical():
    a = run_corpus(name_filter="poly_x2").to_json()
    b = run_corpus(name_filter="poly_x2").to_json()
    assert a == b


def test_report_json_is_sorted_and_schema_valid(corpus_report):
    text = corpus_report.to_json()
    doc = json.loads(text)
    jsonschema.validate(doc, runner.report_schema())
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert "wall_time" not in text


def test_report_csv_shape(corpus_report):
    lines = corpus_report.to_csv().strip().split("\n")
    assert lines[0] == ("case,verdict,theorem,q,p,rhs,slack,defect,"
                        "quadrature_error,identity_residual")
    bound_rows = sum(len(r.bounds) or 1 for r in corpus_report.results)
    assert len(lines) == 1 + bound_rows
    assert any(line.startswith("poly_x2,pass,T3.1,") for line in lines)


def test_wrong_derivative_fixture_rejected_at_load(data_dir):
    config = json.loads((data_dir / "bad_df.json").read_text())
    with pytest.raises(CaseConfigError) as info:
        load_case(config)
    assert "disagrees" in str(info.value)


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
    return [missing_df, square_case(q=[0.5]), square_case(theorems=["T9.9"]),
            square_case(eta={"kind": "mystery"}), square_case(extra_field=1)]


def test_load_case_schema_messages_match_jsonschema_validate():
    for bad in _schema_rejections():
        with pytest.raises(jsonschema.ValidationError) as want:
            jsonschema.validate(bad, runner.case_schema())
        path = "/".join(str(p) for p in want.value.absolute_path) or "<root>"
        with pytest.raises(CaseConfigError) as got:
            load_case(bad)
        assert str(got.value) == f"case config invalid at {path}: {want.value.message}"
        assert str(got.value.__cause__) == str(want.value)


def test_mutating_a_returned_schema_does_not_change_validation():
    runner.case_schema().clear()
    schema = runner.case_schema()
    schema["additionalProperties"] = True
    schema["required"] = []
    assert runner.case_schema() != schema
    with pytest.raises(CaseConfigError):
        load_case(square_case(extra_field=1))
    runner.report_schema().clear()
    with pytest.raises(jsonschema.ValidationError):
        runner._validate({"cases": []}, "report_schema")


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


def test_run_case_flags_point_outside_domain():
    case = load_case(square_case(b=2, K=[0, 1]))
    result = run_case(case)
    assert result.verdict == "input_error"
    assert result.error.startswith("DomainError")


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


def test_unmet_verdict_when_invex_set_fails():
    cfg = square_case(eta={"kind": "abs_example"}, K=[-1, 1], a=0, b=1,
                      theorems=["T3.1"])
    result = run_case(load_case(cfg))
    assert result.verdict == "hypothesis_unmet"
    assert any("not invex" in note for note in result.notes)


def test_tolerances_merge():
    tol = Tolerances().merged({"oracle": 1e-9, "slack": 1e-10})
    assert tol.oracle == 1e-9
    assert tol.slack == 1e-10
    assert tol.invexity == 1e-12
    assert Tolerances().merged(None) == Tolerances()


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


def test_tightness_rejects_unknown_theorem_before_sweeping(monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("swept before validating theorem ids")

    monkeypatch.setattr(runner, "check_invex_set", no_sweep)
    monkeypatch.setattr(runner, "hypothesis_pair", no_sweep)
    model = _model("x^2", "2*x", "(x^3)/3", K=(0.0, 1.0))
    with pytest.raises(ValueError, match="unknown theorem id 'T9'"):
        tightness_scan(model, EtaMap.difference(), Domain(0.0, 1.0),
                       (0.0, 0.0), (1.0, 1.0), [1.0], steps=2, theorems=("T3.1", "T9"))


def test_one_cell_scan_matches_run_case(corpus_report):
    results = {r.name: r for r in corpus_report.results}
    for case in load_corpus():
        result = results[case.name]
        scans = tightness_scan(case.model, case.eta, case.model.domain,
                               (case.a, case.a), (case.b, case.b), case.q_list, steps=2,
                               theorems=case.theorems, tolerances=case.tolerances)
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
