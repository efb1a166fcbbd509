import copy
import importlib
import json
import math
from pathlib import Path

import pytest

from simpvex.record import replace
from simpvex.runner import RunReport, load_corpus, run_case

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def report_diff(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    return importlib.import_module("report_diff")


@pytest.fixture
def corpus_doc(corpus_report):
    """The corpus report, and exp01 run again without F: every corpus case has an
    antiderivative, so only that run's defect carries a quadrature error."""
    case = load_corpus("exp01")[0]
    no_F = replace(case, name="exp01_no_F", model=replace(case.model, F=None))
    return json.loads(RunReport(corpus_report.results + [run_case(no_F)], 0.0).to_json())


def _run(report_diff, tmp_path, capsys, old, new):
    """(exit code, printed lines) of report_diff OLD NEW."""
    paths = []
    for name, doc in (("old.json", old), ("new.json", new)):
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
        paths.append(str(tmp_path / name))
    code = report_diff.main(paths)
    return code, capsys.readouterr().out.splitlines()


def _case_without_F(doc):
    (case,) = [case for case in doc["cases"] if case["quadrature_error"] > 0.0]
    return case


def test_a_report_against_itself_has_no_difference(report_diff, corpus_doc, tmp_path, capsys):
    code, lines = _run(report_diff, tmp_path, capsys, corpus_doc, corpus_doc)
    assert (code, lines) == (0, ["0 differences: 0 verdict, 0 within err, 0 beyond err"])


@pytest.mark.parametrize("factor, cls, code", [(0.5, 2, 0), (5.0, 3, 1)],
                         ids=["half_its_error", "ten_times_that"])
def test_a_moved_defect_is_weighed_against_its_quadrature_error(
        report_diff, corpus_doc, tmp_path, capsys, factor, cls, code):
    new = copy.deepcopy(corpus_doc)
    case = _case_without_F(new)
    old_defect = case["defect"]
    case["defect"] += factor * case["quadrature_error"]
    got, lines = _run(report_diff, tmp_path, capsys, corpus_doc, new)
    assert got == code
    assert lines[:-1] == [f"{cls} {case['case']} defect: {old_defect!r} -> {case['defect']!r}"]


def test_a_flipped_verdict_is_class_one(report_diff, corpus_doc, tmp_path, capsys):
    new = copy.deepcopy(corpus_doc)
    case = new["cases"][0]
    case["verdict"] = "violation"
    code, lines = _run(report_diff, tmp_path, capsys, corpus_doc, new)
    assert (code, lines) == (0, [f"1 {case['case']} verdict: 'pass' -> 'violation'",
                                 "1 differences: 1 verdict, 0 within err, 0 beyond err"])


@pytest.mark.parametrize("move, cls, code", [
    (lambda rhs: math.nextafter(math.nextafter(rhs, math.inf), math.inf), 2, 0),
    (lambda rhs: rhs * (1.0 + 1e-9), 3, 1),
    (lambda rhs: math.inf, 3, 1),
], ids=["two_ulps", "relative_1e-9", "to_inf"])
def test_a_moved_bound_rhs_is_weighed_in_ulps(report_diff, corpus_doc, tmp_path, capsys,
                                              move, cls, code):
    new = copy.deepcopy(corpus_doc)
    case = new["cases"][0]
    bound = case["bounds"][0]
    old_rhs, bound["rhs"] = bound["rhs"], move(bound["rhs"])
    got, lines = _run(report_diff, tmp_path, capsys, corpus_doc, new)
    assert got == code
    assert lines[:-1] == [f"{cls} {case['case']} bounds[0].rhs: {old_rhs!r} -> {bound['rhs']!r}"]


def test_a_case_in_one_report_only_is_class_three(report_diff, corpus_doc, tmp_path, capsys):
    new = copy.deepcopy(corpus_doc)
    gone = new["cases"].pop()["case"]
    code, lines = _run(report_diff, tmp_path, capsys, corpus_doc, new)
    assert (code, lines) == (1, [f"3 {gone}: present -> absent",
                                 "1 differences: 0 verdict, 0 within err, 1 beyond err"])


def test_an_unreadable_report_exits_two(report_diff, tmp_path, capsys):
    (tmp_path / "list.json").write_text("[]", encoding="utf-8")
    assert report_diff.main([str(tmp_path / "list.json"), str(tmp_path / "missing.json")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {str(tmp_path / 'list.json')!r} holds")


def _one_case(defect):
    return {"cases": [{"case": "a", "defect": defect}]}


def test_nan_on_both_sides_is_no_difference(report_diff):
    assert report_diff.differences(_one_case(math.nan), _one_case(math.nan)) == []


@pytest.mark.parametrize("old, new", [(-math.inf, 0.5), (math.inf, 2.0), (0.5, -math.inf),
                                      (math.inf, -math.inf), (math.nan, math.inf)])
def test_a_move_to_or_from_an_infinity_is_class_three(report_diff, old, new):
    # ulp(inf) is inf, so no err bounds such a move; a report holds Infinity
    # where, say, an expression eta's step overflows
    assert report_diff.differences(_one_case(old), _one_case(new)) == [
        (3, "a", "defect", old, new)]


def test_a_zero_that_changes_sign_is_class_two(report_diff, tmp_path, capsys):
    # -0.0 and 0.0 are equal numbers, but the report bytes differ
    assert report_diff.differences(_one_case(0.0), _one_case(-0.0)) == [
        (2, "a", "defect", 0.0, -0.0)]
    code, lines = _run(report_diff, tmp_path, capsys, _one_case(0.0), _one_case(-0.0))
    assert (code, lines) == (0, ["2 a defect: 0.0 -> -0.0",
                                 "1 differences: 0 verdict, 1 within err, 0 beyond err"])
