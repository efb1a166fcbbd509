import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

# jsonschema is imported inside the tests that use it, so an interpreter without its
# compiled parts fails only those tests, and the rest of the module still runs

import simpvex
from simpvex import quadrature, runner
from simpvex.cli import main
from simpvex.errors import CaseConfigError

TWO_PI = "6.283185307179586"


def write_config(path, cfg):
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def square_config():
    return {
        "name": "tmp_square",
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


def sin_config():
    return {
        "name": "tmp_sin",
        "f": f"sin({TWO_PI}*x)",
        "df": f"{TWO_PI}*cos({TWO_PI}*x)",
        "F": f"-cos({TWO_PI}*x)/{TWO_PI}",
        "eta": {"kind": "difference"},
        "K": [0, 1],
        "a": 0,
        "b": 1,
        "q": [1],
        "theorems": ["C4.2"],
    }


def test_help_exits_zero():
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0


def test_missing_subcommand_exits_three():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 3


def test_missing_required_flag_exits_three():
    with pytest.raises(SystemExit) as info:
        main(["moments"])
    assert info.value.code == 3


def test_moments_table(capsys):
    assert main(["moments", "--p", "1,1.5,2"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "p,closed_form,numeric,abs_diff"
    assert len(out) == 4
    for line in out[1:]:
        parts = line.split(",")
        assert float(parts[3]) <= 1e-10
    assert float(out[1].split(",")[1]) == pytest.approx(5.0 / 72.0, rel=1e-15)


def test_moments_table_bytes_are_pinned(capsys):
    assert main(["moments", "--p", "1,1.5,2,2.5,3,7,10,49.5,60,100.25"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == (
        "77d7de54424bd218024ffe5f8d51c7b0e78625e126926fe3940889ab5fc3ebaa")


def test_moments_agree_with_the_closed_form_to_a_relative_tolerance(capsys):
    orders = [1 + 0.5 * i for i in range(20)] + [10.25 + 7.25 * i for i in range(40)] + [300.0]
    assert main(["moments", "--p", ",".join(map(repr, orders))]) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert len(rows) == len(orders)
    for row in rows:
        p, closed, numeric, _ = map(float, row.split(","))
        assert numeric == pytest.approx(closed, rel=1e-10, abs=0.0), row


def test_a_moment_order_whose_scale_underflows_exits_three(capsys):
    assert main(["moments", "--p", "2,645"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: moment order 645.0 is too large: (1/3)^p underflows\n"


def test_moments_rejects_bad_order(capsys):
    assert main(["moments", "--p", "0.5"]) == 3
    assert "error" in capsys.readouterr().err


def test_moments_out_file(tmp_path):
    target = tmp_path / "moments.csv"
    assert main(["moments", "--p", "2", "--out", str(target)]) == 0
    assert target.read_text().startswith("p,closed_form")
    # a failed run leaves the file empty, as a shell redirect does
    assert main(["moments", "--p", "0.5", "--out", str(target)]) == 3
    assert target.read_text() == ""


def test_check_passing_case(tmp_path, capsys):
    import jsonschema
    cfg = write_config(tmp_path / "case.json", square_config())
    assert main(["check", cfg]) == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    jsonschema.validate(doc, runner.report_schema())
    assert doc["cases"][0]["verdict"] == "pass"
    assert "verdict: pass" in captured.err


def test_a_cases_own_tolerances_win_over_the_tol_flags(tmp_path, monkeypatch, capsys):
    seen, real = [], runner.run_case

    def run_case(case):
        seen.append(case.tolerances)
        return real(case)

    monkeypatch.setattr(runner, "run_case", run_case)
    cfg = write_config(tmp_path / "case.json", dict(square_config(), tolerances={"slack": 0.5}))
    assert main(["--quiet", "check", cfg, "--tol-slack", "1e-3", "--tol-invexity", "1e-10"]) == 0
    # the case's slack wins; a flag sets what the case leaves out
    assert seen == [runner.Tolerances(slack=0.5, invexity=1e-10)]
    assert json.loads(capsys.readouterr().out)["cases"][0]["verdict"] == "pass"


@pytest.mark.parametrize("argv", [
    ["corpus", "--filter", "poly_x1"],
    ["check", "CONFIG"],
], ids=["corpus", "check"])
@pytest.mark.parametrize("where", ["before", "after"])
def test_quiet_is_accepted_before_and_after_the_subcommand(argv, where, tmp_path, capsys):
    argv = [write_config(tmp_path / "case.json", square_config()) if word == "CONFIG" else word
            for word in argv]
    argv = ["--quiet"] + argv if where == "before" else argv + ["--quiet"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["counts"]["pass"] == 1
    assert captured.err == ""


def test_check_strict_flags_unmet(tmp_path):
    cfg = write_config(tmp_path / "sin.json", sin_config())
    assert main(["check", cfg]) == 0
    assert main(["check", cfg, "--strict"]) == 2


def test_check_invalid_eta_fixture(data_dir, capsys):
    assert main(["check", str(data_dir / "invalid_eta.json")]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["cases"][0]["verdict"] == "input_error"


def test_check_wrong_derivative_fixture(data_dir, capsys):
    assert main(["check", str(data_dir / "bad_df.json")]) == 3
    assert "disagrees" in capsys.readouterr().err


def test_check_missing_file(capsys):
    assert main(["check", "/no/such/file.json"]) == 3
    assert "cannot read" in capsys.readouterr().err


def test_check_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops", encoding="utf-8")
    assert main(["check", str(path)]) == 3
    assert "invalid JSON" in capsys.readouterr().err


def _one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: "), err
    return err[len("error: "):-1]


def test_check_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
    assert main(["check", str(path)]) == 3
    assert _one_error_line(capsys).startswith(f"cannot read {str(path)!r}: 'utf-8' codec ")


def test_check_json_nested_too_deeply(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"a": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
    assert main(["check", str(path)]) == 3
    assert _one_error_line(capsys).startswith(f"{path}: invalid JSON: maximum recursion depth")


def test_check_an_integer_literal_with_too_many_digits(tmp_path, capsys):
    path = tmp_path / "digits.json"
    path.write_text('{"a": ' + "7" * 5000 + "}", encoding="utf-8")
    assert main(["check", str(path)]) == 3
    assert _one_error_line(capsys).startswith(f"{path}: invalid JSON: Exceeds the limit")


_HUGE = 10 ** 400


@pytest.mark.parametrize("path, value, field", [
    (("a",), -_HUGE, "case 'tmp_square': a"),
    (("b",), _HUGE, "case 'tmp_square': b"),
    (("q", 1), _HUGE, "case 'tmp_square': q[1]"),
    (("K", 0), -_HUGE, "K[0]"),
    (("K", 1), _HUGE, "K[1]"),
    (("d4sup",), _HUGE, "d4sup"),
    (("tolerances", "oracle"), _HUGE, "tolerance oracle"),
    (("tolerances", "slack"), _HUGE, "tolerance slack"),
    (("tolerances", "invexity"), -_HUGE, "tolerance invexity"),
    (("expected", "T3.1", "rhs"), _HUGE, "case 'tmp_square': expected 'T3.1' rhs"),
    (("expected", "T3.1", "tolerance"), _HUGE, "case 'tmp_square': expected 'T3.1' tolerance"),
])
def test_an_integer_too_large_for_a_float_is_a_config_error(tmp_path, capsys, path, value,
                                                            field):
    cfg = dict(square_config(), d4sup=0.0, tolerances={"oracle": 1e-10, "slack": 1e-12},
               expected={"T3.1": {"rhs": 0.1388888888888889, "tolerance": 1e-9}})
    *parents, last = path
    node = cfg
    for key in parents:
        node = node[key]
    node[last] = value
    message = f"{field} is an integer too large for a float"
    with pytest.raises(CaseConfigError) as info:
        runner.load_case(json.loads(json.dumps(cfg)))
    assert str(info.value) == message
    assert main(["check", write_config(tmp_path / "huge.json", cfg)]) == 3
    assert _one_error_line(capsys) == message


@pytest.mark.parametrize("key, entry, message", [
    ("T3.2@x", {"rhs": 0.2, "tolerance": 1e-9}, "expected key 'T3.2@x' is not a theorem id"),
    ("T3.1", {"rhs": 123.0, "tolerance": float("nan")},
     "expected 'T3.1' needs a finite rhs and a finite tolerance > 0"),
])
def test_check_bad_expected_entry_exits_three(tmp_path, capsys, key, entry, message):
    corpus = pathlib.Path(simpvex.__file__).parent / "corpus"
    cfg = json.loads((corpus / "poly_x2.json").read_text(encoding="utf-8"))
    cfg["expected"][key] = entry
    assert main(["check", write_config(tmp_path / "case.json", cfg)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: case 'poly_x2': {message}")


def test_corpus_csv_filtered(capsys):
    assert main(["corpus", "--filter", "poly_x2", "--format", "csv"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().split("\n")
    assert lines[0].startswith("case,verdict,theorem")
    assert all(line.startswith("poly_x2,") for line in lines[1:])
    assert "loaded 1 corpus case(s)" in captured.err


def test_corpus_json_to_file(tmp_path, capsys):
    import jsonschema
    target = tmp_path / "report.json"
    assert main(["--quiet", "corpus", "--filter", "poly_x4",
                 "--out", str(target)]) == 0
    assert capsys.readouterr().err == ""
    doc = json.loads(target.read_text())
    jsonschema.validate(doc, runner.report_schema())
    assert doc["counts"]["pass"] == 1


def test_corpus_filter_matching_no_case_exits_three(capsys):
    # an empty report would read as "every verdict passes", so a typo would pass CI
    assert main(["corpus", "--filter", "zzz_nothing"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no bundled case name contains 'zzz_nothing'\n"
    assert runner.load_corpus("zzz_nothing") == []


def test_corpus_strict_exits_two():
    assert main(["--quiet", "corpus", "--strict", "--filter", "sin_midpoint"]) == 2


def test_scan_square(capsys):
    assert main(["scan", "--f", "x^2", "--df", "2*x", "--F", "(x^3)/3",
                 "--K", "0,1", "--a-range", "0,0", "--b-range", "1,1",
                 "--q", "2", "--steps", "2", "--theorems", "T3.1"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "theorem,status,ratio,a,b,q,cells,skipped"
    # the quadratic has zero defect, so the ratio is exactly zero
    assert lines[1].startswith("T3.1,ok,0.0,")


def test_scan_skips_cells_with_a_nan_rhs(capsys):
    # f'(0) is NaN, so every cell with a = 0 has a NaN rhs; (0.5, 0.5) has no step
    assert main(["scan", "--f", "x^2", "--df", "if(x==0, (x-x)*1e999, 2*x)", "--K", "0,1",
                 "--a-range", "0,0.5", "--b-range", "0.5,1", "--steps", "3", "--q", "1",
                 "--theorems", "T3.1"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[1] == "T3.1,ok,0.0,0.25,0.5,1.0,9,4"


def test_scan_theorem_ids_may_carry_spaces_and_empty_parts(capsys):
    argv = ["scan", "--f", "x^2", "--df", "2*x", "--F", "(x^3)/3", "--K", "0,1",
            "--a-range", "0,0", "--b-range", "1,1", "--q", "1, 2", "--steps", "2"]
    assert main(argv + ["--theorems", "T3.1,T4.1"]) == 0
    spaced = capsys.readouterr().out
    assert main(argv + ["--theorems", " T3.1, T4.1 ,,"]) == 0
    assert capsys.readouterr().out == spaced
    assert [line.split(",")[0] for line in spaced.split("\n")[1:-1]] == ["T3.1", "T4.1"]
    assert main(argv + ["--theorems", " , "]) == 3
    assert capsys.readouterr().err == "error: the case lists no theorem\n"


def test_scan_antiderivative_gate_uses_tol_oracle(monkeypatch, capsys):
    seen = []
    integrate = quadrature.integrate

    def recording(fn, lo, hi, abs_tol=quadrature.DEFAULT_ABS_TOL, *args):
        seen.append(abs_tol)
        return integrate(fn, lo, hi, abs_tol, *args)

    monkeypatch.setattr(quadrature, "integrate", recording)
    # with F supplied the scan's defects need no quadrature, so the F gate is the only call
    assert main(["scan", "--f", "x^2", "--df", "2*x", "--F", "(x^3)/3", "--K", "0,1",
                 "--a-range", "0,0", "--b-range", "1,1", "--q", "1", "--steps", "2",
                 "--theorems", "T3.1", "--tol-oracle", "1e-9"]) == 0
    assert seen == [1e-9]


def test_scan_rejects_unknown_theorem(capsys):
    assert main(["scan", "--f", "x^2", "--df", "2*x", "--K", "0,1",
                 "--a-range", "0,0", "--b-range", "1,1",
                 "--theorems", "T8.1"]) == 3
    assert "unknown theorem" in capsys.readouterr().err


def test_scan_rejects_bad_eta(capsys):
    assert main(["scan", "--f", "x^2", "--df", "2*x", "--K", "0,1",
                 "--a-range", "0,0", "--b-range", "1,1",
                 "--eta", "teleport"]) == 3
    assert "--eta expects" in capsys.readouterr().err


@pytest.mark.parametrize("eta", ["difference:0.5*(v-u)", "abs_example:", "expression"])
def test_scan_rejects_a_value_on_a_builtin_eta_and_an_expression_without_one(capsys, eta):
    # the rule is EtaMap.from_config's, as for a case config; the message stays the CLI's
    assert main(["scan", "--f", "x^2", "--df", "2*x", "--K", "0,1",
                 "--a-range", "0,0", "--b-range", "1,1", "--eta", eta]) == 3
    assert f"--eta expects 'difference', 'abs_example' or 'expression:<expr>', got {eta!r}" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("theorems", ["", " , "])
def test_scan_rejects_an_empty_theorem_list(capsys, theorems):
    # --theorems "" lists no theorem, as " , " does: it does not mean every theorem
    assert main(["scan", "--f", "x^2", "--df", "2*x", "--K", "0,1",
                 "--a-range", "0,0", "--b-range", "1,1", "--theorems", theorems]) == 3
    assert "the case lists no theorem" in capsys.readouterr().err


def test_scan_rejects_a_K_whose_width_overflows(capsys):
    assert main(["scan", "--f", "x^2", "--df", "2*x", "--K=-1e308,1e308",
                 "--a-range", "0,0", "--b-range", "1,1"]) == 3
    assert "domain width hi - lo overflows" in capsys.readouterr().err


def test_scan_rejects_a_range_whose_width_overflows(capsys):
    # its axis would hold NaN where 0 lies, and every cell would be skipped
    assert main(["scan", "--f", "x^2", "--df", "2*x", "--K=-1,1",
                 "--a-range=-1e308,1e308", "--b-range", "0,1", "--steps", "3"]) == 3
    assert capsys.readouterr().err == (
        "error: --a-range width hi - lo overflows, got '-1e308,1e308'\n")


def test_scan_rejects_bad_range(capsys):
    assert main(["scan", "--f", "x^2", "--df", "2*x", "--K", "0,1",
                 "--a-range", "0", "--b-range", "1,1"]) == 3
    assert "exactly two numbers" in capsys.readouterr().err


SCAN_SQUARE = ["scan", "--f", "x^2", "--df", "2*x", "--K", "0,1",
               "--a-range", "0,0", "--b-range", "1,1"]


@pytest.mark.parametrize("argv, message", [
    (SCAN_SQUARE + ["--steps", "1"], "--steps must be at least 2, got 1"),
    (SCAN_SQUARE + ["--q", "0.5"], "every q must be finite and >= 1, got [0.5]"),
    (SCAN_SQUARE + ["--q", "1,nan"], "--q expects finite numbers, got '1,nan'"),
    (["moments", "--p", "nan"], "--p expects finite numbers, got 'nan'"),
    (["corpus", "--tol-oracle", "nan"], "tolerance oracle must be finite and > 0, got nan"),
    (["corpus", "--tol-oracle", "-1"], "tolerance oracle must be finite and > 0, got -1.0"),
    (["corpus", "--tol-slack", "nan"], "tolerance slack must be finite and > 0, got nan"),
    (["corpus", "--tol-slack", "-1e-3"], "tolerance slack must be finite and > 0, got -0.001"),
    (SCAN_SQUARE + ["--q", "a,b"], "--q expects comma-separated numbers, got 'a,b'"),
    (SCAN_SQUARE + ["--q", ","], "--q expects at least one number"),
    (SCAN_SQUARE + ["--q", "2,2"], "q 2.0 is listed more than once"),
    (SCAN_SQUARE + ["--theorems", "T3.2,T4.1,T3.2"], "theorem 'T3.2' is listed more than once"),
])
def test_bad_numbers_exit_three_without_a_traceback(argv, message, capsys):
    assert main(argv) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_scan_takes_no_slack_tolerance(capsys):
    # a scan reports ratios, not verdicts: --tol-slack would change no byte
    with pytest.raises(SystemExit) as info:
        main(SCAN_SQUARE + ["--tol-slack", "1e-3"])
    assert info.value.code == 3
    assert "unrecognized arguments: --tol-slack 1e-3" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["moments", "--p", "1"], ["check"],
                                  ["corpus", "--filter", "poly_x2"], SCAN_SQUARE],
                         ids=["moments", "check", "corpus", "scan"])
@pytest.mark.parametrize("target, reason", [("missing/x.csv", "No such file or directory"),
                                            (".", "Is a directory")],
                         ids=["missing-parent", "directory"])
def test_an_unwritable_out_path_exits_three_without_a_traceback(argv, target, reason,
                                                                 tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the run started before --out was opened")

    # the path is opened before the run, as a shell redirect is
    for module, name in ((runner, "run_case"), (runner, "run_corpus"),
                         (runner, "tightness_scan"), (quadrature, "integrate")):
        monkeypatch.setattr(module, name, never)
    if argv == ["check"]:
        argv = ["check", write_config(tmp_path / "case.json", square_config())]
    out = str(tmp_path / target)
    assert main(["--quiet"] + argv + ["--out", out]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {out!r}: {reason}\n"


def test_an_overflowing_rhs_is_input_error_in_check_and_a_skipped_cell_in_scan(tmp_path, capsys):
    # f = x on K = [0, 1e100]: CLASSICAL's step^4 overflows for the step 1e100
    cfg = {"name": "wide_line", "f": "x", "df": "1", "K": [0, 1e100], "d4sup": 0,
           "eta": {"kind": "difference"}, "a": 0, "b": 1e100, "q": [1],
           "theorems": ["CLASSICAL"]}
    assert main(["--quiet", "check", write_config(tmp_path / "wide_line.json", cfg)]) == 3
    (result,) = json.loads(capsys.readouterr().out)["cases"]
    assert (result["verdict"], result["error"]) == (
        "input_error", "OverflowError: rhs of CLASSICAL exceeds the float range")
    assert main(["scan", "--f", "x", "--df", "1", "--K=0,1e100", "--a-range=0,0",
                 "--b-range=1e100,1e100", "--steps", "2", "--theorems", "CLASSICAL",
                 "--d4sup", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "CLASSICAL,all_skipped,,,,,4,4"


def test_a_nan_derivative_is_input_error_in_check_and_a_skipped_cell_in_scan(tmp_path, capsys):
    # f' = 1 except at 0.75 (b), then at 0 (a), where it is NaN; no derivative-gate point hits it
    df = "if(x == 0.75, 0*(1e308*10), 1)"
    cfg = {"name": "nan_df", "f": "x", "df": df, "K": [0, 1],
           "eta": {"kind": "expression", "value": "0.5*(v-u)"}, "a": 0, "b": 0.75, "q": [1],
           "theorems": ["T3.1", "C4.1"]}
    assert main(["--quiet", "check", write_config(tmp_path / "nan_df.json", cfg)]) == 3
    (result,) = json.loads(capsys.readouterr().out)["cases"]
    assert (result["verdict"], result["error"]) == (
        "input_error", "EvalDomainError: T3.1 needs |f'(a)| and |f'(b)|: NaN value in "
                       "if((x == 0.75), (0.0 * (1e+308 * 10.0)), 1.0) at 0.75")
    for df in (df, "if(x == 0, 0*(1e308*10), 1)"):
        assert main(["scan", "--f", "x", "--df", df, "--K=0,1", "--a-range=0,0",
                     "--b-range=0.75,0.75", "--steps", "2", "--eta", "expression:0.5*(v-u)",
                     "--q", "1", "--theorems", "T3.1,C4.1,T4.1"]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            f"{theorem},all_skipped,,,,,4,4" for theorem in ("T3.1", "C4.1", "T4.1")]


# sin(x*x) and cos(x*x) meet an infinite argument where x*x overflows on K
SIN_WIDE = {"name": "sin_wide", "f": "sin(x*x)", "df": "2*x*cos(x*x)", "K": [0, 1e200]}


def test_trig_of_an_infinite_argument_exits_three_without_a_traceback(tmp_path, capsys):
    cfg = dict(SIN_WIDE, eta={"kind": "difference"}, a=0, b=1, q=[1], theorems=["T3.1"])
    scan = ["scan", "--f", SIN_WIDE["f"], "--df", SIN_WIDE["df"], "--K", "0,1e200",
            "--a-range", "0,0", "--b-range", "1,1", "--steps", "2"]
    for argv, name in ((["check", write_config(tmp_path / "sin_wide.json", cfg)], "sin_wide"),
                       (scan, "scan")):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: model '{name}': ") and err.count("\n") == 1, err
        assert "of infinite argument in " in err


# f = log(x) fails left of 0: the derivative gate meets it on K = [-1, 1] and the
# antiderivative gate at a = 0
LOG_ON = {"name": "lg", "f": "log(x)", "df": "1/x", "eta": {"kind": "difference"},
          "q": [1], "theorems": ["T3.1"]}


@pytest.mark.parametrize("cfg, scan_args, message", [
    (dict(LOG_ON, K=[-1, 1], a=0.5, b=1), ["--K=-1,1"],
     "model 'lg': derivative gate: log of non-positive argument in log(x) "
     "at -0.9411754705882353"),
    (dict(LOG_ON, F="x*log(x)-x", K=[0, 1], a=0, b=1), ["--F", "x*log(x)-x", "--K", "0,1"],
     "model 'lg': antiderivative gate: log of non-positive argument in log(x) at 0.0"),
], ids=["derivative", "antiderivative"])
def test_a_function_failing_in_a_gate_is_a_config_error(tmp_path, capsys, cfg, scan_args,
                                                         message):
    with pytest.raises(CaseConfigError) as info:
        runner.load_case(cfg)
    assert str(info.value) == message
    scan = ["scan", "--name", "lg", "--f", "log(x)", "--df", "1/x", *scan_args,
            "--a-range", "0,0", "--b-range", "1,1", "--steps", "2"]
    for argv in (["check", write_config(tmp_path / "lg.json", cfg)], scan):
        assert main(argv) == 3
        assert capsys.readouterr().err == f"error: {message}\n"


def test_an_expression_too_deep_to_compile_exits_three_without_a_traceback(tmp_path, capsys):
    f, df = "+".join(["x"] * 3000), "+".join(["1"] * 3000)
    cfg = dict(square_config(), name="deep", f=f, df=df, F=None)
    scan = ["scan", "--name", "deep", "--f", f, "--df", df, "--K", "0,1",
            "--a-range", "0,0", "--b-range", "1,1", "--steps", "2"]
    for argv, subject in ((["check", write_config(tmp_path / "deep.json", cfg)], "case"),
                          (scan, "model")):
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            f"error: {subject} 'deep': an expression is nested too deeply\n")


def _child_env():
    # the child imports the same simpvex as this process, even when pytest's
    # pythonpath setting (not the environment) is what put it on sys.path
    package_root = str(pathlib.Path(simpvex.__file__).parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_module_invocation():
    proc = subprocess.run([sys.executable, "-m", "simpvex.cli", "moments", "--p", "1"],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert proc.stdout.startswith("p,closed_form")


# What the console-script wrapper written at install time does: load the
# declared entry point, name the program in argv[0], exit with its result.
_CONSOLE_SCRIPT = """\
import sys
from importlib.metadata import EntryPoint
name, value, *args = sys.argv[1:]
main = EntryPoint(name, value, group="console_scripts").load()
sys.argv = [name, *args]
sys.exit(main())
"""


def test_console_script_entry_point():
    # checks the entry point pyproject.toml declares, not that an installer
    # put a `simpvex` executable on PATH (a plain checkout has none)
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        spec = tomllib.load(fh)["project"]["scripts"]["simpvex"]
    proc = subprocess.run([sys.executable, "-c", _CONSOLE_SCRIPT, "simpvex", spec,
                           "moments", "--p", "1"],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("p,closed_form"), proc.stderr


_NO_SCHEMA_LIBRARY = """\
import json
import sys
sys.modules["jsonschema"] = None  # any import of it raises ImportError
from simpvex import runner
from simpvex.errors import CaseConfigError
cases = runner.load_corpus()
runner.RunReport([runner.run_case(cases[0])], 0.0).to_json()
for cfg in json.load(sys.stdin):
    try:
        runner.load_case(cfg)
    except CaseConfigError as exc:
        print(exc)
"""


def _schema_rejections():
    """One case config per keyword class the case schema uses, each rejected."""
    missing_df = square_config()
    del missing_df["df"]
    return [missing_df] + [dict(square_config(), **change) for change in (
        {"a": "0"}, {"theorems": ["T3.1", 2]}, {"extra": 1}, {"K": [0]}, {"K": [0, 0.5, 1]},
        {"name": ""})]


def test_the_program_never_imports_jsonschema():
    bad = _schema_rejections()
    proc = subprocess.run([sys.executable, "-c", _NO_SCHEMA_LIBRARY], input=json.dumps(bad),
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    want = []
    for cfg in bad:
        with pytest.raises(CaseConfigError) as info:
            runner.load_case(cfg)
        assert str(info.value).startswith("case config invalid at ")
        want.append(str(info.value))
    assert proc.stdout.splitlines() == want


def test_jsonschema_is_a_test_dependency_only():
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []
    assert any(req.startswith("jsonschema") for req in
               project["optional-dependencies"]["test"])


def test_check_schema_invalid_config_exits_three(tmp_path):
    cfg = json.loads(runner._corpus_dir().joinpath("poly_x2.json").read_text(encoding="utf-8"))
    cfg["q"] = ["0.5"]
    path = write_config(tmp_path / "bad_q.json", cfg)
    proc = subprocess.run([sys.executable, "-m", "simpvex.cli", "check", path],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 3
    assert proc.stderr == "error: case config invalid at q/0: '0.5' is not of type 'number'\n"


@pytest.mark.parametrize("flag", ["--K", "--a-range", "--b-range"])
def test_a_pair_flag_takes_a_pair_starting_with_a_minus_sign(flag, capsys):
    pairs = {"--K": "-1,1", "--a-range": "-0.75,-0.5", "--b-range": "-0.25,0"}
    argv = ["--quiet", "scan", "--f", "x^2", "--df", "2*x", "--steps", "3", "--q", "1",
            "--theorems", "T3.1,C4.1"]
    joined = argv + [f"{name}={pair}" for name, pair in pairs.items()]
    assert main(joined) == 0
    want = capsys.readouterr().out
    assert "T3.1,ok," in want
    # the flag under test as two words, "--K -1,1", the others as "--K=-1,1"
    split = argv + [f"{name}={pair}" for name, pair in pairs.items() if name != flag]
    assert main(split + [flag, pairs[flag]]) == 0
    assert capsys.readouterr().out == want


def test_an_option_takes_a_value_starting_with_a_minus_sign(capsys):
    # argparse alone reads "-sin(x)" as an option and exits 3: --df expected one argument
    argv = ["--quiet", "scan", "--f", "cos(x)", "--K", "0,1", "--a-range", "0,0.5",
            "--b-range", "0.5,1"]
    assert main(argv + ["--df=-sin(x)"]) == 0
    want = capsys.readouterr().out
    assert "T4.1,ok," in want
    assert main(argv + ["--df", "-sin(x)"]) == 0
    assert capsys.readouterr().out == want
    # a word starting with "--" is an option, never the value of the one before it
    with pytest.raises(SystemExit) as info:
        main(["scan", "--f", "x^2", "--df", "2*x", "--K", "--a-range", "0,1",
              "--b-range", "0,1"])
    assert info.value.code == 3
    assert "error: argument --K: expected one argument" in capsys.readouterr().err


_CORPUS_FILES = sorted(runner._corpus_dir().glob("*.json"))
_NUMBER = re.compile(rb"-?[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")


@st.composite
def _mutated_corpus_file(draw):
    """A corpus file with bytes flipped, cut short, or one number (which may
    sit inside an expression) made huge or nested deep in brackets."""
    data = bytearray(draw(st.sampled_from(_CORPUS_FILES)).read_bytes())
    kind = draw(st.sampled_from(["flip", "truncate", "huge", "deep"]))
    if kind == "flip":
        for _ in range(draw(st.integers(1, 3))):
            data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
    elif kind == "truncate":
        del data[draw(st.integers(0, len(data) - 1)):]
    else:
        start, end = draw(st.sampled_from([m.span() for m in _NUMBER.finditer(data)]))
        if kind == "huge":
            sign = draw(st.sampled_from([b"", b"-"]))
            digits = draw(st.sampled_from([309, 400, 4300, 4301, 20000]))
            data[start:end] = draw(st.sampled_from([sign + b"9" * digits, sign + b"1e400"]))
        else:
            depth = draw(st.sampled_from([1, 50, 990, 1000, 100_000]))
            data[start:end] = b"[" * depth + data[start:end] + b"]" * depth
    return bytes(data)


@settings(max_examples=120)
@given(_mutated_corpus_file())
def test_check_never_raises_on_a_mutated_corpus_file(data):
    # an exit code from 0 to 3 and no traceback, whose exit 1 would read as a violation
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "case.json")
        with open(path, "wb") as fh:
            fh.write(data)
        code = main(["--quiet", "check", path, "--out", os.path.join(tmp, "report.json")])
    assert code in (0, 1, 2, 3)
