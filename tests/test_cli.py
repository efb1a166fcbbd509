import json
import os
import pathlib
import subprocess
import sys

import jsonschema
import pytest

import simpvex
from simpvex import quadrature, runner
from simpvex.cli import main

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


def test_moments_rejects_bad_order(capsys):
    assert main(["moments", "--p", "0.5"]) == 3
    assert "error" in capsys.readouterr().err


def test_moments_out_file(tmp_path):
    target = tmp_path / "moments.csv"
    assert main(["moments", "--p", "2", "--out", str(target)]) == 0
    assert target.read_text().startswith("p,closed_form")


def test_check_passing_case(tmp_path, capsys):
    cfg = write_config(tmp_path / "case.json", square_config())
    assert main(["check", cfg]) == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    jsonschema.validate(doc, runner.report_schema())
    assert doc["cases"][0]["verdict"] == "pass"
    assert "verdict: pass" in captured.err


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
    target = tmp_path / "report.json"
    assert main(["--quiet", "corpus", "--filter", "poly_x4",
                 "--out", str(target)]) == 0
    assert capsys.readouterr().err == ""
    doc = json.loads(target.read_text())
    jsonschema.validate(doc, runner.report_schema())
    assert doc["counts"]["pass"] == 1


def test_corpus_empty_filter_passes(capsys):
    assert main(["corpus", "--filter", "zzz_nothing"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["counts"]["cases"] == 0


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
    (SCAN_SQUARE + ["--q", "2,2"], "q 2.0 is listed more than once"),
    (SCAN_SQUARE + ["--theorems", "T3.2,T4.1,T3.2"], "theorem 'T3.2' is listed more than once"),
])
def test_bad_numbers_exit_three_without_a_traceback(argv, message, capsys):
    assert main(argv) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


# sin(x*x) and cos(x*x) meet an infinite argument where x*x overflows on K
SIN_WIDE = {"name": "sin_wide", "f": "sin(x*x)", "df": "2*x*cos(x*x)", "K": [0, 1e200]}


def test_trig_of_an_infinite_argument_exits_three_without_a_traceback(tmp_path, capsys):
    cfg = dict(SIN_WIDE, eta={"kind": "difference"}, a=0, b=1, q=[1], theorems=["T3.1"])
    scan = ["scan", "--f", SIN_WIDE["f"], "--df", SIN_WIDE["df"], "--K", "0,1e200",
            "--a-range", "0,0", "--b-range", "1,1", "--steps", "2"]
    for argv in (["check", write_config(tmp_path / "sin_wide.json", cfg)], scan):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: EvalDomainError: ") and err.count("\n") == 1, err
        assert "of infinite argument in " in err


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
import sys
import simpvex
from simpvex import runner
cases = runner.load_corpus()
runner.RunReport([runner.run_case(cases[0])], 0.0).to_json()
print(sorted(m for m in sys.modules
             if m.split(".")[0] in ("jsonschema", "referencing", "rpds", "attrs")))
"""


def test_valid_documents_never_import_jsonschema():
    proc = subprocess.run([sys.executable, "-c", _NO_SCHEMA_LIBRARY],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_check_schema_invalid_config_exits_three(tmp_path):
    cfg = json.loads(runner._corpus_dir().joinpath("poly_x2.json").read_text(encoding="utf-8"))
    cfg["q"] = [0.5]
    path = write_config(tmp_path / "bad_q.json", cfg)
    proc = subprocess.run([sys.executable, "-m", "simpvex.cli", "check", path],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 3
    assert proc.stderr == "error: case config invalid at q/0: 0.5 is less than the minimum of 1\n"
