import ast
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import simpvex

MODULES = ["simpvex"] + sorted(f"simpvex.{m.name}" for m in pkgutil.iter_modules(simpvex.__path__))
ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_exists_and_star_import_works(name):
    module = importlib.import_module(name)
    public = getattr(module, "__all__", [])
    assert [n for n in public if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(public) <= set(namespace)


def _unused_imports(path):
    """Names a module-level import of ``path`` binds that neither its code nor its
    ``__all__`` reads; ``from __future__`` imports bind nothing, and an import
    whose first line says ``# noqa: F401`` is kept for its side effect."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{path.name}:{line}: {name}" for name, line in bound.items()
                  if name not in used)


def test_no_module_keeps_an_unused_import():
    package = Path(simpvex.__file__).parent
    paths = [path for path in sorted(package.rglob("*.py")) if path.name != "__init__.py"]
    paths += sorted((ROOT / "tools").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert [found for path in paths for found in _unused_imports(path)] == []


def test_import_loads_no_dataclasses_inspect_or_importlib_resources():
    # -S: no site-packages, whose .pth files may import these first
    code = ("import sys, simpvex; print(sorted(m for m in "
            "('dataclasses', 'inspect', 'importlib.resources') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(Path(simpvex.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


def test_import_compiles_nothing_of_its_own():
    # every function simpvex defines at import is ordinary code from its own files
    code = ("import builtins\n"
            "real, names = builtins.compile, []\n"
            "def compile(source, filename, *args, **kwargs):\n"
            "    names.append(str(filename))\n"
            "    return real(source, filename, *args, **kwargs)\n"
            "builtins.compile = compile\n"
            "import simpvex\n"
            "print(sorted(n for n in names if n.startswith('<simpvex')))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(simpvex.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


def test_only_expr_generates_code():
    # expr alone builds code from ast trees; the Simpson loop is ordinary code
    from simpvex import quadrature

    package = Path(simpvex.__file__).parent
    assert [path.name for path in sorted(package.rglob("*.py"))
            if re.search(r"^(import ast|from ast import)", path.read_text(encoding="utf-8"),
                         re.MULTILINE)] == ["expr.py"]
    assert quadrature._integrate_unchecked.__code__.co_filename == quadrature.__file__


def test_import_time_tool_reports_both_modes():
    tool = [sys.executable, str(ROOT / "tools" / "import_time.py")]
    out = subprocess.run(tool + ["--runs", "2"],
                         check=True, capture_output=True, text=True, timeout=120).stdout
    line = r"{} +median +[\d.]+ ms  quartiles +[\d.]+ \.\. +[\d.]+ ms  \(2 runs\)"
    assert re.fullmatch("\n".join(line.format(m) for m in ("cached", "uncached")) + "\n", out)
    # quartiles need two runs, so a single run is refused before any import is timed
    refused = subprocess.run(tool + ["--runs", "1"], capture_output=True, text=True, timeout=60)
    assert refused.returncode == 2 and refused.stdout == ""
    assert refused.stderr.endswith("error: --runs must be at least 2\n")


def test_versions_tool_matches_every_digest_on_the_running_interpreter(monkeypatch):
    tool = [sys.executable, str(ROOT / "tools" / "versions.py"), sys.executable]
    run = subprocess.run(tool, capture_output=True, text=True, timeout=300)
    version = ".".join(map(str, sys.version_info[:3]))
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == (f"{sys.executable} ({version}): corpus report and 15 cases, "
                          f"6 scans, 1 raisers: all match\n")
    # a digest that differs, or one recorded on one side only, is named
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    versions = importlib.import_module("versions")
    want = json.loads(versions.DIGESTS.read_text(encoding="utf-8"))
    got = json.loads(json.dumps(want))
    got["corpus_cases"]["poly_x2"] = "0" * 64
    del got["scan"]["scan_00000_poly"]
    assert versions.mismatches(got, want) == ["corpus_cases/poly_x2", "scan/scan_00000_poly"]


def test_stage_time_tool_reports_every_stage_of_both_sets(monkeypatch, capsys):
    # in process, so the scan set can run on a 9 x 9 grid; sys.path is restored after
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    stage_time = importlib.import_module("stage_time")
    assert stage_time.main(["--runs", "1"], scan_steps=9) == 0
    lines = capsys.readouterr().out.splitlines()
    summary = json.loads(lines[-1])
    assert (summary["runs"], list(summary["totals_s"])) == (1, ["corpus", "fresh_cases", "scan"])
    stages = ["plan", "invex", "df", "defect", "bounds", "rest", "run_case", "to_json",
              "sweeps_q1", "sweeps_q_gt_1", "sweep_pairs_q_gt_1"]
    for label in ("corpus", "fresh_cases"):
        totals = summary["totals_s"][label]
        assert list(totals) == stages
        assert all(totals[stage] > 0 for stage in stages)
        # each case's stages are timed inside its run_case, each net of those
        # within it, and add up, with the rest, to it
        for name, case in summary["cases_s"][label].items():
            parts = [s for s in case if s not in ("run_case", "to_json")]
            assert case["run_case"] == pytest.approx(sum(case[s] for s in parts), abs=1e-5)
            assert case["to_json"] > 0
    # the fresh power draw's f' fails at 0 in its run: it shows no stage
    assert "fresh_1_00003_power" not in summary["cases_s"]["fresh_cases"]
    assert len(summary["cases_s"]["corpus"]) == 15
    assert re.fullmatch(r"fresh_1_00003_power( +-){9}", next(
        line for line in lines if line.startswith("fresh_1_00003_power ")))
    # consecutive corpus cases on one K and eta share a plan, as in simpvex
    # corpus: 8 plans a run, not 15; every fresh case is on its own K
    assert summary["plans"]["corpus"] == {"built": 8, "lookups": 72}
    assert summary["plans"]["fresh_cases"]["built"] == 28
    scan = summary["totals_s"]["scan"]
    assert list(scan) == ["sweeps", "gaps", "own", "build", "enclose", "rank", "rest", "scan"]
    assert all(scan[stage] > 0 for stage in scan)
    # the stages are timed inside one scan run, each net of those within it, and
    # add up to it
    assert scan["scan"] == pytest.approx(sum(scan[stage] for stage in list(scan)[:-1]),
                                         abs=1e-5)
    # one run spreads over nothing; each stage's spread is printed beside its least
    total = next(line for line in lines if line.startswith("scan total "))
    assert re.fullmatch(r"scan total \(ms, 9x9 cells, least and spread over 1 runs\): "
                        + ", ".join(rf"{stage} \d+\.\d \(spread 0\.0\)" for stage in scan), total)
    # the expected raiser stops in its sweeps; every other pool model shows each
    # stage, its gap integrals, how many of its 80 cells with a step integrated
    # on their own (all of them where Simpson is exact, as on the cubic poly model,
    # whose cells' a and ends are the 9 a and the 9 b, which share K's middle:
    # 17 nodes, 16 gaps) and its rhs calls: on the cubic, two corner calls and the
    # 80 cells of the one 9 x 9 block in each of the 19 rankings that call an rhs,
    # but CLASSICAL, whose d4sup is 0 and so whose rhs at the largest corner is 0,
    # walks no cell: 18 x (2 + 80) + 2 = 1,478; its sweeps: q = 1 alone, which
    # implies q = 1.5, 2 and 3; its gates: one per (mode, q), 2 modes at 4 q,
    # for the 23 (theorem, q) pairs with a hypothesis; and no witness read
    assert re.fullmatch(r"scan_00003_power( +-){14}", next(
        line for line in lines if line.startswith("scan_00003_power ")))
    assert re.fullmatch(r"scan_00000_poly( +\d+\.\d\d){8} +16 +80 +1478 +1 +8 +0", next(
        line for line in lines if line.startswith("scan_00000_poly ")))
    owned = summary["own_cells"]
    assert len(owned) == 6 and owned["scan_00000_poly"] == 80
    gaps = summary["gap_integrals"]
    assert list(gaps) == list(owned) and gaps["scan_00000_poly"] == 16
    called = summary["rhs_calls"]
    assert list(called) == list(owned) and called["scan_00000_poly"] == 18 * (2 + 80) + 2
    # one sweep per model: eta_expr's |f'| is prequasiinvex and not preinvex at
    # q = 1, and its preinvex gates at q = 1.5, 2 and 3 fail at the q = 1
    # witness, read once per q, with no sweep
    assert summary["sweeps"] == dict.fromkeys(owned, 1)
    assert summary["gates"] == dict.fromkeys(owned, 8)
    witness_reads = dict.fromkeys(owned, 0)
    witness_reads["scan_00006_eta_expr"] = 3
    assert summary["witness_reads"] == witness_reads
    assert all(0 < owned[name] < 80 for name in ("scan_00001_exp", "scan_00002_log",
                                                 "scan_00004_sin"))
    # run_case sweeps q = 1.5, 2 and 3 besides q = 1 on 14 of the 15 corpus cases
    assert summary["totals_s"]["corpus"]["sweep_pairs_q_gt_1"] == 42
    corpus = next(line for line in lines if line.startswith("poly_x2 "))
    assert re.fullmatch(r"poly_x2 +(\d+\.\d\d +){3}q=1:[\d.]+ q=1\.5:[\d.]+ q=2:[\d.]+ "
                        r"q=3:[\d.]+ +(\d+\.\d\d +){4}\d+\.\d\d", corpus)
