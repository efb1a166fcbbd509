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


def test_import_loads_no_dataclasses_inspect_or_importlib_resources():
    # -S: no site-packages, whose .pth files may import these first
    code = ("import sys, simpvex; print(sorted(m for m in "
            "('dataclasses', 'inspect', 'importlib.resources') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(Path(simpvex.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


def test_import_time_tool_reports_both_modes():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "import_time.py"), "--runs", "2"],
                         check=True, capture_output=True, text=True, timeout=120).stdout
    line = r"{} +median +[\d.]+ ms  quartiles +[\d.]+ \.\. +[\d.]+ ms  \(2 runs\)"
    assert re.fullmatch("\n".join(line.format(m) for m in ("cached", "uncached")) + "\n", out)


def test_stage_time_tool_reports_every_stage_of_both_sets():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "stage_time.py"), "--runs", "1"],
                         check=True, capture_output=True, text=True, timeout=120).stdout
    lines = out.splitlines()
    summary = json.loads(lines[-1])
    assert (summary["runs"], sorted(summary["totals_s"])) == (1, ["corpus", "fresh_cases"])
    stages = ["plan", "invex", "df", "defect", "bounds", "to_json", "sweeps_q1",
              "sweeps_q_gt_1", "sweep_pairs_q_gt_1"]
    for totals in summary["totals_s"].values():
        assert list(totals) == stages
        assert all(totals[stage] > 0 for stage in stages)
    # 14 of the 15 corpus cases sweep q = 1.5, 2 and 3 besides q = 1
    assert summary["totals_s"]["corpus"]["sweep_pairs_q_gt_1"] == 42
    corpus = next(line for line in lines if line.startswith("poly_x2 "))
    assert re.fullmatch(r"poly_x2 +(\d+\.\d\d +){3}q=1:[\d.]+ q=1\.5:[\d.]+ q=2:[\d.]+ "
                        r"q=3:[\d.]+ +(\d+\.\d\d +){2}\d+\.\d\d", corpus)
