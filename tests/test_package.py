import importlib
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
