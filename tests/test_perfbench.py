"""The benchmark's self-test and the README's library example, run in child processes.

The self-test runs plain and traced slices of every workload, so a digest
or expected-raiser mismatch, or a name that perfbench/spans.py wraps and
src/ no longer has, fails here before it fails a benchmark run.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(args, **kwargs):
    # start from os.environ, so settings such as PYTHONDONTWRITEBYTECODE reach the child
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=600, **kwargs)


def test_benchmark_self_test_passes():
    proc = _run(["perfbench/run.py", "--self-test"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "self-test passed"


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    proc = _run(["-"], input=code)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) == pytest.approx(0.2576, abs=1e-4)
