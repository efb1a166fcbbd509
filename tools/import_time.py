"""Time ``import simpvex`` in fresh interpreters, with and without cached bytecode.

Each run starts a new ``python -S`` (no site-packages, so no ``.pth``
file imports anything first) with ``PYTHONPATH`` set to a copy of this
checkout's ``src``, and times the import statement alone inside it.  It
does this twice:

* cached: ``PYTHONPYCACHEPREFIX`` points at a temporary directory that
  one untimed import filled, so every module loads from bytecode;
* uncached: the package is imported from a fresh copy of ``src`` with
  ``PYTHONDONTWRITEBYTECODE`` set, so its modules compile from source
  on every run (the standard library loads from its own bytecode).

Prints the median and quartiles of each, in milliseconds:

    python3 tools/import_time.py [--runs 20]
"""

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
TIMED = ("import time; t = time.perf_counter(); import simpvex; "
         "print(time.perf_counter() - t)")


def import_seconds(env: dict) -> float:
    out = subprocess.run([sys.executable, "-S", "-c", TIMED], env=env, check=True,
                         capture_output=True, text=True).stdout
    return float(out)


def measure(runs: int, cached: bool) -> list:
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONPATH=str(src))
        env.pop("PYTHONPYCACHEPREFIX", None)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        if cached:
            env["PYTHONPYCACHEPREFIX"] = str(Path(tmp) / "pycache")
            import_seconds(env)  # untimed: fills the bytecode cache
        else:
            env["PYTHONDONTWRITEBYTECODE"] = "1"
        return [import_seconds(env) for _ in range(runs)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=20, help="timed imports per mode (>= 2)")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    for label, cached in (("cached", True), ("uncached", False)):
        q1, median, q3 = (1e3 * s for s in statistics.quantiles(measure(args.runs, cached), n=4))
        print(f"{label:9} median {median:7.2f} ms  quartiles {q1:7.2f} .. {q3:7.2f} ms"
              f"  ({args.runs} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
