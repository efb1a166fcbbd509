"""Check the recorded output digests under each given Python interpreter.

Each interpreter runs, in a fresh ``python -I -S -B`` with only this
checkout's ``src`` and ``perfbench`` on its path (no site-packages, no
environment variables, no bytecode written), the bundled corpus and the
seven scan-pool models of ``perfbench/inputs.py`` at ``inputs.scan_args``.
It digests them with ``perfbench/record.py``'s ``digest``, ``case_bytes``
and ``scan_bytes``, as ``record.py`` recorded them.  This tool compares
the digests, and the scan models that raise, with
``perfbench/digests.json``, which it only reads, and prints one line per
interpreter:

    python3 tools/versions.py INTERPRETER...

for example ``python3 tools/versions.py ~/.pyenv/versions/3.1*/bin/python3``.
Exits 0 when every interpreter matches every digest and raiser, else 1.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "perfbench" / "digests.json"
# run inside each interpreter; prints the digests as digests.json holds them
CHILD = """
import json, platform, sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import inputs, record
from simpvex import runner
results = sorted((runner.run_case(c) for c in runner.load_corpus()), key=lambda r: r.name)
out = {{"corpus_report": record.digest(runner.RunReport(results, 0.0).to_json()),
       "corpus_cases": {{r.name: record.digest(record.case_bytes(r)) for r in results}},
       "scan": {{}}, "scan_raises": {{}}}}
for cfg in inputs.scan_pool():
    case = runner.load_case(cfg)
    try:
        scans = runner.tightness_scan(case.model, case.eta, case.model.domain,
                                      *inputs.scan_args(cfg))
    except Exception as exc:
        out["scan_raises"][cfg["name"]] = type(exc).__name__
        continue
    out["scan"][cfg["name"]] = record.digest(record.scan_bytes(scans))
print(json.dumps({{"version": platform.python_version(), "digests": out}}))
""".format(src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"))


def mismatches(got: dict, want: dict) -> list:
    """The keys, as "section/name", whose digest or raiser differs or is missing
    on either side."""
    found = [] if got["corpus_report"] == want["corpus_report"] else ["corpus_report"]
    for section in ("corpus_cases", "scan", "scan_raises"):
        for name in sorted(set(got[section]) | set(want[section])):
            if got[section].get(name) != want[section].get(name):
                found.append(f"{section}/{name}")
    return found


def check(interpreter: str, want: dict) -> tuple:
    """(matched, the line to print) for one interpreter."""
    try:
        run = subprocess.run([interpreter, "-I", "-S", "-B", "-c", CHILD],
                             capture_output=True, text=True, timeout=600)
    except OSError as exc:
        return False, f"{interpreter}: cannot run: {exc}"
    if run.returncode != 0:
        last = (run.stderr.strip().splitlines() or ["no output"])[-1]
        return False, f"{interpreter}: exited {run.returncode}: {last}"
    report = json.loads(run.stdout.splitlines()[-1])
    got = report["digests"]
    bad = mismatches(got, want)
    counts = (f"corpus report and {len(got['corpus_cases'])} cases, "
              f"{len(got['scan'])} scans, {len(got['scan_raises'])} raisers")
    verdict = "all match" if not bad else f"{len(bad)} differ: {', '.join(bad)}"
    return not bad, f"{interpreter} ({report['version']}): {counts}: {verdict}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("interpreters", nargs="+", metavar="INTERPRETER")
    args = parser.parse_args(argv)
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    matched = True
    for interpreter in args.interpreters:
        ok, line = check(interpreter, want)
        print(line, flush=True)
        matched = matched and ok
    return 0 if matched else 1


if __name__ == "__main__":
    sys.exit(main())
