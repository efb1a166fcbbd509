"""Canonical output bytes, and the recorder of their reference digests.

``digests.json`` holds the sha256 of the corpus report, of each corpus
case and of each scan in the scan pool, and the scan models the program
raises on, as produced by the commit that introduced the benchmark.  Re-record only when a change is meant to
alter outputs:

    PYTHONPATH=src python3 perfbench/record.py
"""

import hashlib
import json
from pathlib import Path

from simpvex import runner

import inputs


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def case_bytes(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def scan_bytes(results) -> str:
    rows = [[r.theorem, r.status, r.ratio, r.at_a, r.at_b, r.at_q, r.cells, r.skipped]
            for r in results]
    return json.dumps(rows)


def main():
    cases = runner.load_corpus()
    results = sorted((runner.run_case(c) for c in cases), key=lambda r: r.name)
    out = {
        "corpus_report": digest(runner.RunReport(results, 0.0).to_json()),
        "corpus_cases": {r.name: digest(case_bytes(r)) for r in results},
        "scan": {},
        "scan_raises": {},
    }
    for cfg in inputs.scan_pool():
        case = runner.load_case(cfg)
        try:
            scans = runner.tightness_scan(case.model, case.eta, case.model.domain,
                                          *inputs.scan_args(cfg))
        except Exception as exc:  # recorded as raising: no digest
            out["scan_raises"][cfg["name"]] = type(exc).__name__
            print(f"{cfg['name']}: tightness_scan raised {type(exc).__name__}: {exc}")
            continue
        out["scan"][cfg["name"]] = digest(scan_bytes(scans))
    path = Path(__file__).with_name("digests.json")
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
