"""Record the verdicts and scans of generated cases in a ledger that tier-1 tests pin.

For batch 0 (28 configs) of the ``fresh_cases`` generator of
``perfbench/inputs.py`` at each of the seeds 0, 4242 and 7, it loads and
runs every config and records, by case name, the case's verdict, each
hypothesis report's [property, q, verdict] and each bound's [theorem, q,
p, rhs, slack], or the type of the error the program raises on it.  For
those configs and the 7 models of ``inputs.scan_pool()``, it records
under "scan" the repr of the config's ``tightness_scan`` on a 9 x 9 grid,
with its ranges and q from ``inputs.scan_args``, or the type and message
of the error it raises.  It writes ``tests/data/fresh_verdicts.json``,
or the path given:

    python3 tools/fresh_ledger.py [--out PATH]

``tests/test_runner.py`` requires every entry to match, so a change that
moves a fresh verdict re-records the ledger with this tool and declares
the move.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import inputs  # noqa: E402  (perfbench/inputs.py: the generated cases)
from simpvex import runner  # noqa: E402

SEEDS = (0, 4242, 7)
BATCH, SIZE = 0, 28  # as one fresh_cases pass of perfbench/run.py
SCAN_STEPS = 9  # the scan workload's 81 x 81 grid would take minutes per config
LEDGER = ROOT / "tests" / "data" / "fresh_verdicts.json"


def entry(cfg: dict) -> dict:
    """The ledger entry of one config, as JSON reads it back."""
    try:
        result = runner.run_case(runner.load_case(cfg))
    except Exception as exc:  # recorded, as the benchmark records its expected raisers
        return {"raises": type(exc).__name__}
    return {"verdict": result.verdict,
            "hypotheses": [[h.property, h.exponent_q, h.verdict] for h in result.hypotheses],
            "bounds": [[b.theorem, b.q, b.p, b.rhs, b.slack] for b in result.bounds]}


def scan(cfg: dict) -> str:
    """The repr of the config's scan, as the scan workload runs it but at SCAN_STEPS."""
    a_range, b_range, q_list, _ = inputs.scan_args(cfg)
    try:
        case = runner.load_case(cfg)
        return repr(runner.tightness_scan(case.model, case.eta, case.model.domain,
                                          a_range, b_range, q_list, SCAN_STEPS))
    except Exception as exc:  # recorded with its message: a scan's raise is an outcome
        return f"{type(exc).__name__}: {exc}"


def ledger() -> dict:
    """Case name -> entry, for every config of the ledger, in draw order: the
    fresh configs' entries with their "scan", then the scan pool's scans."""
    out = {cfg["name"]: {**entry(cfg), "scan": scan(cfg)}
           for seed in SEEDS for cfg in inputs.fresh_cases(seed, BATCH, SIZE)[0]}
    out.update((cfg["name"], {"scan": scan(cfg)}) for cfg in inputs.scan_pool())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=LEDGER, help="where to write the ledger")
    args = parser.parse_args(argv)
    lines = [f" {json.dumps(name)}: {json.dumps(e)}" for name, e in ledger().items()]
    args.out.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")  # a case a line
    return 0


if __name__ == "__main__":
    sys.exit(main())
