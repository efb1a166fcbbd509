"""Record the verdicts of generated cases in a ledger that a tier-1 test pins.

For batch 0 (28 configs) of the ``fresh_cases`` generator of
``perfbench/inputs.py`` at each of the seeds 0, 4242 and 7, it loads and
runs every config and records, by case name, the case's verdict, each
hypothesis report's [property, q, verdict] and each bound's [theorem, q,
p, rhs, slack], or the type of the error the program raises on it.  It
writes ``tests/data/fresh_verdicts.json``, or the path given:

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


def ledger() -> dict:
    """Case name -> entry, for every config of the ledger, in draw order."""
    return {cfg["name"]: entry(cfg)
            for seed in SEEDS for cfg in inputs.fresh_cases(seed, BATCH, SIZE)[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=LEDGER, help="where to write the ledger")
    args = parser.parse_args(argv)
    lines = [f" {json.dumps(name)}: {json.dumps(e)}" for name, e in ledger().items()]
    args.out.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")  # a case a line
    return 0


if __name__ == "__main__":
    sys.exit(main())
