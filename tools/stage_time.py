"""Time the stages of real run_case and tightness_scan calls, in process, best of N runs.

One function, ``timed_run``, times every set: it wraps a table's functions
for the length of one real call, each stage net of those within it.

The bundled corpus and one batch of generated cases (the ``fresh_cases``
generator of ``perfbench/inputs.py``, 28 cases) each run their cases in
order, after one ``_plan.cache_clear()`` per run, so consecutive cases on
one K and eta share a sample plan as in ``simpvex corpus``.  The stages
of each ``run_case``:

* plan:    the sample plan lookups of (K, eta, grid), builds included
           (``invexity._plan``);
* invex:   the invex-set check on that plan (``check_invex_set``);
* df:      the |f'| passes over a plan's points (``SamplePlan.values``),
           the values each hypothesis sweep of the case reads;
* q=...:   each exponent's hypothesis sweep pair (preinvex and
           prequasiinvex of |f'|^q) that ``run_case`` makes;
* defect:  the Simpson defect and the kernel-identity (lemma) integral;
* bounds:  each bound ``run_case`` evaluates (``bounds._bound``);
* rest, run_case: the rest of ``run_case`` (checks, notes, the verdict), the whole;
* to_json: the case's one-case report, serialised, timed on its own.

and how many plans a run built in how many lookups.  For each scan-pool
model of ``perfbench/inputs.py`` (the ``scan`` workload's
``tightness_scan`` over ``scan_args``), the stages of one scan:

* sweeps:  the invex-set check and the hypothesis gates, sweeps, witness
           reads and sample plan included (``check_invex_set``,
           ``runner._holds``, ``hypothesis_pair`` and ``preinvex_excess``);
* gaps:    the integrals of f over each gap between consecutive cell
           ends, whose running sums enclose each cell's mean
           (``quadrature._integrate_unchecked``, outside own integrals);
* own:     the cells' own integrals (``bounds._mean``), for the cells
           with no finite enclosure and those whose ratio may be a
           ranking's best;
* build:   the cell table: each cell's step, Simpson sum and |f'|
           (``scan.cells``);
* enclose: each cell's enclosure from the table of running sums, net
           of its gap integrals (``scan.enclose``);
* rank:    the rankings, block bounds included, net of the own
           integrals (``scan.rank``);
* rest, scan: the rest of the scan (the request checks, the rankings'
           set-up and the results), the whole ``tightness_scan``.

and prints how many gap integrals it made, how many cells integrated on
their own, how many times the theorems' rhs were called, how many
hypothesis sweeps it made (one per q it sweeps; q = 1 implies the others
where it can, and its preinvex witness fails most of the rest), how many
hypothesis gates it decided (one per (mode, q) it reads) and how many
times it read |f'|^q at the q = 1 preinvex witness.  The rhs calls are
counted in one more run with each ``THEOREMS`` row's ``rhs_for``
wrapped, which is left out of the timings.  The wrappers add a little
time to each stage they time, most to ``plan`` and ``df`` (mostly
lookups and memo hits) and to ``gaps`` and ``own`` on the models where
every cell integrates on its own.

Each stage of each case takes the least of ``--runs`` runs, so the
figures leave out one-off costs such as compiling an expression; the
scan total line gives each stage's spread too, the largest less the
least of its per-run totals.  A case that fails at load, or whose run
raises, shows ``-``.  Prints one line per case in milliseconds, a total
line per set, and last one JSON object of the totals and of each corpus
and fresh case's seconds per stage:

    python3 tools/stage_time.py [--runs 5] [--seed 1]

``main(argv, scan_steps)`` runs the scan set on a scan_steps x scan_steps
grid in place of the workload's.
"""

import argparse
import json
import sys
import time
from functools import partial
from operator import add
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import inputs  # noqa: E402  (perfbench/inputs.py: the generated cases)
from simpvex import bounds, invexity, quadrature, runner, scan  # noqa: E402
from simpvex.errors import SimpvexError  # noqa: E402

FRESH_BATCH = 28  # as one fresh_cases pass of perfbench/run.py
FAILURES = (SimpvexError, ArithmeticError, ValueError)
# (owner, attribute, stage): a stage is a name, or a function of the call's arguments
CASE_TABLE = [(invexity, "_plan", "plan"), (invexity.SamplePlan, "values", "df"),
              (runner, "check_invex_set", "invex"),
              (runner, "hypothesis_pair", lambda model, eta, K, q, *rest: f"q={q:g}"),
              (bounds, "simpson_defect", "defect"), (bounds, "lemma_rhs", "defect"),
              (bounds, "_bound", "bounds")]
SCAN_TABLE = [(runner, "check_invex_set", "sweeps"), (runner, "_holds", "sweeps"),
              (runner, "hypothesis_pair", "sweeps"), (runner, "preinvex_excess", "sweeps"),
              (quadrature, "_integrate_unchecked", "gaps"), (bounds, "_mean", "own"),
              (scan, "cells", "build"), (scan, "enclose", "enclose"), (scan, "rank", "rank")]
STAGES = ("plan", "invex", "df", "sweeps", "defect", "bounds", "rest", "run_case", "to_json")
SCAN_STAGES = ("sweeps", "gaps", "own", "build", "enclose", "rank", "rest", "scan")
# per scan-pool model, each a column of its line and a JSON key (spaces as "_")
COUNTS = ("gap integrals", "own cells", "rhs calls", "sweeps", "gates", "witness reads")


def timed_run(table, call, whole: str, opaque=()):
    """Call ``call()`` once with each (owner, attribute, stage) of ``table``
    wrapped for the length of the call.  Return its result, the seconds per
    stage, each net of the wrapped calls within it, with ``rest`` (the call's
    time outside every stage) and ``whole`` (the call's time), and the calls
    per attribute.  A wrapped call made within one whose stage is in
    ``opaque`` is that stage's, neither timed nor counted apart."""
    clock = time.perf_counter
    spent = {stage: 0.0 for _, _, stage in table if isinstance(stage, str)}
    calls = {name: 0 for _, name, _ in table}
    inner = [0.0]  # the time of the timed calls within the running one
    held = [False]  # within an opaque stage's call

    def wrap(stage, name, fn):
        def run(*args, **kwargs):
            if held[0]:
                return fn(*args, **kwargs)
            label = stage if isinstance(stage, str) else stage(*args)
            held[0] = label in opaque
            calls[name] += 1
            outer, inner[0] = inner[0], 0.0
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                spent[label] = spent.get(label, 0.0) + elapsed - inner[0]
                inner[0] = outer + elapsed
                held[0] = False
        return run

    real = [getattr(owner, name) for owner, name, _ in table]
    try:
        for (owner, name, stage), fn in zip(table, real):
            setattr(owner, name, wrap(stage, name, fn))
        start = clock()
        out = call()
        elapsed = clock() - start
    finally:
        for (owner, name, _), fn in zip(table, real):
            setattr(owner, name, fn)
    spent.update(rest=elapsed - sum(spent.values()), **{whole: elapsed})
    return out, spent, calls


def case_set(configs: list, runs: int) -> tuple:
    """Run the loaded configs' cases in order ``runs`` times, each run after one
    ``_plan.cache_clear()``; return each case's least seconds per stage over
    the runs (None for a case that fails at load or whose run raises) and the
    plans one run built and the plan lookups it made."""
    loaded, measured = {}, {}
    for config in configs:
        try:
            loaded[config["name"]] = runner.load_case(config)
            measured[config["name"]] = []
        except FAILURES:
            measured[config["name"]] = None
    for _ in range(runs):
        invexity._plan.cache_clear()
        lookups = 0
        for name, case in loaded.items():
            try:
                result, spent, calls = timed_run(CASE_TABLE, partial(runner.run_case, case),
                                                 "run_case")
            except FAILURES:  # as in every run
                measured[name] = None
                continue
            lookups += calls["_plan"]
            start = time.perf_counter()
            runner.RunReport([result], 0.0).to_json()
            spent["to_json"] = time.perf_counter() - start
            measured[name].append(spent)
        plans = invexity._plan.cache_info().misses
    return {name: spents and least(spents) for name, spents in measured.items()}, plans, lookups


def least(spents: list) -> dict:
    """Each stage's least seconds over runs."""
    return {stage: min(spent[stage] for spent in spents) for stage in spents[0]}


def line(name: str, best: dict) -> str:
    cells = [f"{name:30}"]
    for stage in STAGES:
        if stage == "sweeps":
            sweeps = [f"{k}:{1e3 * v:.2f}" for k, v in best.items() if k.startswith("q=")]
            cells.append(f"{' '.join(sweeps) or '-':36}")
        else:
            cells.append(f"{1e3 * best[stage]:8.2f}" if stage in best else f"{'-':>8}")
    return " ".join(cells)


def totals(rows: list) -> dict:
    """Seconds per stage summed over cases; sweeps split into q = 1 and q > 1."""
    out = {stage: 0.0 for stage in STAGES if stage != "sweeps"}
    out.update({"sweeps_q1": 0.0, "sweeps_q_gt_1": 0.0, "sweep_pairs_q_gt_1": 0})
    for best in rows:
        for stage, seconds in best.items():
            if stage == "q=1":
                out["sweeps_q1"] += seconds
            elif stage.startswith("q="):
                out["sweeps_q_gt_1"] += seconds
                out["sweep_pairs_q_gt_1"] += 1
            else:
                out[stage] += seconds
    return {k: round(v, 6) if isinstance(v, float) else v for k, v in out.items()}


def counted_scan(config: dict, steps: int) -> int:
    """The rhs calls of one tightness_scan run of a scan-pool model.  One
    counting rhs per rhs, so the pairs that share one (T4.1 at every q and
    C4.1) still share a ranking."""
    case = runner.load_case(config)
    calls = [0]
    counting = {}

    def counted(rhs):
        def count(*cell):
            calls[0] += 1
            return rhs(*cell)
        return counting.setdefault(rhs, count)

    rows = dict(bounds.THEOREMS)
    a_range, b_range, q_list, _ = inputs.scan_args(config)
    try:
        for theorem, row in rows.items():
            bounds.THEOREMS[theorem] = row._replace(
                rhs_for=lambda q, rhs_for=row.rhs_for: counted(rhs_for(q)))
        runner.tightness_scan(case.model, case.eta, case.model.domain, a_range, b_range,
                              q_list, steps)
    finally:
        bounds.THEOREMS.update(rows)
    return calls[0]


def scan_set(runs: int, steps: int) -> tuple:
    """Print one line per scan-pool model in milliseconds with its counts of gap
    integrals, of cells integrated on their own, of rhs calls, of sweeps, of
    gates decided and of witness reads, and a total line with each stage's
    spread over runs; return the total seconds per scan stage and each
    model's six counts, as one dict per count."""
    print(f"{'scan (ms)':30} " + " ".join(f"{s:>8}" for s in SCAN_STAGES)
          + "  " + "  ".join(COUNTS))
    total = dict.fromkeys(SCAN_STAGES, 0.0)
    per_run = {stage: [0.0] * runs for stage in SCAN_STAGES}
    counts = {count: {} for count in COUNTS}
    for config in inputs.scan_pool():
        name = config["name"]
        a_range, b_range, q_list, _ = inputs.scan_args(config)
        measured = []
        try:
            case = runner.load_case(config)
            for _ in range(runs):
                invexity._plan.cache_clear()
                measured.append(timed_run(SCAN_TABLE, partial(
                    runner.tightness_scan, case.model, case.eta, case.model.domain, a_range,
                    b_range, q_list, steps), "scan", opaque=("own",)))
        except FAILURES:
            measured = []
        best, shown = {}, ("-",) * len(COUNTS)
        if measured:
            best = least([spent for _, spent, _ in measured])
            for stage in SCAN_STAGES:
                total[stage] += best[stage]
                per_run[stage] = list(map(add, per_run[stage],
                                          [spent[stage] for _, spent, _ in measured]))
            ((gap_count, own_count, sweeps, gates, witnesses),) = {  # the same in every run
                tuple(calls[attr] for attr in ("_integrate_unchecked", "_mean", "hypothesis_pair",
                                               "_holds", "preinvex_excess"))
                for _, _, calls in measured}
            shown = (gap_count, own_count, counted_scan(config, steps), sweeps, gates, witnesses)
            for count, value in zip(COUNTS, shown):
                counts[count][name] = value
        print(f"{name:30} " + " ".join(
            f"{1e3 * best[s]:8.2f}" if s in best else f"{'-':>8}" for s in SCAN_STAGES)
            + "  " + "  ".join(f"{value:>{len(count)}}" for count, value in zip(COUNTS, shown)))
    print(f"scan total (ms, {steps}x{steps} cells, least and spread over {runs} runs): "
          + ", ".join(f"{stage} {1e3 * total[stage]:.1f} "
                      f"(spread {1e3 * (max(per_run[stage]) - min(per_run[stage])):.1f})"
                      for stage in SCAN_STAGES) + "\n")
    return {stage: round(seconds, 6) for stage, seconds in total.items()}, counts


def main(argv=None, scan_steps: int = inputs.SCAN_STEPS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per case (>= 1)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the generated batch")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    sets = {"corpus": inputs.corpus_configs(ROOT),
            "fresh_cases": inputs.fresh_cases(args.seed, 0, FRESH_BATCH)[0]}
    header = " ".join([f"{'case (ms)':30}"] + [f"{s:36}" if s == "sweeps" else f"{s:>8}"
                                                for s in STAGES])
    summary, per_case, plans = {}, {}, {}
    for label, configs in sets.items():
        print(header)
        best, built, lookups = case_set(configs, args.runs)
        for name, stages in best.items():
            print(line(name, stages or {}))
        summary[label] = totals([stages for stages in best.values() if stages])
        per_case[label] = {name: {stage: round(s, 6) for stage, s in stages.items()}
                           for name, stages in best.items() if stages}
        plans[label] = {"built": built, "lookups": lookups}
        print(f"{label} total (ms): " + ", ".join(
            f"{k} {1e3 * v:.1f}" if isinstance(v, float) else f"{k} {v}"
            for k, v in summary[label].items())
            + f"; {built} plans built in {lookups} plan lookups a run\n")
    summary["scan"], counts = scan_set(args.runs, scan_steps)
    print(json.dumps({"runs": args.runs, "seed": args.seed, "totals_s": summary,
                      "plans": plans, **{count.replace(" ", "_"): per_model
                                         for count, per_model in counts.items()},
                      "cases_s": per_case}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
