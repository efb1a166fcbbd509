"""Time each stage of ``run_case`` per case, in process, best of N runs.

For every bundled corpus case and one batch of generated cases (the
``fresh_cases`` generator of ``perfbench/inputs.py``, 28 cases), it
times the stages ``run_case`` goes through, each on its own:

* plan:    the sample plan of (K, eta, grid), built from scratch;
* invex:   the invex-set check on that plan;
* df:      the |f'| pass over the plan's points, the values each
           hypothesis sweep of the case reads;
* q=...:   each exponent's hypothesis sweep pair (preinvex and
           prequasiinvex of |f'|^q), on the values the df pass left;
* defect:  the Simpson defect and the kernel-identity (lemma) integral;
* bounds:  every bound the case lists, at each of its exponents;
* to_json: the case's one-case report, serialised.

For each scan-pool model of ``perfbench/inputs.py`` (the ``scan``
workload's ``tightness_scan`` over ``scan_args``), it times these stages
inside one ``tightness_scan`` run, by wrapping the functions that do
them for the length of that run:

* sweeps:  the invex-set check and the hypothesis sweeps, sample plan
           included (``check_invex_set`` and ``hypothesis_pair``);
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
* rest:    the rest of the scan: the request checks, the rankings'
           set-up and the results;
* scan:    the whole ``tightness_scan``.

and prints how many gap integrals it made, how many cells integrated on
their own, how many times the theorems' rhs were called, counted in one
more run with each ``THEOREMS`` row's ``rhs_for`` wrapped, which is left
out of the timings, and how many hypothesis sweeps it made (one per q it
sweeps; q = 1 implies the others where it can).  The wrappers add a
little time to each stage they time, most to ``gaps`` and ``own`` on the
models where every cell integrates on its own.

Each stage of each case takes the least of ``--runs`` runs, so the
figures leave out one-off costs such as compiling an expression; the
scan total line gives each stage's spread too, the largest less the
least of its per-run totals.  Every case pays for its own plan here,
where a corpus run shares one between consecutive cases on the same K
and eta; every exponent and bound is timed, where ``run_case`` skips
those after a failed hypothesis.  A case
that fails at load, or a stage that raises, shows ``-`` for what is
left of that case.  Prints one line per case in milliseconds, a total
line per set, and last one JSON object of the totals:

    python3 tools/stage_time.py [--runs 5] [--seed 1]

``main(argv, scan_steps)`` runs the scan set on a scan_steps x scan_steps
grid in place of the workload's.
"""

import argparse
import json
import sys
import time
from operator import add
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import inputs  # noqa: E402  (perfbench/inputs.py: the generated cases)
from simpvex import bounds, invexity, quadrature, runner, scan  # noqa: E402
from simpvex.errors import SimpvexError  # noqa: E402

FRESH_BATCH = 28  # as one fresh_cases pass of perfbench/run.py
STAGES = ("plan", "invex", "df", "sweeps", "defect", "bounds", "to_json")
SCAN_STAGES = ("sweeps", "gaps", "own", "build", "enclose", "rank", "rest", "scan")


def exponents(case) -> list:
    """The exponents the case's hypothesis sweeps run at, in first-use order."""
    qs = []
    for theorem in case.theorems:
        row = bounds.THEOREMS[theorem]
        if row.mode is not None:
            qs += [q for q in row.exponents(case.q_list) if q not in qs]
    return qs


def stage_runs(case, grid=runner.DEFAULT_GRID):
    """Yield (stage, seconds) for one run of the case's stages, in order."""
    clock = time.perf_counter
    model, eta, K, tol = case.model, case.eta, case.model.domain, case.tolerances
    invexity._plan.cache_clear()
    start = clock()
    plan = invexity._plan(K, eta, grid)
    yield "plan", clock() - start
    start = clock()
    invexity.check_invex_set(K, eta, grid, tol.invexity)
    yield "invex", clock() - start
    start = clock()
    plan.values(model.df_fn)
    yield "df", clock() - start
    for q in exponents(case):
        start = clock()
        invexity.hypothesis_pair(model, eta, K, q, grid, tol.invexity)
        yield f"q={q:g}", clock() - start
    step = eta(case.b, case.a)
    start = clock()
    defect = bounds.simpson_defect(model, case.a, step, tol.oracle)
    bounds.lemma_rhs(model, case.a, step, tol.oracle)
    yield "defect", clock() - start
    start = clock()
    for theorem in case.theorems:
        for q in bounds.THEOREMS[theorem].exponents(case.q_list):
            try:
                bounds._bound(theorem, model, case.a, case.b, step, q, defect)
            except SimpvexError:  # a precondition unmet, or f' failing at a or b
                pass
    yield "bounds", clock() - start
    report = runner.RunReport([runner.run_case(case)], 0.0)
    start = clock()
    report.to_json()
    yield "to_json", clock() - start


def scan_runs(case, config: dict, steps: int, counts: list):
    """Yield (stage, seconds) for one tightness_scan run of a scan-pool model, each
    stage timed inside that run, net of the stages timed within it; append the
    counts of its gap integrals, of the cells it integrated on their own and of
    its hypothesis sweeps to ``counts``."""
    clock = time.perf_counter
    spent = dict.fromkeys(SCAN_STAGES[:-2], 0.0)
    in_own = [False]
    inner = [0.0]  # the time of the timed calls within the running one

    def timed(stage, name, fn):
        def run(*args):
            if in_own[0]:  # an integral inside an own integral: timed as own
                return fn(*args)
            in_own[0] = stage == "own"
            calls[name] += 1
            outer, inner[0] = inner[0], 0.0
            start = clock()
            try:
                return fn(*args)
            finally:
                elapsed = clock() - start
                spent[stage] += elapsed - inner[0]
                inner[0] = outer + elapsed
                in_own[0] = False
        return run

    wrapped = [(runner, "check_invex_set", "sweeps"), (runner, "hypothesis_pair", "sweeps"),
               (quadrature, "_integrate_unchecked", "gaps"), (bounds, "_mean", "own"),
               (scan, "cells", "build"), (scan, "enclose", "enclose"), (scan, "rank", "rank")]
    real = [getattr(module, name) for module, name, _ in wrapped]
    calls = {name: 0 for _, name, _ in wrapped}
    a_range, b_range, q_list, _ = inputs.scan_args(config)
    invexity._plan.cache_clear()
    try:
        for (module, name, stage), fn in zip(wrapped, real):
            setattr(module, name, timed(stage, name, fn))
        start = clock()
        runner.tightness_scan(case.model, case.eta, case.model.domain, a_range, b_range,
                              q_list, steps)
        whole = clock() - start
    finally:
        for (module, name, _), fn in zip(wrapped, real):
            setattr(module, name, fn)
    counts.append((calls["_integrate_unchecked"], calls["_mean"], calls["hypothesis_pair"]))
    yield from spent.items()
    yield "rest", whole - sum(spent.values())
    yield "scan", whole


def rhs_calls(config: dict, steps: int) -> int:
    """The rhs calls of one tightness_scan run of a scan-pool model: one counting
    rhs per rhs, so the pairs that share one (T4.1 at every q and C4.1) still
    share a ranking."""
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


def run_times(config: dict, runs: int, stages=stage_runs) -> dict:
    """Seconds per stage in each of ``runs`` runs of ``stages(case)``; the stages
    reached before a failure."""
    times = {}
    try:
        case = runner.load_case(config)
        for _ in range(runs):
            for stage, seconds in stages(case):
                times.setdefault(stage, []).append(seconds)
    except (SimpvexError, ArithmeticError, ValueError):
        pass
    return times


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


def scan_set(runs: int, steps: int) -> tuple:
    """Print one line per scan-pool model in milliseconds with its counts of gap
    integrals, of cells integrated on their own, of rhs calls and of sweeps, and
    a total line with each stage's spread over runs; return the total seconds
    per scan stage and each model's four counts."""
    print(f"{'scan (ms)':30} " + " ".join(f"{s:>8}" for s in SCAN_STAGES)
          + "  gap integrals  own cells  rhs calls  sweeps")
    total = dict.fromkeys(SCAN_STAGES, 0.0)
    per_run = {stage: [0.0] * runs for stage in SCAN_STAGES}
    gaps, owned, called, swept = {}, {}, {}, {}
    for config in inputs.scan_pool():
        name = config["name"]
        counts = []
        times = run_times(config, runs, lambda case: scan_runs(case, config, steps, counts))
        best = {stage: min(seconds) for stage, seconds in times.items()}
        shown = "-", "-", "-", "-"
        if len(times.get("scan", ())) == runs:  # every run reached the end
            for stage in SCAN_STAGES:
                total[stage] += best[stage]
                per_run[stage] = list(map(add, per_run[stage], times[stage]))
            ((gap_count, own_count, sweeps),) = set(counts)  # the same in every run
            shown = gap_count, own_count, rhs_calls(config, steps), sweeps
            gaps[name], owned[name], called[name], swept[name] = shown
        print(f"{name:30} " + " ".join(
            f"{1e3 * best[s]:8.2f}" if s in best else f"{'-':>8}" for s in SCAN_STAGES)
            + f"  {shown[0]:>13}  {shown[1]:>9}  {shown[2]:>9}  {shown[3]:>6}")
    print(f"scan total (ms, {steps}x{steps} cells, least and spread over {runs} runs): "
          + ", ".join(f"{stage} {1e3 * total[stage]:.1f} "
                      f"(spread {1e3 * (max(per_run[stage]) - min(per_run[stage])):.1f})"
                      for stage in SCAN_STAGES) + "\n")
    return ({stage: round(seconds, 6) for stage, seconds in total.items()}, gaps, owned,
            called, swept)


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
    summary = {}
    for label, configs in sets.items():
        print(header)
        rows = []
        for config in configs:
            rows.append({stage: min(seconds)
                         for stage, seconds in run_times(config, args.runs).items()})
            print(line(config["name"], rows[-1]))
        summary[label] = totals(rows)
        print(f"{label} total (ms): " + ", ".join(
            f"{k} {1e3 * v:.1f}" if isinstance(v, float) else f"{k} {v}"
            for k, v in summary[label].items()) + "\n")
    summary["scan"], gaps, owned, called, swept = scan_set(args.runs, scan_steps)
    print(json.dumps({"runs": args.runs, "seed": args.seed, "totals_s": summary,
                      "gap_integrals": gaps, "own_cells": owned, "rhs_calls": called,
                      "sweeps": swept}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
