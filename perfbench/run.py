"""simpvex benchmark: end-to-end metrics per workload, per-layer metrics traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

Workloads (see inputs.py for the generators):

  corpus       the 15 bundled cases: load_corpus, run_case per case, then
               RunReport.to_json, as ``simpvex corpus`` runs them.  Every
               case has up to 4 exponents on the same sample grid and 11 of
               15 share K = [0, 1] with the difference map, so work shared
               across q and across cases is high.  The seed is unused.
  fresh_cases  distinct generated cases, each loaded once and run once:
               little shared work, and load time (schema, derivative and
               F gates) is a large share.  Draws that crash the program
               are kept and counted as failures.
  scan         tightness_scan with q in {1, 1.5, 2, 3} and every theorem
               on an 81 x 81 (a, b) grid, over a fixed pool of generated
               models without F (one per family, in an order the seed
               rotates): quadrature and bound evaluation dominate.

Each pass of a workload runs in a fresh single-threaded worker process
(worker.py), one at a time, so every pass pays the real set-up and starts
with empty program caches.  A run does a fixed number of rounds of
passes, so every run of a workload does the same work: a round is one
pass for corpus and fresh_cases and one pass per pool model for scan,
and the count is --seconds over the time a round takes on the baseline
machine (ROUND_S; a traced run does every pass twice, so half as many
rounds).  If a pass outlives DEADLINE_S, it is stopped and the run
reports the passes that completed.  Outputs are checked against
recorded digests (corpus, scan) or by rerunning and by the paper's
invariants (fresh_cases), and the program must raise on exactly the
inputs expected to raise (see inputs.py); an exception or a mismatch
counts as a failed operation and never aborts the run.

Every workload reports every end-to-end metric.  An operation is one
run_case (corpus, fresh_cases) or one tightness_scan (scan): cases_per_s
and case_ms_p50/p90 count and time those, with the report's to_json in
the rate; scan_cells_per_s counts TightnessResult.cells on scan and the
bound values a case evaluates elsewhere, so on every workload the two
rates differ by an almost fixed factor and move together.  success_rate
is 1 - fail_rate, since a metric must never read 0; the exact counts are
the result's attempted and failed.

Times in the end-to-end metrics are wall-clock times scaled to a fixed
reference speed.  The machine's speed drifts by a quarter and more within
a second, so a plain worker samples it all through the pass with a small
probe of its own and scales each timed interval by the speed the probe
saw around it (worker.py).  Per-layer times are unscaled.

With ``--trace 1`` each pass runs twice, once traced (spans.py) and once
not, alternating which goes first; per-layer metrics come from the traced
process and trace.overhead compares the two.  Per-layer values are per
input (a case, or a scan), so traced and plain runs compare.

The last line of stdout is one JSON object: correct, attempted, failed
and the metrics.  The lines before it print every metric with its unit,
the sample counts, the failing inputs and how much work the inputs share.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = str(HERE / "digests.json")
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

WORKLOADS = ("corpus", "fresh_cases", "scan")
FRESH_BATCH = 28          # cases per fresh_cases pass: 4 of each family
# seconds one round takes on the baseline machine, checks included
ROUND_S = {"corpus": 2.8, "fresh_cases": 5.2, "scan": 13.0}
DEADLINE_S = 165.0        # no pass runs past this, whatever --seconds says

END_TO_END = {
    "setup_s": "s",
    "cases_per_s": "1/s",
    "case_ms_p50": "ms",
    "case_ms_p90": "ms",
    "scan_cells_per_s": "1/s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}
PER_LAYER = {
    "expr.df_evals": "count/op",
    "expr.f_evals": "count/op",
    "expr.eta_evals": "count/op",
    "expr.parse_s": "s/op",
    "quadrature.s": "s/op",
    "quadrature.calls": "count/op",
    "quadrature.evals": "count/op",
    "kernel.s": "s/op",
    "kernel.calls": "count/op",
    "invexity.invex_set_s": "s/op",
    "invexity.hypothesis_s": "s/op",
    "invexity.sweeps": "count/op",
    "invexity.samples": "count/op",
    "invexity.df_evals_per_sample": "ratio",
    "bounds.validate_s": "s/op",
    "bounds.defect_s": "s/op",
    "bounds.lemma_s": "s/op",
    "bounds.bound_s": "s/op",
    "bounds.bound_calls": "count/op",
    "runner.schema_s": "s/op",
    "runner.load_s": "s/op",
    "runner.case_self_s": "s/op",
    "runner.scan_self_s": "s/op",
    "runner.to_json_s": "s/op",
    "runner.report_bytes": "B/op",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}
COVERAGE_GATE = 0.95


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


class OutOfTime(Exception):
    """A pass did not end by the run's deadline."""


def pass_specs(workload: str, seed: int):
    """Endless rounds of worker specs; a round is the unit a run repeats."""
    if workload == "corpus":
        while True:
            yield [{"workload": "corpus", "digests": DIGESTS}]
    elif workload == "fresh_cases":
        batch = 0
        while True:
            configs, raising = inputs.fresh_cases(seed, batch, FRESH_BATCH)
            yield [{"workload": "fresh_cases", "digests": DIGESTS, "configs": configs,
                    "expect_raise": raising}]
            batch += 1
    elif workload == "scan":
        pool = inputs.scan_pool()
        order = [pool[(seed + i) % len(pool)] for i in range(len(pool))]
        while True:
            yield [{"workload": "scan", "digests": DIGESTS, "configs": [cfg],
                    "scan_args": inputs.scan_args(cfg)} for cfg in order]


def run_worker(spec: dict, trace: bool, deadline: float) -> dict:
    spec = dict(spec, trace=trace)
    if trace:
        out_dir = ROOT / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        spec["span_file"] = str(out_dir / f"{spec['workload']}.spans")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise OutOfTime("out of time before a pass could start")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(spec),
                              capture_output=True, text=True, env=env, cwd=str(ROOT),
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise OutOfTime(f"a {spec['workload']} pass did not end by the deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def rounds_for(workload: str, seconds: float, trace: bool) -> int:
    """How many rounds make a run of about ``seconds`` on the baseline machine."""
    return max(1, round(seconds / (ROUND_S[workload] * (2 if trace else 1))))


def measure(rounds, count: int, trace: bool):
    """Run ``count`` rounds of passes; a traced run does each pass twice,
    once traced and once not, alternating which goes first.

    Returns (plain worker outputs, traced worker outputs, input configs,
    a note if the deadline stopped the run).
    """
    deadline = time.monotonic() + DEADLINE_S
    plain, traced, configs = [], [], []
    try:
        for n, specs in zip(range(count), rounds):
            for k, spec in enumerate(specs):
                if not trace:
                    plain.append(run_worker(spec, False, deadline))
                elif (n + k) % 2 == 0:
                    traced.append(run_worker(spec, True, deadline))
                    plain.append(run_worker(spec, False, deadline))
                else:
                    plain.append(run_worker(spec, False, deadline))
                    traced.append(run_worker(spec, True, deadline))
                configs.extend(spec.get("configs", []))
    except OutOfTime as exc:
        if trace:  # keep traced and plain passes paired
            del plain[len(traced):], traced[len(plain):]
        return plain, traced, configs, f"stopped: {exc}"
    return plain, traced, configs, None


def percentile(values, pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(outs) -> dict:
    """End-to-end metrics over the plain passes of a run, from the times
    at the reference speed.  Rates and latencies pool every completed
    operation of the run."""
    op_ms = [ms for o in outs for ms in o["op_ref_ms"]]
    work_s = sum(o["work_ref_s"] for o in outs)
    if not op_ms:
        raise BenchError("no operation completed; nothing to measure")
    attempted = sum(o["attempted"] for o in outs)
    failed = sum(o["failed"] for o in outs)
    return {
        "setup_s": statistics.median(o["setup_ref_s"] for o in outs),
        "cases_per_s": sum(o["done"] for o in outs) / work_s,
        "case_ms_p50": percentile(op_ms, 50),
        "case_ms_p90": percentile(op_ms, 90),
        "scan_cells_per_s": sum(o["cells"] for o in outs) / work_s,
        "peak_rss_mb": statistics.median(o["peak_rss_mb"] for o in outs),
        "success_rate": 1.0 - failed / attempted,
    }


def per_layer(traced, plain) -> dict:
    ops = sum(o["inputs"] for o in traced)
    summaries = [o["trace"] for o in traced]

    def total(section, key):
        return sum(s[section][key] for s in summaries)

    out = {}
    for name in PER_LAYER:
        if name in summaries[0]["self_s"]:
            out[name] = total("self_s", name) / ops
        elif name in summaries[0]["calls"]:
            out[name] = total("calls", name) / ops
        elif name in summaries[0]["counts"]:
            out[name] = total("counts", name) / ops
    hyp_samples = total("counts", "invexity.hypothesis_samples")
    out["invexity.df_evals_per_sample"] = (
        total("counts", "invexity.hypothesis_df_evals") / hyp_samples if hyp_samples else 0.0)
    out["runner.report_bytes"] = sum(o["report_bytes"] for o in traced) / ops
    out["trace.coverage"] = (sum(s["covered_s"] for s in summaries)
                             / sum(s["window_s"] for s in summaries))
    out["trace.overhead"] = (sum(o["window_s"] for o in traced)
                             / sum(o["window_s"] for o in plain))
    return {name: out[name] for name in PER_LAYER}


def report(workload, plain, traced, configs, trace, note=None) -> dict:
    """Print the human-readable lines and return the result object."""
    outs = plain + traced
    attempted = sum(o["attempted"] for o in outs)
    failed = sum(o["failed"] for o in outs)
    checks = sum(o["checks"] for o in outs)
    mismatches = sum(o["mismatches"] for o in outs)
    if trace:
        if not traced:
            raise BenchError("no traced pass completed")
        values, units = per_layer(traced, plain), PER_LAYER
    else:
        values, units = end_to_end(plain), END_TO_END
    samples = sum(len(o["op_ms"]) for o in plain)
    print(f"workload {workload}: {len(plain)} plain and {len(traced)} traced passes, "
          f"{samples} timed operations in plain passes")
    if note:
        print(f"  {note}")
    for name, value in values.items():
        print(f"  {name:30s} {value:.6g} {units[name]}")
    if not trace:
        speeds = [o["work_ref_s"] / o["work_s"] for o in plain if o["work_s"]]
        print(f"  speed factor median {statistics.median(speeds):.4g}, "
              f"range {min(speeds):.4g} to {max(speeds):.4g} over passes, "
              f"{sum(o['probes'] for o in plain)} probes")
    print(f"  fail_rate {failed}/{attempted} = {failed / attempted:.4g}; "
          f"{checks} output checks, {mismatches} mismatches")
    failing = {}
    for o in outs:
        for name, reason in o["failures"]:
            failing.setdefault(name, reason)
    for name, reason in sorted(failing.items()):
        print(f"  failed input {name}: {reason}")
    if workload == "corpus":
        configs = inputs.corpus_configs(ROOT)
    shared = inputs.sharing(list({c["name"]: c for c in configs}.values()))
    print("  inputs share: " + ", ".join(f"{k}={v:.4g}" for k, v in shared.items()))
    if trace and values["trace.coverage"] < COVERAGE_GATE:
        print(f"  trace.coverage {values['trace.coverage']:.4f} is below {COVERAGE_GATE}")
    return {
        "correct": mismatches == 0 and checks > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def self_test() -> int:
    """Run a small slice of each workload, traced and not, and assert that
    every metric is emitted with a unit and that the checks ran."""
    slices = {
        "corpus": [[{"workload": "corpus", "digests": DIGESTS,
                     "names": ["poly_x2", "sin_midpoint", "abs_branch_neg"]}]],
    }
    configs, raising = inputs.fresh_cases(0, 0, len(inputs.FAMILIES))
    slices["fresh_cases"] = [[{"workload": "fresh_cases", "digests": DIGESTS,
                               "configs": configs, "expect_raise": raising}]]
    pool = inputs.scan_pool()
    cheap = [cfg for cfg in pool if cfg["name"].endswith(("abs", "eta_expr"))]
    slices["scan"] = [[{"workload": "scan", "digests": DIGESTS,
                        "configs": [cfg], "scan_args": inputs.scan_args(cfg)} for cfg in cheap]]
    problems = []
    declared = ROOT / "BENCHMARK.json"
    if declared.is_file():
        spec = json.loads(declared.read_text(encoding="utf-8"))
        for key, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            if {m["name"]: m["unit"] for m in spec[key]} != ours:
                problems.append(f"BENCHMARK.json {key} differs from the metrics run.py emits")
    for workload, rounds in slices.items():
        for trace in (False, True):
            plain, traced, configs, note = measure(iter(rounds), 1, trace)
            result = report(workload, plain, traced, configs, trace, note)
            names = PER_LAYER if trace else END_TO_END
            for name, unit in names.items():
                got = result["metrics"].get(name)
                if got is None or got.get("unit") != unit:
                    problems.append(f"{workload}: metric {name} missing or without unit")
            if set(result["metrics"]) != set(names):
                problems.append(f"{workload}: unexpected metrics emitted")
            if not result["correct"]:
                problems.append(f"{workload}: output checks did not run or failed")
            if trace and result["metrics"]["trace.coverage"]["value"] < COVERAGE_GATE:
                problems.append(f"{workload}: trace.coverage below {COVERAGE_GATE}")
    for problem in problems:
        print("SELF-TEST FAILED: " + problem)
    if not problems:
        print("self-test passed")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run a small slice of every workload and check the output")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "simpvex" / "__init__.py").is_file():
        print(f"no simpvex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        count = rounds_for(args.workload, args.seconds, bool(args.trace))
        plain, traced, configs, note = measure(pass_specs(args.workload, args.seed), count,
                                               bool(args.trace))
        result = report(args.workload, plain, traced, configs, bool(args.trace), note)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
