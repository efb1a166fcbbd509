"""One workload process: set up, do one pass of work, check it, report.

Reads a JSON spec on stdin and prints one JSON line on stdout.  The
coordinator (run.py) starts one of these per pass, so every pass pays
the program's real set-up and starts with the program's caches empty,
as a user's ``simpvex`` process does.  The clock starts before the
program is imported; set-up ends when every input is loaded and
validated.  Checks run after the timed work and outside any span.
"""

import time

T0 = time.perf_counter()

import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

SPEC = json.loads(sys.stdin.read())

# The speed of the machine drifts by a quarter and more within a second,
# whatever runs on it.  In a plain pass a timer interrupts the work every
# PROBE_INTERVAL_S to run a small fixed probe of the benchmark's own
# (with the garbage collector off, so the program's heap does not slow
# it).  Each timed interval is also reported at the reference speed: its
# time multiplied by the mean of PROBE_REF_S over the times of the probes
# run from SPEED_WINDOW_S before it to SPEED_WINDOW_S after it.  The
# constant is the probe's typical time on the baseline machine.  The
# probes' own time is taken out of every time the pass reports.
PROBE_INTERVAL_S = 0.05
PROBE_REF_S = 0.0008
SPEED_WINDOW_S = 0.25
PROBES = []               # (clock() when the probe ran, its speed)
PROBE_S = 0.0


def _square_plus_one(x):
    return x * x + 1.0


def _probe(signum, frame):
    """Float arithmetic through Python calls, dict stores and exact
    rational arithmetic, a mix like the program's own work."""
    global PROBE_S
    entered = time.perf_counter()
    collecting = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    acc = 0.0
    seen = {}
    for i in range(1600):
        acc += _square_plus_one(i * 1e-6)
        seen[i & 63] = (acc, i)
    for i in range(1, 240):
        acc += float(Fraction(1 + 2 ** (i % 9 + 2), 6 ** (i % 9 + 2) * (i % 9 + 2)))
    PROBES.append((start - PROBE_S, PROBE_REF_S / (time.perf_counter() - start)))
    if collecting:
        gc.enable()
    PROBE_S += time.perf_counter() - entered


def clock() -> float:
    """Wall-clock time less the probes' time."""
    return time.perf_counter() - PROBE_S


def at_ref_speed(start: float, end: float) -> float:
    """The time from ``start`` to ``end`` at the reference speed; as
    measured if no probe ran near it (a traced pass runs none)."""
    speeds = [sp for at, sp in PROBES
              if start - SPEED_WINDOW_S <= at <= end + SPEED_WINDOW_S]
    return (end - start) * (sum(speeds) / len(speeds) if speeds else 1.0)


if not SPEC["trace"]:
    signal.signal(signal.SIGALRM, _probe)
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

from record import case_bytes, digest, scan_bytes  # noqa: E402

if SPEC["trace"]:
    import spans  # noqa: E402  (imports simpvex)
from simpvex import runner  # noqa: E402

# a bound pair that the paper's statements make equal, with the relative
# tolerance for float rounding between the two formulas
REL_TOL = 1e-12


class Pass:
    """Timings, counts and check outcomes of one pass."""

    def __init__(self):
        self.inputs = 0          # cases or scans given to this pass
        self.ops = []            # (start, end) of each completed case or scan
        self.reports = []        # (start, end) of each to_json
        self.done = 0            # cases or scans completed
        self.cells = 0
        self.attempted = 0
        self.failures = []       # [input name, reason]
        self.mismatches = 0
        self.checks = 0
        self.report_bytes = 0
        self.expect_raise = set()  # inputs the program is expected to raise on
        self.raised = set()

    def fail(self, name, reason, mismatch=False):
        self.failures.append([name, reason])
        self.mismatches += mismatch

    def check(self, ok, name, reason):
        self.checks += 1
        if not ok:
            self.fail(name, reason, mismatch=True)

    def crash(self, name, what, exc):
        """The program raised on an input: a failed operation, and an
        output mismatch unless the input is expected to raise."""
        self.raised.add(name)
        reason = f"{what} raised {type(exc).__name__}: {exc}"
        self.fail(name, reason)
        self.check(name in self.expect_raise, name, "unexpected crash: " + reason)

    def check_raised(self, names):
        """Every input of ``names`` expected to raise did raise."""
        for name in sorted(self.expect_raise & set(names)):
            self.check(name in self.raised, name, "expected to raise, but completed")


def timed(fn, *args):
    """Call fn(*args), returning its result and its (start, end)."""
    start = clock()
    out = fn(*args)
    return out, (start, clock())


def run_cases(p: Pass, cases, texts=None):
    """run_case on every loaded case, then the report's to_json.

    The report text is appended to ``texts`` when one is given."""
    results = []
    for case in cases:
        p.attempted += 1
        try:
            result, span = timed(runner.run_case, case)
        except Exception as exc:  # a crash is this input's outcome, not the run's
            p.crash(case.name, "run_case", exc)
            continue
        p.ops.append(span)
        p.done += 1
        p.cells += len(result.bounds)
        results.append(result)
    results.sort(key=lambda r: r.name)
    p.attempted += 1
    try:
        text, span = timed(runner.RunReport(results, 0.0).to_json)
    except Exception as exc:
        p.crash("<report>", "to_json", exc)
        return results
    p.reports.append(span)
    p.report_bytes += len(text.encode("utf-8"))
    if texts is not None:
        texts.append(text)
    return results


def load_configs(p: Pass, configs):
    cases = []
    for cfg in configs:
        try:
            cases.append(runner.load_case(cfg))
        except Exception as exc:
            p.attempted += 1
            p.crash(cfg["name"], "load_case", exc)
    return cases


def check_invariants(p: Pass, case, result):
    """Invariants the paper implies, on one case result."""
    if result.defect is not None and result.lemma is not None:
        budget = (case.tolerances.identity + result.defect.quadrature_error
                  + result.lemma.error_estimate)
        p.check(result.identity_residual <= budget, case.name,
                f"identity residual {result.identity_residual!r} exceeds {budget!r}")
    at_one = {bv.theorem: bv.rhs for bv in result.bounds if bv.q in (None, 1.0)}
    for left, right in (("T3.4", "T3.1"), ("C4.1", "T4.1")):
        if left in at_one and right in at_one:
            x, y = at_one[left], at_one[right]
            p.check(abs(x - y) <= REL_TOL * max(1.0, abs(x), abs(y)), case.name,
                    f"{left}(q=1) = {x!r} but {right} = {y!r}")


def corpus(p: Pass, digests):
    cases = runner.load_corpus()
    if SPEC.get("names"):
        cases = [c for c in cases if c.name in SPEC["names"]]
    t_loaded = clock()
    p.inputs = len(cases)
    full = len(cases) == len(digests["corpus_cases"])
    texts = []
    results = run_cases(p, cases, texts)
    t_done = clock()

    def check():
        if full and texts:
            p.check(digest(texts[0]) == digests["corpus_report"], "<report>",
                    "report bytes differ from the recorded digest")
        for result in results:
            p.check(digest(case_bytes(result)) == digests["corpus_cases"].get(result.name),
                    result.name, "case bytes differ from the recorded digest")

    return t_loaded, t_done, check


def fresh_cases(p: Pass, digests):
    p.expect_raise = set(SPEC["expect_raise"])
    cases = load_configs(p, SPEC["configs"])
    t_loaded = clock()
    p.inputs = len(SPEC["configs"])
    results = run_cases(p, cases)
    t_done = clock()

    def check():
        p.check_raised(cfg["name"] for cfg in SPEC["configs"])
        by_name = {c.name: c for c in cases}
        for first in results:
            case = by_name[first.name]
            try:
                again = runner.run_case(case)
            except Exception as exc:
                p.fail(case.name, f"rerun raised {type(exc).__name__}: {exc}", mismatch=True)
                continue
            p.check(case_bytes(again) == case_bytes(first), case.name,
                    "rerun gave different bytes")
            check_invariants(p, case, first)

    return t_loaded, t_done, check


def scan(p: Pass, digests):
    cfg = SPEC["configs"][0]
    name = cfg["name"]
    p.expect_raise = set(digests["scan_raises"])
    cases = load_configs(p, [cfg])
    t_loaded = clock()
    p.inputs = 1
    rows = None
    if cases:
        case = cases[0]
        p.attempted += 1
        try:
            results, span = timed(runner.tightness_scan, case.model, case.eta,
                                  case.model.domain, *SPEC["scan_args"])
        except Exception as exc:
            p.crash(name, "tightness_scan", exc)
        else:
            p.ops.append(span)
            p.done += 1
            p.cells += sum(r.cells for r in results)
            rows = scan_bytes(results)
            p.report_bytes += len(rows.encode("utf-8"))
    t_done = clock()

    def check():
        p.check_raised([name])
        if rows is not None and name not in p.expect_raise:
            p.check(digest(rows) == digests["scan"].get(name), name,
                    "scan results differ from the recorded digest")

    return t_loaded, t_done, check


def main():
    with open(SPEC["digests"], encoding="utf-8") as fh:
        digests = json.load(fh)
    tracer = None
    if SPEC["trace"]:
        tracer = spans.Tracer()
        tracer.install()
    t_traced = clock()
    p = Pass()
    t_loaded, t_done, check = {"corpus": corpus, "fresh_cases": fresh_cases, "scan": scan}[
        SPEC["workload"]](p, digests)
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    summary = None
    if tracer is not None:
        tracer.uninstall()
        summary = tracer.summary(t_done - t_traced)
        if SPEC.get("span_file"):
            tracer.write(SPEC["span_file"])
    check()
    work = p.ops + p.reports
    out = {
        # times as measured, and *_ref the same at the reference speed
        "setup_s": t_loaded - T0,
        "setup_ref_s": at_ref_speed(T0, t_loaded),
        "window_s": t_done - T0,
        "op_ms": [1000.0 * (end - start) for start, end in p.ops],
        "op_ref_ms": [1000.0 * at_ref_speed(start, end) for start, end in p.ops],
        "work_s": sum(end - start for start, end in work),
        "work_ref_s": sum(at_ref_speed(start, end) for start, end in work),
        "done": p.done,
        "cells": p.cells,
        "inputs": p.inputs,
        "attempted": p.attempted,
        "failed": len({name for name, _ in p.failures}),
        "failures": p.failures,
        "mismatches": p.mismatches,
        "checks": p.checks,
        "report_bytes": p.report_bytes,
        "peak_rss_mb": peak_rss_mb,
        "probes": len(PROBES),
        "trace": summary,
    }
    print(json.dumps(out))


if __name__ == "__main__":
    main()
