"""End-to-end acceptance checks.

Each test is one acceptance criterion and prints a single summary line:
``pytest -v tests/test_acceptance.py`` gives exactly one pass/fail line
per criterion, and ``-s`` additionally shows the printed summaries.
"""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from simpvex import bounds, kernel, quadrature, runner
from simpvex.expr import compile_expr, parse
from simpvex.invexity import DEFAULT_GRID, Domain, EtaMap, check_invex_set, check_pair
from simpvex.errors import CaseConfigError


def announce(n, text):
    print(f"criterion {n}: {text} ... PASS")


def test_criterion_1_defect_identity_on_corpus(corpus_report):
    checked = 0
    for r in corpus_report.results:
        if r.defect is None or r.lemma is None:
            continue
        budget = 1e-9 + r.defect.quadrature_error + r.lemma.error_estimate
        assert r.identity_residual <= budget, r.name
        checked += 1
    assert checked >= 12
    announce(1, f"kernel-integral identity holds on {checked} corpus cases "
                "within 1e-9 plus quadrature error")


def test_criterion_2_kernel_moments():
    for p in (1.0, 1.5, 2.0, 3.0, 7.0, 10.0):
        g = lambda t: abs(t - 1.0 / 6.0) ** p
        left = quadrature.integrate(g, 0.0, 1.0 / 6.0, 5e-14)
        right = quadrature.integrate(g, 1.0 / 6.0, 0.5, 5e-14)
        assert abs(kernel.moment_p(p) - (left.value + right.value)) <= 1e-10, p
    assert kernel.moment_p_exact(1) == Fraction(5, 72)
    weights = kernel.weighted_moments()
    assert weights == (Fraction(61, 1296), Fraction(29, 1296),
                       Fraction(29, 1296), Fraction(61, 1296))
    assert Fraction(61, 1296) + Fraction(29, 1296) == Fraction(5, 72)
    announce(2, "kernel moments match quadrature at 1e-10 and the exact "
                "rational identities hold")


def test_criterion_3_domination_everywhere(corpus_report):
    evaluated = 0
    seen_q = set()
    for r in corpus_report.results:
        assert r.verdict != "violation", r.name
        for bv in r.bounds:
            if bv.slack is not None:
                assert bv.slack >= -1e-12, (r.name, bv.theorem, bv.q)
                evaluated += 1
            if bv.q is not None:
                seen_q.add(bv.q)
            if bv.theorem in ("T3.2", "T3.3", "T4.2", "T4.3"):
                assert bv.q > 1.0
    assert evaluated > 100
    assert {1.0, 1.5, 2.0, 3.0} <= seen_q
    announce(3, f"all {evaluated} evaluated bounds dominate the defect at "
                "q in {1, 1.5, 2, 3}")


def test_criterion_4_cross_bound_identities():
    rng = random.Random(97)
    stub = lambda x1, x2: SimpleNamespace(df_fn=lambda x: x1 if x == 0.0 else x2,
                                          domain=Domain(0.0, 1.0))
    for _ in range(20):
        s = stub(rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0))
        one = bounds.bound_T3_4(s, 0.0, 1.0, 1.0, 1.0).rhs
        base = bounds.bound_T3_1(s, 0.0, 1.0, 1.0).rhs
        assert one == pytest.approx(base, rel=1e-14)
    compared = 0
    for case in runner.load_corpus():
        step = case.eta(case.b, case.a)
        for q in (1.1, 2.0, 5.0):
            single = bounds.bound_T4_3(case.model, case.a, case.b, step, q).rhs
            double = bounds.bound_T4_2(case.model, case.a, case.b, step, q).rhs
            assert single <= double * (1.0 + 1e-14), (case.name, q)
            compared += 1
    assert compared >= 36
    for q in (1.5, 2.0, 4.0):
        c = rng.uniform(0.1, 5.0)
        s = stub(c, c)
        assert (bounds.bound_T3_2(s, 0.0, 1.0, 1.0, q).rhs
                == pytest.approx(bounds.bound_T3_3(s, 0.0, 1.0, 1.0, q).rhs, rel=1e-13))
    announce(4, "power-mean bound collapses to the endpoint mean at q=1, the "
                "single split never loses on any corpus case, and the Hoelder "
                "variants agree at equal magnitudes")


def test_criterion_5_quartic_sharpness():
    cfg = {"name": "x4", "f": "x^4", "df": "4*x^3", "F": "(x^5)/5",
           "d4sup": 24.0, "K": [-1.5, 1.5]}
    model = bounds.FunctionModel.from_config(cfg)
    defect = bounds.simpson_defect(model, 0.0, 1.0)
    classical = bounds.bound_classical(model, 0.0, 1.0, defect)
    assert abs(defect.defect - 1.0 / 120.0) <= 1e-12
    assert abs(classical.rhs - 1.0 / 120.0) <= 1e-12
    assert abs(classical.rhs - abs(defect.defect)) <= 1e-12
    scan = runner.tightness_scan(model, EtaMap.difference(), Domain(-1.5, 1.5),
                                 (0.0, 0.0), (1.0, 1.0), [2.0], steps=2,
                                 theorems=("CLASSICAL",))
    assert scan[0].status == "ok"
    assert abs(scan[0].ratio - 1.0) <= 1e-9
    announce(5, "the quartic attains the classical bound: equality within "
                "1e-12 and tightness ratio 1 within 1e-9")


def test_criterion_6_hypothesis_checks():
    cube = compile_expr(parse("x^3", {"x"}), ("x",))
    u, v, t = -1.0, 0.0, 0.5
    excess = cube(u + t * (v - u)) - ((1.0 - t) * cube(u) + t * cube(v))
    assert excess > 0.3
    report, _ = check_pair(cube, EtaMap.difference(), Domain(-1.0, 1.0))
    assert report.verdict == "violated"
    assert report.worst_violation >= excess

    neg_abs = compile_expr(parse("-abs(x)", {"x"}), ("x",))
    assert DEFAULT_GRID.nu == 41 and DEFAULT_GRID.nv == 41 and DEFAULT_GRID.nt == 21
    ok, _ = check_pair(neg_abs, EtaMap.abs_example(), Domain(-1.0, 1.0),
                       DEFAULT_GRID, tol=1e-12)
    assert ok.verdict == "verified_on_samples"
    mixed = check_invex_set(Domain(-1.0, 1.0), EtaMap.abs_example())
    assert mixed.verdict == "violated"
    announce(6, "cubic preinvexity violation exceeds 0.3 at (-1, 0, 0.5) and "
                "-|u| verifies on the 41x41x21 grid at 1e-12")


def test_criterion_7_derivative_gates(data_dir):
    cases = runner.load_corpus()
    assert len(cases) >= 12
    bad = json.loads((data_dir / "bad_df.json").read_text())
    with pytest.raises(CaseConfigError):
        runner.load_case(bad)
    announce(7, f"all {len(cases)} corpus derivatives pass the 1e-4 "
                "finite-difference gate and the wrong-derivative fixture is "
                "rejected at load")


def test_criterion_8_reports_are_reproducible(corpus_report):
    again = runner.run_corpus()
    assert corpus_report.to_json() == again.to_json()
    announce(8, "two corpus runs serialize to byte-identical JSON")


def test_criterion_8_corpus_report_matches_its_recorded_digest(corpus_report):
    # the benchmark checks every corpus run against this digest; pin it here too
    recorded = Path(__file__).resolve().parent.parent / "perfbench" / "digests.json"
    want = json.loads(recorded.read_text(encoding="utf-8"))["corpus_report"]
    got = hashlib.sha256(corpus_report.to_json().encode("utf-8")).hexdigest()
    assert got == want
    announce(8, f"the corpus report's sha256 is the recorded {want[:8]}...")


def test_criterion_8_corpus_csv_report_matches_its_recorded_digest(corpus_report):
    # sha256 of `simpvex corpus --format csv`, pinned as the JSON report's is
    want = "e2c0fc1d0c67172fc7680f2a2d8a8a64627fd9ab93e5f6d70df897a95a9ad8bc"
    got = hashlib.sha256(corpus_report.to_csv().encode("utf-8")).hexdigest()
    assert got == want
    announce(8, f"the corpus CSV report's sha256 is the recorded {want[:8]}...")


def _scan_pool_outcomes(monkeypatch, names=None):
    """(scan digests, expected raisers' error types) of the benchmark's scan pool
    models named in ``names`` (all by default), and the recorded ones: reads
    perfbench/, edits nothing."""
    root = Path(__file__).resolve().parent.parent
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    import inputs
    import record

    recorded = json.loads((root / "perfbench" / "digests.json").read_text(encoding="utf-8"))
    digests, raises = {}, {}
    for cfg in inputs.scan_pool():
        if names is not None and cfg["name"] not in names:
            continue
        case = runner.load_case(cfg)
        try:
            scans = runner.tightness_scan(case.model, case.eta, case.model.domain,
                                          *inputs.scan_args(cfg))
        except Exception as exc:  # the expected raisers, by type
            raises[cfg["name"]] = type(exc).__name__
            continue
        digests[cfg["name"]] = record.digest(record.scan_bytes(scans))
    return digests, raises, recorded


def test_criterion_8_scan_pool_matches_its_recorded_digests(monkeypatch):
    # the benchmark's scan workload, every pool model once
    digests, raises, recorded = _scan_pool_outcomes(monkeypatch)
    assert digests == recorded["scan"]
    assert raises == recorded["scan_raises"] == {"scan_00003_power": "EvalDomainError"}
    announce(8, f"{len(digests)} scan digests and {len(raises)} expected raiser as recorded")
