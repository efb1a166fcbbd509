"""Case pipeline, bundled corpus, tightness scans and report assembly.

A corpus case names a function model, a direction map eta, an interval
K, the exponents q and the bounds to evaluate.  ``run_case`` drives the
full pipeline:

    validate -> invex-set check -> per-(theorem, q) hypothesis checks ->
    defect + kernel-integral identity -> bound evaluation -> verdict

Verdicts: "pass" (all evaluated bounds dominate the defect),
"hypothesis_unmet" (at least one requested bound was skipped because a
sampled hypothesis failed), "violation" (the defect identity failed
beyond its budget, or a bound's slack, rhs - lhs - qerr, is below
-(2*qerr + tol.slack): the rhs lies below the lhs by more than the
quadrature error estimate qerr and tol.slack; a slack between that and
-tol.slack is within qerr of equality and gets a note instead) and
"input_error" (the case itself is unusable, e.g. a non-positive eta
step, eta failing on the invex-set samples, or |f'|^q beyond the float
range in a hypothesis sweep).  A violation always wins over other
verdicts when aggregating exit codes.

Reports serialize to JSON deterministically: fixed key order, no
timestamps and no wall-clock fields, so re-running identical inputs
yields identical bytes.  schemas/report_schema.json describes the
document.  The program checks what it reads, not what it writes: the
tests validate reports against that schema, and serialization checks
nothing.

Case configs are accepted or rejected by a small in-repo checker of the
keywords the case schema uses (draft 2020-12 semantics), which also
words each rejection as jsonschema does; the program has no runtime
dependency.  The case schema checks a config's shape only; each rule on
its values has one home in code, shared by every entry point:
``_case_error`` (``_request_error`` for the q and theorem lists) and the
``from_config`` and ``merged`` steps ``load_case`` calls.
"""

from __future__ import annotations

import io
import json
import math
import numbers
import time
from contextlib import contextmanager
from functools import lru_cache, partial
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import bounds as bounds_mod
from . import scan
from .errors import (
    CaseConfigError,
    DomainError,
    EvalDomainError,
    MissingFourthDerivative,
    ParseError,
    PreconditionUnmet,
    QuadratureError,
)
from .invexity import (
    DEFAULT_GRID,
    DEFAULT_TOL,
    Domain,
    EtaMap,
    PropertyReport,
    SampleGrid,
    check_invex_set,
    hypothesis_pair,
    preinvex_excess,
    spaced,
)
from .quadrature import DEFAULT_ABS_TOL, QuadratureResult
from .record import Record, factory, replace
from .scan import TightnessResult

__all__ = [
    "Tolerances",
    "DEFAULT_TOLERANCES",
    "THEOREM_IDS",
    "CorpusCase",
    "CaseResult",
    "RunReport",
    "TightnessResult",
    "load_case",
    "load_corpus",
    "run_case",
    "run_corpus",
    "tightness_scan",
    "aggregate_exit_code",
    "case_schema",
    "report_schema",
]

VERDICT_PASS = "pass"
VERDICT_UNMET = "hypothesis_unmet"
VERDICT_VIOLATION = "violation"
VERDICT_INPUT_ERROR = "input_error"

# CLI exit codes, one per verdict that can decide a run (aggregate_exit_code)
EXIT_PASS, EXIT_VIOLATION, EXIT_UNMET_STRICT, EXIT_INPUT_ERROR = 0, 1, 2, 3


THEOREM_IDS = tuple(bounds_mod.THEOREMS)


def _request_error(q_list: Sequence[float], theorems: Sequence[str]) -> Optional[Tuple[str, str]]:
    """(error kind, message) for the first problem of a request, else None.

    A request lists q's, each finite and >= 1, and known theorem ids, with
    no repeat (it would sweep and report the same bound again).  Every
    entry point checks a request here and raises or reports its own error.
    """
    if not q_list:
        return "InvalidExponent", "the case lists no q"
    if not all(1.0 <= q < math.inf for q in q_list):
        return "InvalidExponent", f"every q must be finite and >= 1, got {list(q_list)!r}"
    if not theorems:
        return "InvalidTheorem", "the case lists no theorem"
    for theorem in theorems:
        if theorem not in bounds_mod.THEOREMS:
            return "InvalidTheorem", f"unknown theorem id {theorem!r}"
    for kind, label, values in (("InvalidTheorem", "theorem", theorems),
                                ("InvalidExponent", "q", q_list)):
        for i, value in enumerate(values):
            if value in values[:i]:
                return kind, f"{label} {value!r} is listed more than once"
    return None


class Tolerances(Record):
    """Numeric tolerances used across the pipeline.

    oracle: absolute tolerance handed to the quadrature oracle.
    slack: a bound counts as violated only below -(2*quadrature_error + slack).
    invexity: sampled property checks flag excesses above this.
    identity: defect-vs-kernel-integral budget before quadrature errors.
    """

    oracle: float = DEFAULT_ABS_TOL
    slack: float = 1e-12
    invexity: float = DEFAULT_TOL
    identity = 1e-9  # not annotated: a constant no case or flag sets, not a field

    def merged(self, overrides: Optional[dict]) -> "Tolerances":
        """This set with ``overrides`` applied, a None override counting as absent;
        CaseConfigError unless each applied value is finite and > 0."""
        values = {k: bounds_mod._config_float(v, f"tolerance {k}")
                  for k, v in (overrides or {}).items() if v is not None}
        for key, value in values.items():
            if not (math.isfinite(value) and value > 0.0):
                raise CaseConfigError(f"tolerance {key} must be finite and > 0, got {value!r}")
        return replace(self, **values) if values else self


DEFAULT_TOLERANCES = Tolerances()


# the bundled corpus/ and schemas/ directories sit beside this module
_PACKAGE_DIR = Path(__file__).parent


def _read_schema(name: str) -> dict:
    return json.loads((_PACKAGE_DIR / "schemas" / f"{name}.json").read_text(encoding="utf-8"))


def case_schema() -> dict:
    return _read_schema("case_schema")


def report_schema() -> dict:
    """The shape of a report; the program never reads it, the tests check reports against it."""
    return _read_schema("report_schema")


# the case schema, read once; the tests check both schemas against their metaschema
_case_schema = lru_cache(maxsize=None)(case_schema)


_TYPES = {
    "null": lambda x: x is None,
    "string": lambda x: isinstance(x, str),
    "number": lambda x: isinstance(x, numbers.Number) and not isinstance(x, bool),
    "array": lambda x: isinstance(x, list),
    "object": lambda x: isinstance(x, dict),
}


def _fail(path: tuple, message: str) -> Tuple[str, str]:
    return "/".join(map(str, path)) or "<root>", message


def _failure(instance, schema: dict, path: tuple = ()) -> Optional[Tuple[str, str]]:
    """(JSON path, message) of the first check ``instance`` fails under
    ``schema``, else None.

    Accepts and rejects as jsonschema does (draft 2020-12) for the keywords
    the case schema uses, and words each rejection as jsonschema 4.26
    words that keyword; a test fails on any other keyword.  The path is
    "<root>" at the top.
    """
    types = schema.get("type")
    if types is not None:
        types = [types] if isinstance(types, str) else types
        if not any(_TYPES[t](instance) for t in types):
            return _fail(path, f"{instance!r} is not of type {', '.join(map(repr, types))}")
    if isinstance(instance, dict):
        for key in schema.get("required", ()):
            if key not in instance:
                return _fail(path, f"{key!r} is a required property")
        properties = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key, value in instance.items():
            sub = properties.get(key, extra)
            if sub is False:  # jsonschema names every extra key in one error
                extras = sorted((k for k in instance if k not in properties), key=str)
                verb = "was" if len(extras) == 1 else "were"
                return _fail(path, f"Additional properties are not allowed "
                                   f"({', '.join(map(repr, extras))} {verb} unexpected)")
            if sub is not True:
                found = _failure(value, sub, path + (key,))
                if found is not None:
                    return found
    elif isinstance(instance, list):
        # jsonschema's wording for minItems > 1 and maxItems > 0, the only values the schema uses
        if len(instance) < schema.get("minItems", 0):
            return _fail(path, f"{instance!r} is too short")
        if len(instance) > schema.get("maxItems", math.inf):
            return _fail(path, f"{instance!r} is too long")
        items = schema.get("items")
        if items is not None:
            for i, item in enumerate(instance):
                found = _failure(item, items, path + (i,))
                if found is not None:
                    return found
    elif isinstance(instance, str):
        if len(instance) < schema.get("minLength", 0):
            return _fail(path, f"{instance!r} should be non-empty" if schema["minLength"] == 1
                         else f"{instance!r} is too short")
    return None


class CorpusCase(Record, frozen=False):
    """A validated corpus case ready to run."""

    name: str
    model: bounds_mod.FunctionModel
    eta: EtaMap
    a: float
    b: float
    q_list: Tuple[float, ...]
    theorems: Tuple[str, ...]
    tolerances: Tolerances
    expected: Dict[str, Tuple[float, float]] = factory(dict)


def _case_error(case: CorpusCase) -> Optional[Tuple[str, str]]:
    """``_request_error`` of the case's lists, then a non-finite a or b, a bad
    ``expected`` entry or CLASSICAL without d4sup; None if the case is well formed."""
    error = _request_error(case.q_list, case.theorems)
    if error is not None:
        return error
    if not (math.isfinite(case.a) and math.isfinite(case.b)):
        return "InvalidInterval", f"a and b must be finite, got a = {case.a!r}, b = {case.b!r}"
    try:
        _golden(case.expected)
    except ValueError as exc:
        return "InvalidExpected", str(exc)
    if "CLASSICAL" in case.theorems:
        try:
            bounds_mod.fourth_derivative_sup(case.model)
        except MissingFourthDerivative as exc:
            return "MissingFourthDerivative", str(exc)
    return None


@contextmanager
def _compilable(subject: str):
    """Turn a RecursionError, met where an expression nested too deeply is
    parsed, compiled or checked, into CaseConfigError naming ``subject``."""
    try:
        yield
    except RecursionError:
        raise CaseConfigError(f"{subject}: an expression is nested too deeply") from None


def load_case(config: dict, tolerances: Tolerances = DEFAULT_TOLERANCES) -> CorpusCase:
    """Validate a raw case dict and build a CorpusCase.

    A shape the case schema rejects, unparsable expressions, an expression
    nested too deeply, a bad eta kind, K, d4sup or tolerance, an integer
    too large for a float (``bounds._config_float``), a case
    ``_case_error`` rejects, a failing derivative gate or an inconsistent
    or unverifiable antiderivative (f, df or F failing at a point a gate
    reads included) all raise CaseConfigError here, at load time.
    """
    found = _failure(config, _case_schema())
    if found is not None:
        raise CaseConfigError("case config invalid at %s: %s" % found)
    name = config["name"]
    with _compilable(f"case {name!r}"):
        model = bounds_mod.FunctionModel.from_config(config)
        try:
            eta = EtaMap.from_config(config["eta"])
        except (ValueError, ParseError) as exc:
            raise CaseConfigError(f"case {name!r}: bad eta: {exc}") from exc
        number = bounds_mod._config_float
        a = number(config["a"], f"case {name!r}: a")
        b = number(config["b"], f"case {name!r}: b")
        expected = {key: (number(entry["rhs"], f"case {name!r}: expected {key!r} rhs"),
                          number(entry["tolerance"], f"case {name!r}: expected {key!r} tolerance"))
                    for key, entry in (config.get("expected") or {}).items()}
        q_list = tuple(number(q, f"case {name!r}: q[{i}]") for i, q in enumerate(config["q"]))
        case = CorpusCase(name, model, eta, a, b, q_list,
                          tuple(config["theorems"]), tolerances.merged(config.get("tolerances")),
                          expected)
        error = _case_error(case)
        if error is not None:
            raise CaseConfigError(f"case {name!r}: {error[1]}")
        # the F gate uses the case interval when the step is usable
        f_interval = None
        try:
            step = eta(b, a)
            if step > 0.0 and model.domain.contains(a) and model.domain.contains(a + step):
                f_interval = (a, a + step)
        except EvalDomainError:
            pass
        model.validate(interval=f_interval, quad_tol=case.tolerances.oracle)
    return case


class CaseResult(Record, frozen=False):
    name: str
    verdict: str
    eta_step: Optional[float] = None
    defect: Optional[bounds_mod.SimpsonDefect] = None
    lemma: Optional[QuadratureResult] = None
    identity_residual: Optional[float] = None
    bounds: List[bounds_mod.BoundValue] = factory(list)
    hypotheses: List[PropertyReport] = factory(list)
    notes: List[str] = factory(list)
    golden_failures: List[str] = factory(list)
    error: Optional[str] = None

    def to_dict(self) -> dict:
        d = self.defect
        lem = self.lemma
        return {
            "case": self.name,
            "verdict": self.verdict,
            "eta_step": self.eta_step,
            "defect": d.defect if d else None,
            "simpson_value": d.simpson_value if d else None,
            "mean_integral": d.mean_integral if d else None,
            "quadrature_error": d.quadrature_error if d else None,
            "defect_evaluations": d.evaluations if d else None,
            "lemma_value": lem.value if lem else None,
            "lemma_error_estimate": lem.error_estimate if lem else None,
            "lemma_evaluations": lem.evaluations if lem else None,
            "identity_residual": self.identity_residual,
            "bounds": [bv.to_dict() for bv in self.bounds],
            "hypotheses": [h.to_dict() for h in self.hypotheses],
            "notes": list(self.notes),
            "golden_failures": list(self.golden_failures),
            "error": self.error,
        }


def _hypotheses(model, eta: EtaMap, K: Domain, grid: SampleGrid, tol: float,
                swept: List[PropertyReport]):
    """lookup(mode, q) -> PropertyReport, one sweep per q, whose two reports it
    appends to ``swept``.  A q whose sweep raises (OverflowError where |f'|^q
    leaves the float range) keeps nothing: each lookup sweeps it again."""
    sweeps: Dict[float, Tuple[PropertyReport, PropertyReport]] = {}

    def lookup(mode: str, q: float) -> PropertyReport:
        if q not in sweeps:
            sweeps[q] = hypothesis_pair(model, eta, K, q, grid, tol)
            swept.extend(sweeps[q])
        pre, quasi = sweeps[q]
        return pre if mode == "preinvex" else quasi

    return lookup


def _holds(hypothesis, exceeds, mode: str, q: float) -> bool:
    """Whether |f'|^q has ``mode`` on the samples, ``hypothesis`` being a
    ``_hypotheses`` lookup and ``exceeds(witness, q)`` whether |f'|^q's
    preinvex excess at one plan sample exceeds tol.  At q > 1 the q = 1
    reports of |f'| decide where they can, then the q = 1 preinvex witness,
    and q is swept only where both leave it open.

    t -> t^q is increasing on [0, inf), so |f'|^q is prequasiinvex exactly
    when |f'| is; it is also convex there, so a preinvex |f'| gives a
    preinvex |f'|^q (Jensen).  A preinvex g is prequasiinvex, so an |f'|^q
    that is not prequasiinvex is not preinvex either.  Open: preinvex at q
    where |f'| is prequasiinvex but not preinvex.  There the q = 1 preinvex
    report's witness is one sample of the sweep at q, so an excess above
    tol at it fails the gate exactly, with no sweep; an OverflowError at it
    is the sweep's own, which raises at any overflowing sample.
    """
    if q > 1.0:
        if hypothesis("prequasiinvex", 1.0).violated:
            return False
        pre = hypothesis("preinvex", 1.0)
        if mode == "prequasiinvex" or not pre.violated:
            return True
        if exceeds(pre.witness, q):
            return False
    return not hypothesis(mode, q).violated


def _exceeds(model, eta: EtaMap, tol: float, overflowed: set, witness, q: float) -> bool:
    """Whether |f'|^q's preinvex excess at the plan sample ``witness`` exceeds
    tol; True at once for a q in ``overflowed``, whose witness or sweep
    overflowed (a gate that sweeps q reads its witness first)."""
    return q in overflowed or preinvex_excess(model.df_fn, eta, witness, q) > tol


def _fmt(x: float) -> str:
    return repr(float(x))


def _csv(rows) -> str:
    """``rows`` as CSV text: a field quoted where it needs it, None empty, a float its repr."""
    import csv  # at first use: a run that writes no CSV report never loads it

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\r\n")  # so a field holding \r or \n is quoted
    for row in rows:
        writer.writerow(row)
        out.seek(out.tell() - 2)  # each row ends in "\n" alone
        out.write("\n")
        out.truncate()
    return out.getvalue()


def _input_error(result: CaseResult, error: str) -> CaseResult:
    result.verdict = VERDICT_INPUT_ERROR
    result.error = error
    return result


def run_case(case: CorpusCase, grid: SampleGrid = DEFAULT_GRID) -> CaseResult:
    """Run the full pipeline for one loaded case."""
    tol = case.tolerances
    model = case.model
    K = model.domain
    result = CaseResult(case.name, VERDICT_PASS)
    # load_case rejects such a case; a hand-built one gets a verdict, not a raise
    error = _case_error(case)
    if error is not None:
        return _input_error(result, "%s: %s" % error)

    # eta step and interval membership; failures here are input errors
    try:
        step = case.eta(case.b, case.a)
    except EvalDomainError as exc:
        return _input_error(result, f"EvalDomainError: {exc}")
    if not step > 0.0:
        return _input_error(result, f"InvalidEta: eta(b, a) = {step!r} must be positive "
                                    f"for a = {case.a!r}, b = {case.b!r}")
    result.eta_step = step
    for label, x in (("a", case.a), ("b", case.b), ("a + eta(b, a)", case.a + step)):
        if not K.contains(x):
            return _input_error(
                result, f"DomainError: {label} = {x!r} outside K = [{K.lo!r}, {K.hi!r}]")

    try:
        invex_report = check_invex_set(K, case.eta, grid, tol.invexity)
    except EvalDomainError as exc:
        return _input_error(result, f"EvalDomainError: invex-set check of eta on K: {exc}")
    result.hypotheses.append(invex_report)
    if invex_report.violated:
        result.notes.append(
            f"K is not invex for eta on samples (worst excess "
            f"{_fmt(invex_report.worst_violation)} at {invex_report.witness!r})")

    hypothesis = _hypotheses(model, case.eta, K, grid, tol.invexity, result.hypotheses)

    try:
        defect = bounds_mod.simpson_defect(model, case.a, step, tol.oracle)
        lemma = bounds_mod.lemma_rhs(model, case.a, step, tol.oracle)
    except (EvalDomainError, DomainError, QuadratureError) as exc:
        return _input_error(result, f"{type(exc).__name__}: {exc}")
    result.defect = defect
    result.lemma = lemma
    result.identity_residual = abs(defect.defect - lemma.value)
    identity_budget = tol.identity + defect.quadrature_error + lemma.error_estimate
    identity_ok = result.identity_residual <= identity_budget
    if not identity_ok:
        result.notes.append(
            f"defect identity failed: residual {_fmt(result.identity_residual)} "
            f"exceeds budget {_fmt(identity_budget)}")

    skipped = False
    for theorem in case.theorems:
        row = bounds_mod.THEOREMS[theorem]
        if row.mode is not None and invex_report.violated:
            skipped = True
            result.notes.append(f"skipped {theorem}: K is not invex for eta")
            continue
        exponents = row.exponents(case.q_list)
        if not exponents:
            result.notes.append(f"{theorem} needs q > 1 but the case lists none")
            continue
        for q in exponents:
            try:
                report = hypothesis(row.mode, q) if row.mode is not None else None
            except OverflowError:  # worded here: the exception's text is the C library's
                return _input_error(result, f"OverflowError: hypothesis sweep of |f'|^q "
                                            f"at q={q!r}: |f'|^q exceeds the float range")
            if report is not None and report.violated:
                skipped = True
                result.notes.append(
                    f"skipped {theorem} at q={q:g}: |f'|^q is not {row.mode} on samples "
                    f"(worst excess {_fmt(report.worst_violation)})")
                if q > 1.0 and 1.0 in case.q_list and not hypothesis(row.mode, 1.0).violated:
                    result.notes.append(
                        f"note: |f'| is {row.mode} at q=1 but |f'|^q fails at q={q:g}")
                continue
            try:
                result.bounds.append(
                    bounds_mod._bound(theorem, model, case.a, case.b, step, q, defect))
            except PreconditionUnmet as exc:
                skipped = True
                result.notes.append(f"skipped {theorem}: {exc}")
            except EvalDomainError as exc:  # f' fails or is NaN at a or b; sweeps skip NaN
                return _input_error(
                    result, f"EvalDomainError: {theorem} needs |f'(a)| and |f'(b)|: {exc}")
            except OverflowError:  # CLASSICAL's step^4 (the power means rescale); the
                # exception's text is the C library's
                return _input_error(result, f"OverflowError: rhs of {theorem} "
                                            f"exceeds the float range")

    _check_golden(_golden(case.expected), result)
    # rhs < lhs - qerr - tol.slack; a slack closer to 0 than that is within qerr of equality
    floor = -(2.0 * defect.quadrature_error + tol.slack)
    slack_violation = False
    for bv in result.bounds:
        if bv.slack < floor:
            slack_violation = True
        elif bv.slack < -tol.slack:
            at_q = "" if bv.q is None else f" at q={bv.q:g}"
            result.notes.append(
                f"note: {bv.theorem}{at_q} slack {_fmt(bv.slack)} lies within the quadrature "
                f"error estimate {_fmt(defect.quadrature_error)}; not counted as a violation")
    if slack_violation or not identity_ok:
        result.verdict = VERDICT_VIOLATION
    elif skipped:
        result.verdict = VERDICT_UNMET
    else:
        result.verdict = VERDICT_PASS
    return result


_Golden = Tuple[str, str, Optional[float], float, float]


def _golden(expected: Dict[str, Tuple[float, float]]) -> List[_Golden]:
    """(key, theorem, q or None, rhs, tolerance) per ``expected`` entry, in key order.

    A key is a theorem id, optionally followed by "@q" with q finite and
    a q the theorem evaluates and labels its bound with (so T3.1, C4.2
    and CLASSICAL take no "@q", and C4.1 only "@1"); ValueError unless
    every key is one, every rhs is finite and every tolerance is finite
    and > 0.
    """
    entries = []
    for key, (rhs, tolerance) in sorted(expected.items()):
        theorem, at, q_text = key.partition("@")
        try:
            q = float(q_text) if at else None
        except ValueError:
            q = math.nan  # rejected with the key below
        if theorem not in bounds_mod.THEOREMS or q is not None and not math.isfinite(q):
            raise ValueError(f"expected key {key!r} is not a theorem id with an optional "
                             f"'@q' for a finite q")
        if q is not None:
            row = bounds_mod.THEOREMS[theorem]
            try:
                labelled = q in row.exponents([q]) and row.labels(q)[0] == q
            except ValueError:  # a q out of the row's range
                labelled = False
            if not labelled:
                raise ValueError(f"expected key {key!r} can never match: {theorem} "
                                 f"labels no bound q = {q!r}")
        if not (math.isfinite(rhs) and math.isfinite(tolerance) and tolerance > 0.0):
            raise ValueError(f"expected {key!r} needs a finite rhs and a finite tolerance > 0, "
                             f"got rhs {rhs!r}, tolerance {tolerance!r}")
        entries.append((key, theorem, q, rhs, tolerance))
    return entries


def _check_golden(golden: List[_Golden], result: CaseResult) -> None:
    for key, theorem, q_want, want, tolerance in golden:
        match = None
        for bv in result.bounds:
            if bv.theorem == theorem and (q_want is None or bv.q == q_want):
                match = bv
                break
        if match is None:
            result.golden_failures.append(f"{key}: bound was not evaluated")
        elif abs(match.rhs - want) > tolerance:
            result.golden_failures.append(
                f"{key}: rhs {_fmt(match.rhs)} differs from expected "
                f"{_fmt(want)} by more than {_fmt(tolerance)}")


class RunReport(Record, frozen=False):
    """Results of a corpus run.  wall_time never enters the JSON."""

    results: List[CaseResult]
    wall_time: float

    @property
    def counts(self) -> Dict[str, int]:
        c = {"cases": len(self.results), VERDICT_PASS: 0, VERDICT_UNMET: 0,
             VERDICT_VIOLATION: 0, VERDICT_INPUT_ERROR: 0}
        for r in self.results:
            c[r.verdict] += 1
        return c

    def to_dict(self) -> dict:
        return {
            "cases": [r.to_dict() for r in self.results],
            "counts": self.counts,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        rows = [["case", "verdict", "theorem", "q", "p", "rhs", "slack", "defect",
                 "quadrature_error", "identity_residual"]]
        for r in self.results:
            d = r.defect
            tail = [d.defect if d else None, d.quadrature_error if d else None,
                    r.identity_residual]
            if r.bounds:
                for bv in r.bounds:
                    rows.append([r.name, r.verdict, bv.theorem, bv.q, bv.p, bv.rhs, bv.slack]
                                + tail)
            else:
                rows.append([r.name, r.verdict, None, None, None, None, None] + tail)
        return _csv(rows)


def _corpus_dir() -> Path:
    return _PACKAGE_DIR / "corpus"


def load_corpus(name_filter: Optional[str] = None,
                tolerances: Tolerances = DEFAULT_TOLERANCES) -> List[CorpusCase]:
    """Load the bundled cases, optionally keeping names containing ``name_filter``."""
    cases = []
    entries = sorted((e for e in _corpus_dir().iterdir() if e.name.endswith(".json")),
                     key=lambda e: e.name)
    for entry in entries:
        config = json.loads(entry.read_text(encoding="utf-8"))
        case = load_case(config, tolerances)
        if name_filter is None or name_filter in case.name:
            cases.append(case)
    return cases


def run_corpus(cases: Optional[Sequence[CorpusCase]] = None) -> RunReport:
    """Run ``cases`` (by default the bundled corpus) and assemble a report."""
    started = time.perf_counter()
    if cases is None:
        cases = load_corpus()
    results = [run_case(case) for case in cases]
    results.sort(key=lambda r: r.name)
    return RunReport(results, time.perf_counter() - started)


def _axis(rng: Tuple[float, float], name: str, steps: int) -> List[float]:
    """``steps`` points spaced over ``rng``; ValueError where its width overflows."""
    lo, hi = float(rng[0]), float(rng[1])
    if not math.isfinite(hi - lo):  # as Domain refuses: the axis would hold NaN
        raise ValueError(f"{name} width hi - lo overflows, got [{lo!r}, {hi!r}]")
    return [lo] * steps if lo == hi else spaced(lo, hi, steps)


def tightness_scan(model: bounds_mod.FunctionModel, eta: EtaMap, K: Domain,
                   a_range: Tuple[float, float], b_range: Tuple[float, float],
                   q_list: Sequence[float], steps: int,
                   theorems: Sequence[str] = THEOREM_IDS,
                   tolerances: Tolerances = DEFAULT_TOLERANCES,
                   grid: SampleGrid = DEFAULT_GRID) -> List[TightnessResult]:
    """Maximise |defect| / rhs per theorem over an (a, b, q) grid.

    A result's ``skipped`` counts its (q, a, b) cells that gave no ratio.  A
    cell gives none where eta fails or gives no positive step, where a, b
    or a + step lies outside K or a or a + step outside the model's domain,
    where f or its integral fails, where f' fails or is NaN at a or b (for a
    theorem that reads it), off C4.2's precondition, and where the rhs is
    zero, NaN or overflows or the ratio is NaN.  Every cell of a (theorem, q)
    pair is skipped whose hypothesis on |f'|^q fails, or whose witness or
    sweep overflows (such a q is read once), every cell of a theorem with a
    hypothesis when K is not invex for eta (or eta fails on its samples), and
    every cell of CLASSICAL without d4sup; a theorem with no usable cell is
    reported with status "all_skipped".  Ties keep the first cell in
    (q, a, b) order, so results are deterministic.

    The q = 1 sweep decides each q > 1 hypothesis (``_holds``), whether or
    not ``q_list`` holds 1: a prequasiinvex pair holds at q when |f'| is
    prequasiinvex at q = 1, a preinvex pair when |f'| is preinvex at q = 1,
    and neither when |f'| is not prequasiinvex at q = 1.  A preinvex pair
    whose |f'| is prequasiinvex but not preinvex at q = 1 reads |f'|^q at
    the q = 1 preinvex witness first: an excess above tol there fails it
    exactly, since the sweep at q reads that sample too, and only an excess
    within tol sweeps q.  Any q > 1 hypothesis sweeps q = 1 first.  Only a
    pair that witnesses or sweeps q is skipped for an overflow at q; an
    implied pair at that q still ranks.  An implied verdict carries
    q = 1's tolerance tol: on the same samples, an excess of at most tol for
    |f'| is one of at most q * (M + tol)^(q - 1) * tol for |f'|^q, M the
    largest sampled |f'|, so a sweep at q may flag, by no more than that
    and rounding, a pair the scan ranks.  An implied q is never swept, so an
    |f'|^q beyond the float range shows only in its cells' rhs, which
    rescales its powers (a cell whose rhs still overflows is skipped).

    A cell's mean is its own adaptive integral's, as ``simpson_defect`` takes
    it, run only where it can decide a ranking (``scan.enclose``, ``scan.rank``).

    ValueError, before any sweep, for steps < 2, an a or b range whose
    width hi - lo overflows, or a request ``_request_error`` rejects: an
    empty q or theorem list, a q that is not finite or is below 1, an
    unknown theorem id, or a theorem id or q listed twice.  Any other error
    that eta, f or f' raises at a cell propagates: the first in (a, b) order,
    then one from the gap integrals, left to right, and then one from the own
    integrals, in the order the rankings take them.
    """
    if steps < 2:
        raise ValueError("steps must be at least 2")
    error = _request_error(q_list, theorems)
    if error is not None:
        raise ValueError(error[1])
    tol = tolerances
    a_vals = _axis(a_range, "a_range", steps)
    b_vals = _axis(b_range, "b_range", steps)
    n_cells = steps * steps

    try:
        invex = not check_invex_set(K, eta, grid, tol.invexity).violated
    except EvalDomainError:  # eta fails on the samples: K is not invex for it
        invex = False
    hypothesis = _hypotheses(model, eta, K, grid, tol.invexity, [])
    overflowed = set()  # the q whose witness or sweep overflowed, read once
    exceeds = partial(_exceeds, model, eta, tol.invexity, overflowed)
    # (rhs, midpoint lhs, reads f') -> [best ratio, its (a, b) or None, ranked cells],
    # one per distinct rhs and lhs (T4.1 at every q and C4.1 share one)
    rankings = {}
    by_theorem = []  # (theorem, [(q, its ranking)])
    for theorem in theorems:
        row = bounds_mod.THEOREMS[theorem]
        pairs = []
        for q in row.exponents(q_list):
            try:
                usable = (model.d4sup is not None if row.mode is None else invex and
                          _holds(hypothesis, exceeds, row.mode, q))
            except OverflowError:  # |f'|^q overflows on the samples
                overflowed.add(q)
                usable = False
            ranking = [-math.inf, None, 0]  # a pair that cannot rank ranks no cell
            if usable:
                key = (row.rhs_for(model.d4sup if row.mode is None else q),
                       row.midpoint, row.mode is not None)
                ranking = rankings.setdefault(key, ranking)
            pairs.append((q, ranking))
        by_theorem.append((theorem, pairs))

    if rankings:  # with nothing to rank, no cell is visited
        reads_df = any(uses_df for _, _, uses_df in rankings)
        table = scan.cells(model, eta, K, a_vals, b_vals, reads_df)
        scan.enclose(table, model, tol.oracle)
        scan.rank(table, rankings, partial(scan.own_mean, model, tol.oracle))

    out = []
    for theorem, pairs in by_theorem:
        best = None, (None, None), None  # (ratio, (a, b), q) of the best pair, if any
        for q, (ratio, at, _) in pairs:  # q order: the first of equal ratios wins
            if at is not None and (best[0] is None or ratio > best[0]):
                best = ratio, at, q
        ratio, (a, b), q = best
        cells = n_cells * len(pairs)
        ranked = sum(ranking[2] for _, ranking in pairs)
        out.append(TightnessResult(theorem, "all_skipped" if ratio is None else "ok",
                                   ratio, a, b, q, cells, cells - ranked))
    return out


def aggregate_exit_code(results: Sequence[CaseResult], strict: bool = False) -> int:
    """CLI exit code: violation > input_error > strict-unmet > pass."""
    verdicts = {r.verdict for r in results}
    if VERDICT_VIOLATION in verdicts:
        return EXIT_VIOLATION
    if VERDICT_INPUT_ERROR in verdicts:
        return EXIT_INPUT_ERROR
    if strict and VERDICT_UNMET in verdicts:
        return EXIT_UNMET_STRICT
    return EXIT_PASS
