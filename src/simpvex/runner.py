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
from array import array
from bisect import bisect_left
from contextlib import contextmanager, suppress
from functools import lru_cache
from operator import add, itemgetter, sub
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import bounds as bounds_mod
from . import quadrature
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
    spaced,
)
from .quadrature import DEFAULT_ABS_TOL, QuadratureResult
from .record import Record, factory, replace

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
            except OverflowError:  # a power in the rhs; the exception's text is the C library's
                at_q = f" at q={q!r}" if row.labelled else ""
                return _input_error(result, f"OverflowError: rhs of {theorem}{at_q} "
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


# How far a scan widens the enclosure of a cell's mean past the stated errors
# (Simpson's |S2 - S1|/15 estimate is a heuristic, not a bound: Gander &
# Gautschi, BIT 40, 2000), and the rounding it allows per unit of magnitude summed
_SAFETY = 1000.0
_ROUNDING = 16.0 * math.ulp(1.0)
# A ranking whose lhs is |defect| bounds the ratios of each block of _BLOCK x
# _BLOCK axis indices at once (the side chosen with tools/stage_time.py), each
# bound widened by _WIDEN so that an rhs a few ulps off monotone (pow need not
# round correctly) never prunes a cell that can win
_BLOCK = 9
_WIDEN = 1.0 + 2.0 ** -30


def _block_spans(rows: List[int], at_b: array, steps: int) -> List[List[Tuple[int, int]]]:
    """Per block of _BLOCK x _BLOCK axis indices, (a block, b block) in row-major
    order, the spans (lo, hi) of its cells' indices in columns in (a, b) order whose
    b indices are ``at_b`` and whose row i starts at rows[i], one per row with cells there."""
    blocks = []
    for i in range(0, steps, _BLOCK):
        for j in range(0, steps, _BLOCK):
            spans = []
            for row, end in zip(rows[i:i + _BLOCK], rows[i + 1:i + _BLOCK + 1]):
                lo = bisect_left(at_b, j, row, end)
                hi = bisect_left(at_b, j + _BLOCK, lo, end)
                if lo < hi:
                    spans.append((lo, hi))
            blocks.append(spans)
    return blocks


def _gather(column: array, spans: List[Tuple[int, int]]) -> list:
    """``column``'s values over ``spans``, in order."""
    values = []
    for lo, hi in spans:
        values += column[lo:hi]
    return values


def _box(x1s: list, x2s: list, steps: list) -> Tuple[int, tuple, tuple]:
    """(count, least corner, largest corner) of the cells (x1, x2, step) whose
    coordinates the columns hold; a column of one NaN stands for one not read."""
    nan = math.nan
    return (len(steps), (min(x1s, default=nan), min(x2s, default=nan), min(steps, default=nan)),
            (max(x1s, default=nan), max(x2s, default=nan), max(steps, default=nan)))


class TightnessResult(Record):
    """Best |defect| / rhs ratio for one theorem over a scan grid."""

    theorem: str
    status: str  # "ok" or "all_skipped"
    ratio: Optional[float]
    at_a: Optional[float]
    at_b: Optional[float]
    at_q: Optional[float]
    cells: int
    skipped: int


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
    zero, NaN or overflows or the ratio is NaN.  Every cell of a q is
    skipped whose sampled hypothesis fails or overflows (such a q is swept
    once), every cell of a theorem with a hypothesis when K is not invex for
    eta (or eta fails on its samples), and every cell of CLASSICAL without
    d4sup; a theorem with no usable cell is reported with status
    "all_skipped".  Ties keep the first cell in (q, a, b) order, so results
    are deterministic.

    The cells are built one row of a at a time: eta at each b, then f at a
    once and at each usable cell's mid and end (``bounds._simpson``), then f'
    at a and at each b.  A row where any of them raises is built again cell
    by cell, where an EvalDomainError skips its cell and any other error
    propagates from the first cell that raises it.  A cell's mean is its own
    adaptive integral's, as ``simpson_defect`` takes it, but a scan runs
    that integral only where it can decide a ranking.  The nodes are every
    usable cell's a and end a + step.  f is integrated once over each gap
    between consecutive nodes, and one table keeps, per node, the running
    sums of the gap integrals, of their estimates and of their magnitudes; a
    gap whose integral fails starts a new run of sums at its right node.  A
    cell whose a and end lie in one run has its mean enclosed in m +- d: m
    the difference of the sums at its end and at a, over step, and d
    _SAFETY (1000) times tol.oracle, the estimates from a to the end and a
    rounding floor on the magnitudes summed up to the end, over step.  Each
    distinct (rhs, lhs) bounds every cell's ratio from its enclosure, and
    only a cell whose upper bound reaches the best lower bound integrates on
    its own; that mean is kept, so no cell integrates twice.  A cell with no
    finite enclosure (its a and end lie in different runs, the step is so
    small that d overflows, or F is given) has no upper bound, so the first
    ranking that can rank it integrates it.  A cell whose own integral fails
    gives no ratio; if it had a finite enclosure, its bounds may have pruned
    other cells, so after a round of rankings in which such a cell failed,
    every ranking runs again.  The factor assumes that no estimate is off by
    1000 times; the result is then the one integrating every cell gives.  It
    differs only where a cell's own integral, over its step, lies outside its
    enclosure, or where a cell never integrated on its own would fail there
    though its gap integrals succeed: that cell counts as ranked.

    A ranking whose lhs is |defect| bounds each block of _BLOCK x _BLOCK
    (9 x 9) axis indices at once.  Every rhs is nondecreasing in |f'(a)|,
    |f'(b)| and step, so no ratio of a block, nor a low end, exceeds the
    block's largest |defect| + d over the rhs at its least corner, widened by
    _WIDEN (2^-30) against an rhs a few ulps off monotone.  The corners, the
    least and largest (|f'(a)|, |f'(b)|, step) over the cells a ranking can
    rank, are taken once per scan, and a block's largest |defect| + d again
    only where an own integral has landed.  A block has no bound where a
    cell's |defect| + d is NaN or inf, or where the rhs at its least corner
    is not > 0 or the one at its largest is not finite; else each of its
    cells ranks.  A block whose rhs at its largest corner is 0 ranks no cell
    and is not visited.  The ranking visits the others by descending bound
    and counts as ranked, with no rhs call at its cells, a block whose bound
    lies below the floor and either below the best or over no own mean, or
    below the best over no cell without one; so the first ranking, whose best
    stays -inf, is bounded by its floor.  C4.2's ranking walks only the cells
    that meet its precondition, listed once per scan.  Exact ties go to the
    first cell in (a, b) order and the own integrals run in (a, b) order, so
    every result, count and error is the one a walk over every cell gives.

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

    def axis(rng, name):
        lo, hi = float(rng[0]), float(rng[1])
        if not math.isfinite(hi - lo):  # as Domain refuses: the axis would hold NaN
            raise ValueError(f"{name} width hi - lo overflows, got [{lo!r}, {hi!r}]")
        return [lo] * steps if lo == hi else spaced(lo, hi, steps)

    a_vals = axis(a_range, "a_range")
    b_vals = axis(b_range, "b_range")
    n_cells = steps * steps

    try:
        invex = not check_invex_set(K, eta, grid, tol.invexity).violated
    except EvalDomainError:  # eta fails on the samples: K is not invex for it
        invex = False
    hypothesis = _hypotheses(model, eta, K, grid, tol.invexity, [])
    overflowed = set()  # the q whose sweep overflowed, swept once
    # (rhs, lhs, reads f') -> [best ratio, its (a, b) or None, ranked cells], one
    # per distinct rhs and lhs (T4.1 at every q and C4.1 share one); lhs None: |defect|
    rankings = {}
    by_theorem = []  # (theorem, [(q, its ranking)])
    for theorem in theorems:
        row = bounds_mod.THEOREMS[theorem]
        pairs = []
        for q in row.exponents(q_list):
            try:
                usable = (model.d4sup is not None if row.mode is None else invex and
                          q not in overflowed and not hypothesis(row.mode, q).violated)
            except OverflowError:  # |f'|^q overflows on the samples
                overflowed.add(q)
                usable = False
            ranking = [-math.inf, None, 0]  # a pair that cannot rank ranks no cell
            if usable:
                key = (row.rhs_for(model.d4sup if row.mode is None else q),
                       bounds_mod._midpoint_lhs if row.midpoint else None, row.mode is not None)
                ranking = rankings.setdefault(key, ranking)
            pairs.append((q, ranking))
        by_theorem.append((theorem, pairs))

    f, df = model.f_fn, model.df_fn
    reads_df = any(uses_df for _, _, uses_df in rankings)
    df_at = {}  # |f'(x)| per axis value x, read at its first use; NaN where f' fails

    def abs_df(x):
        if x not in df_at:
            try:
                df_at[x] = abs(df(x))
            except EvalDomainError:
                df_at[x] = math.nan
        return df_at[x]

    # whether a cell's a or a + step lies in K and in the model's domain
    inside = K.contains if K == model.domain else (
        lambda x: K.contains(x) and model.domain.contains(x))

    b_inside = [K.contains(b) for b in b_vals]
    # per usable cell, in (a, b) order: its axis indices, step, end a + step, Simpson
    # sum and values, |f'(a)| (NaN where f' fails or is NaN at a or b) and |f'(b)|, its
    # mean within radius (NaN or inf with no finite enclosure, 0.0 once the mean is the
    # cell's own, NaN if that failed) and |Simpson sum - mean|; rows[i]: row i's first cell
    at_a, at_b, cell_steps, ends, sums, fas, fmids, fends, x1s, x2s, means, radii = (
        array("i"), array("i"), *(array("d") for _ in range(10)))
    rows = [0]

    def extend(i, js):
        """Extend the columns by row i's usable cells among the b indices ``js``: eta
        at each, then f as ``bounds._simpson`` calls it, then f' at a and at each b,
        so for one index in a walk's order.  A raise extends nothing."""
        a = a_vals[i]
        row_steps = [eta(b_vals[j], a) for j in js]
        usable = [(j, step) for j, step in zip(js, row_steps)
                  if step > 0.0 and b_inside[j] and inside(a + step)] if inside(a) else ()
        if usable:
            js, row_steps = map(list, zip(*usable))
            fa, row_mids, row_ends, row_sums = bounds_mod._simpson(f, a, row_steps)
            x1 = abs_df(a) if reads_df else math.nan
            x2 = [abs_df(b_vals[j]) for j in js] if x1 == x1 else [math.nan] * len(js)
            for column, values in zip(
                    (at_a, at_b, cell_steps, ends, sums, fas, fmids, fends, x1s, x2s),
                    ([i] * len(js), js, row_steps, [a + step for step in row_steps], row_sums,
                     [fa] * len(js), row_mids, row_ends, [x if x != x else x1 for x in x2], x2)):
                column.fromlist(values)  # a list: array.extend takes any iterable item by item

    for i in range(steps) if rankings else ():  # with nothing to rank, no cell is visited
        try:
            extend(i, range(steps))
        except Exception:  # replayed cell by cell: the first error in (a, b) order propagates
            for j in range(steps):
                with suppress(EvalDomainError):  # eta or f fails at the cell
                    extend(i, (j,))
        rows.append(len(sums))

    # the nodes: every usable cell's a and end a + step, ascending; none with F,
    # whose means are exact and cheap.  Per node, the run it lies in and the sums
    # from that run's first node of the gap integrals, their estimates and |values|;
    # a gap whose integral fails starts a new run at its right node
    nodes = [] if model.F_fn is not None else sorted(
        {*ends, *(a for a, lo, hi in zip(a_vals, rows, rows[1:]) if lo < hi)})
    run, total, err, size = 0, 0.0, 0.0, 0.0
    table = dict.fromkeys(nodes[:1], (run, total, err, size))
    for lo, hi in zip(nodes, nodes[1:]):
        try:
            value, error, _ = quadrature._integrate_unchecked(f, lo, hi, tol.oracle)
            total, err, size = total + value, err + error, size + abs(value)
        except (EvalDomainError, QuadratureError):
            run, total, err, size = run + 1, 0.0, 0.0, 0.0
        table[hi] = run, total, err, size
    oracle = tol.oracle
    for a, lo, hi in zip(a_vals, rows, rows[1:]):  # each row's enclosures, table[a] read once
        row_means, row_radii = [math.nan] * (hi - lo), [math.inf] * (hi - lo)  # none finite
        if table and lo < hi:
            run, total, err, _ = table[a]
            magnitude = abs(fas[lo])
            for k, step, end, fmid, fend in zip(range(hi - lo), cell_steps[lo:hi], ends[lo:hi],
                                                fmids[lo:hi], fends[lo:hi]):
                end_run, end_total, end_err, size = table[end]
                if end_run == run:
                    row_means[k] = (end_total - total) / step
                    row_radii[k] = _SAFETY * ((oracle + end_err - err + _ROUNDING * size) / step
                                              + _ROUNDING * (magnitude + abs(fmid) + abs(fend)))
        means.fromlist(row_means)
        radii.fromlist(row_radii)
    defects = array("d", list(map(abs, map(sub, sums, means))))

    # the blocks, taken at the first ranking whose lhs is |defect|: per block its
    # spans, and per whether a ranking reads |f'|, its count of cells such a
    # ranking can rank and the least and the largest (x1, x2, step) over them
    per_row = -(-steps // _BLOCK)
    blocks, corners = [], ([], [])
    # per block: the largest |defect| + radius of its cells (inf if one is NaN or
    # inf), whether one has radius > 0 and whether one has its own mean, taken
    # again in the dirty blocks, where an own integral landed since
    block_tops, dirty = {}, set()
    # per lhs other than |defect| (C4.2's), the spans of the cells it ranks: those
    # where it is not None, which do not depend on the mean
    listed = {lhs_of: [(k, k + 1) for k, values in enumerate(zip(fas, fmids, fends))
                       if lhs_of(math.nan, values) is not None]
              for _, lhs_of, _ in rankings if lhs_of is not None}

    def bounded(rhs_of, uses_df):
        """(bound, block) per block holding a cell the ranking ranks, by descending
        bound: no ratio of its cells, nor a low end, lies above it; inf for a block
        with no bound.  A block whose rhs at the largest corner is <= 0 is left out."""
        if not blocks:
            blocks[:] = _block_spans(rows, at_b, steps)
            for spans in blocks:
                span_steps = _gather(cell_steps, spans)
                corners[0].append(_box([math.nan], [math.nan], span_steps))
                if reads_df:
                    columns = _gather(x1s, spans), _gather(x2s, spans), span_steps
                    total = sum(columns[0])
                    if total != total:  # NaN: keep the cells with |f'|
                        usable = [cell for cell in zip(*columns) if cell[0] == cell[0]]
                        columns = ([cell[axis] for cell in usable] for axis in range(3))
                    corners[1].append(_box(*columns))
            dirty.update(range(len(blocks)))
        for b in dirty:
            radius = _gather(radii, blocks[b])
            top = list(map(add, _gather(defects, blocks[b]), radius))
            block_tops[b] = (max(top, default=0.0) if sum(top) < math.inf else math.inf,
                             any(radius), 0.0 in radius)
        dirty.clear()
        visits = []
        for b, (count, low, high) in enumerate(corners[uses_df]):
            if not count:
                continue
            try:
                rhs_low, rhs_high = rhs_of(*low), rhs_of(*high)
            except OverflowError:
                rhs_low = rhs_high = math.nan
            if not rhs_high <= 0.0:
                visits.append((block_tops[b][0] / rhs_low * _WIDEN
                               if rhs_low > 0.0 and rhs_high < math.inf else math.inf, b))
        visits.sort(key=itemgetter(0), reverse=True)
        return visits

    def rank():
        """Rank every ranking's cells: a cell with its own mean by its ratio, any
        other by the bounds of its ratio, and of those the ones that may be the
        best by their own means, which a cell with no finite enclosure always
        may be; whether an own integral failed, marking its cell as no ratio.
        A block counted as ranked holds no cell that can be the best, be
        integrated or raise the floor."""
        failed = False
        for (rhs_of, lhs_of, uses_df), ranking in rankings.items():  # nothing here raises
            best, at, ranked = -math.inf, None, 0
            floor = -math.inf  # the best ratio is at least this
            pending = {}  # (rhs, top ratio) per cell without its own mean that may be the best
            # (bound, block) per block, or one walk over the listed cells (block None)
            visits = bounded(rhs_of, uses_df) if lhs_of is None else [(math.inf, None)]
            for bound, b in visits:
                if b is not None and (bound < floor and (bound < best or not block_tops[b][2])
                                      or bound < best and not block_tops[b][1]):
                    ranked += corners[uses_df][b][0]
                    continue
                for lo, hi in listed[lhs_of] if b is None else blocks[b]:
                    for k, step, x1, x2, lhs, radius in zip(
                            range(lo, hi), cell_steps[lo:hi], x1s[lo:hi], x2s[lo:hi],
                            defects[lo:hi], radii[lo:hi]):
                        if lhs_of is not None:
                            lhs = lhs_of(means[k], (fas[k], fmids[k], fends[k]))
                        if uses_df and x1 != x1:  # no |f'|
                            continue
                        try:
                            rhs = rhs_of(x1, x2, step)
                        except OverflowError:  # a power beyond the float range: no ratio, as NaN
                            continue
                        if not rhs > 0.0:  # zero or NaN: no ratio to rank
                            continue
                        if radius:  # with no finite enclosure (radius NaN or inf), top is inf
                            top = (lhs + radius) / rhs if radius < math.inf else math.inf
                            if top != top:  # NaN, as below
                                continue
                            low = (lhs - radius) / rhs
                            if low > floor:
                                floor = low
                            if top >= floor and top >= best:  # else never the best
                                pending[k] = rhs, top
                        else:
                            ratio = lhs / rhs
                            if ratio != ratio:  # NaN: never a witness, as in invexity's sweeps
                                continue
                            if ratio > best or ratio == best and k < at:  # ties: the first cell
                                best = ratio
                                at = k
                        ranked += 1
            # in (a, b) order, so that the own integrals are those, in the order,
            # of a walk over every cell
            for k in sorted(pending):
                rhs, top = pending[k]
                if top < floor or top < best:  # below another cell's ratio: never the best
                    continue
                try:
                    mean = bounds_mod._mean(model, a_vals[at_a[k]], cell_steps[k], tol.oracle)[0]
                except (EvalDomainError, QuadratureError):  # marked as giving no ratio
                    mean = math.nan
                    # with a finite enclosure its bounds may have pruned other cells
                    failed = failed or radii[k] < math.inf
                means[k], radii[k], defects[k] = mean, 0.0, abs(sums[k] - mean)
                dirty.add(at_a[k] // _BLOCK * per_row + at_b[k] // _BLOCK)
                lhs = defects[k] if lhs_of is None else lhs_of(mean, (fas[k], fmids[k], fends[k]))
                ratio = lhs / rhs
                if ratio != ratio:  # NaN (a failed own integral, say): not ranked after all
                    ranked -= 1
                elif ratio > best or ratio == best and k < at:  # ties: the first cell
                    best = ratio
                    at = k
            ranking[:] = (best, None if at is None else (a_vals[at_a[at]], b_vals[at_b[at]]),
                          ranked)
        return failed

    while rank():  # a failed cell's bounds may have pruned others: rank all again
        pass

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
