"""Case pipeline, bundled corpus, tightness scans and report assembly.

A corpus case names a function model, a direction map eta, an interval
K, the exponents q and the bounds to evaluate.  ``run_case`` drives the
full pipeline:

    validate -> invex-set check -> per-(theorem, q) hypothesis checks ->
    defect + kernel-integral identity -> bound evaluation -> verdict

Verdicts: "pass" (all evaluated bounds dominate the defect),
"hypothesis_unmet" (at least one requested bound was skipped because a
sampled hypothesis failed), "violation" (a bound or the defect identity
failed beyond tolerance after quadrature-error correction) and
"input_error" (the case itself is unusable, e.g. a non-positive eta
step, eta failing on the invex-set samples, or |f'|^q beyond the float
range in a hypothesis sweep).  A violation always wins over other
verdicts when aggregating exit codes.

Reports serialize to JSON deterministically: fixed key order, no
timestamps and no wall-clock fields, so re-running identical inputs
yields identical bytes.  The document shape is pinned by
schemas/report_schema.json and re-validated on every serialization.

Case configs and reports are accepted or rejected by a small in-repo
checker of the keywords the two bundled schemas use (draft 2020-12
semantics), which also words each rejection as jsonschema does; the
program has no runtime dependency.  The case schema checks a config's
shape only; each rule on its values has one home in code, shared by every
entry point: ``_case_error`` (``_request_error`` for the q and theorem
lists) and the ``from_config`` and ``merged`` steps ``load_case`` calls.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import bounds as bounds_mod
from . import expr as expr_mod
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
    SampleGrid,
    check_invex_set,
    hypothesis_pair,
)
from .quadrature import DEFAULT_ABS_TOL, QuadratureResult
from .record import Record, factory, replace
from .reports import PropertyReport

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
    slack: a bound counts as violated only below -slack.
    invexity: sampled property checks flag excesses above this.
    identity: defect-vs-kernel-integral budget before quadrature errors.
    """

    oracle: float = DEFAULT_ABS_TOL
    slack: float = 1e-12
    invexity: float = DEFAULT_TOL
    identity: float = 1e-9

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
    return _read_schema("report_schema")


# each bundled schema, read once; the tests check it against its metaschema
_schema = lru_cache(maxsize=None)(_read_schema)


_TYPES = {
    "null": lambda x: x is None,
    "string": lambda x: isinstance(x, str),
    "number": lambda x: isinstance(x, numbers.Number) and not isinstance(x, bool),
    "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool)
                          or isinstance(x, float) and x.is_integer()),
    "array": lambda x: isinstance(x, list),
    "object": lambda x: isinstance(x, dict),
}


def _fail(path: tuple, message: str) -> Tuple[str, str]:
    return "/".join(map(str, path)) or "<root>", message


def _failure(instance, schema: dict, root: dict,
             path: tuple = ()) -> Optional[Tuple[str, str]]:
    """(JSON path, message) of the first check ``instance`` fails under
    ``schema``, else None.

    Accepts and rejects as jsonschema does (draft 2020-12) for the keywords
    the bundled schemas use, and words each rejection as jsonschema 4.26
    words that keyword; a test fails on any other keyword.  ``$ref``
    points into the root's ``$defs``.  The path is "<root>" at the top.
    """
    if "$ref" in schema:
        found = _failure(instance, root["$defs"][schema["$ref"][len("#/$defs/"):]], root, path)
        if found is not None:
            return found
    types = schema.get("type")
    if types is not None:
        types = [types] if isinstance(types, str) else types
        if not any(_TYPES[t](instance) for t in types):
            return _fail(path, f"{instance!r} is not of type {', '.join(map(repr, types))}")
    if "enum" in schema and instance not in schema["enum"]:
        return _fail(path, f"{instance!r} is not one of {schema['enum']!r}")
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
                found = _failure(value, sub, root, path + (key,))
                if found is not None:
                    return found
    elif isinstance(instance, list):
        # jsonschema's wording for minItems > 1 and maxItems > 0, the only values the schemas use
        if len(instance) < schema.get("minItems", 0):
            return _fail(path, f"{instance!r} is too short")
        if len(instance) > schema.get("maxItems", math.inf):
            return _fail(path, f"{instance!r} is too long")
        items = schema.get("items")
        if items is not None:
            for i, item in enumerate(instance):
                found = _failure(item, items, root, path + (i,))
                if found is not None:
                    return found
    elif isinstance(instance, str):
        if len(instance) < schema.get("minLength", 0):
            return _fail(path, f"{instance!r} should be non-empty" if schema["minLength"] == 1
                         else f"{instance!r} is too short")
    elif _TYPES["number"](instance):  # NaN passes, as in jsonschema
        if "minimum" in schema and instance < schema["minimum"]:
            return _fail(path, f"{instance!r} is less than the minimum of {schema['minimum']!r}")
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
    schema = _schema("case_schema")
    found = _failure(config, schema, schema)
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
    appends to ``swept``: a sweep that raised OverflowError raises it again at
    each later lookup."""
    sweeps: Dict[float, Union[Tuple[PropertyReport, PropertyReport], OverflowError]] = {}

    def lookup(mode: str, q: float) -> PropertyReport:
        if q not in sweeps:
            try:
                sweeps[q] = hypothesis_pair(model, eta, K, q, grid, tol)
            except OverflowError as exc:
                sweeps[q] = exc
            else:
                swept.extend(sweeps[q])
        if isinstance(sweeps[q], OverflowError):
            raise sweeps[q]
        pre, quasi = sweeps[q]
        return pre if mode == "preinvex" else quasi

    return lookup


def _fmt(x: float) -> str:
    return repr(float(x))


def _csv_cell(x) -> str:
    """A CSV field: empty for None, repr for a float, str otherwise."""
    return "" if x is None else repr(x) if isinstance(x, float) else str(x)


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
                if q > 1.0 and not hypothesis(row.mode, 1.0).violated:
                    result.notes.append(
                        f"note: |f'| is {row.mode} at q=1 but |f'|^q fails at q={q:g}")
                continue
            k = model.d4sup if row.mode is None else q
            try:
                result.bounds.append(
                    bounds_mod._bound(theorem, model, case.a, case.b, step, k, defect))
            except PreconditionUnmet as exc:
                skipped = True
                result.notes.append(f"skipped {theorem}: {exc}")
            except EvalDomainError as exc:  # f'(b): the sweeps and the path may miss b
                return _input_error(
                    result, f"EvalDomainError: {theorem} needs |f'(a)| and |f'(b)|: {exc}")

    _check_golden(_golden(case.expected), result)
    slack_violation = any(
        bv.slack is not None and bv.slack < -tol.slack for bv in result.bounds)
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
        doc, schema = self.to_dict(), _schema("report_schema")
        found = _failure(doc, schema, schema)
        if found is not None:
            raise ValueError("report invalid at %s: %s" % found)
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        lines = ["case,verdict,theorem,q,p,rhs,slack,defect,quadrature_error,identity_residual"]
        for r in self.results:
            d = r.defect
            common = [r.name, r.verdict]
            tail = [_csv_cell(d.defect if d else None),
                    _csv_cell(d.quadrature_error if d else None),
                    _csv_cell(r.identity_residual)]
            if r.bounds:
                for bv in r.bounds:
                    cells = [_csv_cell(x) for x in (bv.q, bv.p, bv.rhs, bv.slack)]
                    lines.append(",".join(common + [bv.theorem] + cells + tail))
            else:
                lines.append(",".join(common + ["", "", "", "", ""] + tail))
        return "\n".join(lines) + "\n"


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


class _ScanPair:
    """One (theorem, q) of a scan, and its best cell so far."""

    __slots__ = ("theorem", "q", "uses_df", "lhs", "rhs", "skipped", "ratio", "at")

    def __init__(self, theorem: str, q: Optional[float], row: bounds_mod.Theorem):
        self.theorem = theorem
        self.q = q
        self.uses_df = row.mode is not None
        self.lhs = None if row.lhs is bounds_mod._defect_lhs else row.lhs  # None: |defect|
        self.rhs = None  # rhs(x1, x2, step), prepared once the pair is active
        self.skipped = 0
        self.ratio = -math.inf
        self.at = None  # (a, b) of the best ratio; None while no cell counted


def tightness_scan(model: bounds_mod.FunctionModel, eta: EtaMap, K: Domain,
                   a_range: Tuple[float, float], b_range: Tuple[float, float],
                   q_list: Sequence[float], steps: int,
                   theorems: Sequence[str] = THEOREM_IDS,
                   tolerances: Tolerances = DEFAULT_TOLERANCES,
                   grid: SampleGrid = DEFAULT_GRID) -> List[TightnessResult]:
    """Maximise |defect| / rhs per theorem over an (a, b, q) grid.

    Cells with a non-positive step, a path leaving K, a zero or NaN rhs
    or a NaN ratio are skipped, and so is every cell of a q whose sampled
    hypothesis fails or overflows, and of every theorem with a hypothesis
    when K is not invex for eta (or eta fails on its samples); a theorem
    with no usable cell is reported with status "all_skipped".  Ties keep
    the first cell in (q, a, b) order, so results are deterministic.

    Row by row: one pass over a row's b values takes each usable cell's step,
    defect and |defect| once, then each (theorem, q) pair ranks the row in one
    loop, its lhs and rhs from its ``bounds.THEOREMS`` row as in ``run_case``
    (C4.2's lhs is None off its precondition: a skipped cell).  Pairs with the
    same rhs and lhs functions (T4.1 at each q and C4.1) rank alike, so where
    no cell of the row has raised, a later one copies the first's outcome.
    K.contains and |f'| (at first use) are taken once per axis value, and each
    rhs is prepared for its q once per pair.  Without F, each cell's integral
    runs in f's inlined Simpson loop (``expr.simpson_loop``, built once and kept on f), and in
    the generic loop from scratch where that gives None, so every value and
    error is the generic loop's.  Of the errors cells raise, the first in (a, b,
    pair) order propagates, as if each cell served every pair in turn.  ValueError,
    before any sweep, for steps < 2 or a request ``_request_error``
    rejects: an empty q or theorem list, a q that is not finite or is
    below 1, an unknown theorem id, or a theorem id or q listed twice.
    """
    if steps < 2:
        raise ValueError("steps must be at least 2")
    error = _request_error(q_list, theorems)
    if error is not None:
        raise ValueError(error[1])
    tol = tolerances

    def axis(rng):
        lo, hi = float(rng[0]), float(rng[1])
        if lo == hi:
            return [lo] * steps
        return [lo + i * (hi - lo) / (steps - 1) for i in range(steps)]

    a_vals = axis(a_range)
    b_vals = axis(b_range)
    n_cells = steps * steps

    try:
        invex = not check_invex_set(K, eta, grid, tol.invexity).violated
    except EvalDomainError:  # eta fails on the samples: K is not invex for it
        invex = False
    hypothesis = _hypotheses(model, eta, K, grid, tol.invexity, [])
    by_theorem = []
    active = []
    for theorem in theorems:
        row = bounds_mod.THEOREMS[theorem]
        pairs = [_ScanPair(theorem, q, row) for q in row.exponents(q_list)]
        by_theorem.append((theorem, pairs))
        for pair in pairs:
            try:
                usable = (model.d4sup is not None if row.mode is None else
                          invex and not hypothesis(row.mode, pair.q).violated)
            except OverflowError:  # |f'|^q overflows on the samples
                usable = False
            if usable:
                pair.rhs = row.rhs_for(model.d4sup if row.mode is None else pair.q)
                active.append(pair)
            else:
                pair.skipped = n_cells

    df = model.df_fn
    reads_df = any(pair.uses_df for pair in active)
    df_at = {}  # |f'(x)| per axis value x, read at its first use; None where f' fails

    def abs_df(x):
        if x not in df_at:
            try:
                df_at[x] = abs(df(x))
            except EvalDomainError:
                df_at[x] = None
        return df_at[x]

    # f's inlined Simpson loop, built once the scan has cells to integrate
    loop = expr_mod.simpson_loop(model.f_fn) if active and model.F_fn is None else None
    on_domain = K == model.domain  # else the path must also lie in the model's domain
    b_inside = [K.contains(b) for b in b_vals]
    unusable = 0  # cells every active pair skips: no step, path or defect
    for a in a_vals if active else ():  # with no active pair, no cell is visited
        a_inside = K.contains(a) and (on_domain or model.domain.contains(a))
        row = []  # (b, step, defect, |defect|, mean, f values, |f'(a)|, |f'(b)|) per usable cell
        stop = raised = None  # row[stop] raised this, the first error in (b, pair) order
        try:
            for j, b in enumerate(b_vals):
                try:
                    step = eta(b, a)
                except EvalDomainError:
                    unusable += 1
                    continue
                if not (step > 0.0 and a_inside and b_inside[j] and K.contains(a + step)
                        and (on_domain or model.domain.contains(a + step))):
                    unusable += 1
                    continue
                try:
                    values, simpson_value, mean, _, _ = bounds_mod._defect(model, a, step,
                                                                           tol.oracle, loop)
                except (EvalDomainError, QuadratureError):
                    unusable += 1
                    continue
                x1 = x2 = None  # |f'(a)|, |f'(b)|; None where f' fails
                if reads_df and abs_df(a) is not None and abs_df(b) is not None:
                    x1, x2 = df_at[a], df_at[b]
                defect = simpson_value - mean
                row.append((b, step, defect, abs(defect), mean, values, x1, x2))
        except Exception as exc:  # raised once the row's earlier cells are ranked
            stop, raised = len(row), exc
        ranked = {}  # (rhs, lhs) -> the pair that ranked the row, while none raised
        for pair in active:  # each pair ranks the row in one loop
            theorem, uses_df, lhs_of, rhs_of = pair.theorem, pair.uses_df, pair.lhs, pair.rhs
            same = ranked.get((rhs_of, lhs_of)) if raised is None else None
            if same is not None:  # ranked the same cells alike so far: the same outcome
                pair.ratio, pair.at, pair.skipped = same.ratio, same.at, same.skipped
                continue
            best, at, skipped = pair.ratio, pair.at, pair.skipped
            cells = row[:stop]
            try:
                for cell in cells:
                    b, step, defect, abs_defect, mean, values, x1, x2 = cell
                    lhs = abs_defect if lhs_of is None else lhs_of(defect, mean, values)
                    if lhs is None or uses_df and x1 is None:  # C4.2 unmet, or no |f'|
                        skipped += 1
                        continue
                    rhs = rhs_of(x1, x2, step)
                    if rhs < 0.0:  # what BoundValue raises
                        raise ValueError(f"bound {theorem} produced negative rhs {rhs!r}")
                    if not rhs > 0.0:  # zero or NaN: no ratio to rank
                        skipped += 1
                        continue
                    ratio = lhs / rhs
                    if ratio > best:
                        best = ratio
                        at = (a, b)
                    elif ratio != ratio:  # NaN: never a witness, as in invexity's sweeps
                        skipped += 1
            except Exception as exc:  # later pairs rank only the cells before this one
                stop, raised = cells.index(cell), exc
            pair.ratio, pair.at, pair.skipped = best, at, skipped
            if raised is None:
                ranked[rhs_of, lhs_of] = pair
        if raised is not None:
            raise raised
    for pair in active:
        pair.skipped += unusable

    out = []
    for theorem, pairs in by_theorem:
        best = None
        for pair in pairs:  # q order: the first of equal ratios wins
            if pair.at is not None and (best is None or pair.ratio > best.ratio):
                best = pair
        cells = n_cells * len(pairs)
        skipped = sum(pair.skipped for pair in pairs)
        if best is None:
            out.append(TightnessResult(theorem, "all_skipped", None, None, None, None,
                                       cells, skipped))
        else:
            out.append(TightnessResult(theorem, "ok", best.ratio, *best.at, best.q,
                                       cells, skipped))
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
