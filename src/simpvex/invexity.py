"""Sampled checks for invex sets and generalised convexity.

A direction map eta(v, u) generalises the straight-line displacement
v - u.  An interval K is invex for eta when u + t*eta(v, u) stays in K
for all u, v in K and t in [0, 1]; g is preinvex when

    g(u + t*eta(v, u)) <= (1 - t) g(u) + t g(v)

and prequasiinvex when the right side is replaced by max(g(u), g(v)).
With eta(v, u) = v - u these reduce to ordinary convexity and
quasiconvexity.

Every sampled check lives here, the derivative gate ``check_derivative``
too, each giving a ``PropertyReport`` by one rule, ``_report``; ``spaced``
spaces every grid (a plan's u, v and t values, the gate's points, the
scan's axes).  The other checks sample one stream: a
deterministic grid over K x K x [0, 1] and then a fixed-seed uniform
layer.  Verdicts are therefore "verified_on_samples", never proofs.  The
reported worst violation is the exact maximum over the samples, with ties
broken by lexicographic (u, v, t) order, so re-running a check
reproduces it bit for bit.  Ties are broken by order: the random layer is
sorted and the grid ascends in (u, v, t), so in each of the two, one pass
apiece, the first largest excess is at the smallest witness (grid rows
that rounding merges hold the same samples).  The invex-set check reads
the two ends of each grid row, t = 0 and t = 1, where its path points
are least and largest; it reads a whole row only for the row that wins
and for a row whose ends give NaN.  The seeded draws on [0, 1) are
sorted once per (seed, count) and every plan maps them onto its K,
sorting again only where rounding merges two u values.  eta and f' run
in sorted order within the random layer, so an f' failure that only
random triples reach is raised at the first of them in sorted order.

Every check is a view of one ``SamplePlan`` per (K, eta, grid): one
array, ``points``, of every point a sweep reads g at (the grid's u and v
values, its path points from ``x_at``, then u, v and x of each random
triple from ``at``), and the random triples' u, v and t, with eta called
once per grid (u, v) pair and once per random triple.  The last plan is
kept, so a case's invex-set check and its hypothesis checks at every q
share one plan, as do consecutive cases on the same K and built-in eta.
The plan keeps its samples and the values of the last |f'| swept over
it, which its one value pass, ``SamplePlan.values``, evaluates once per
sample point, in stream order; each invex-set report is computed from
the plan for the K it is asked about.  ``check_pair``
evaluates a plain g at every sample point, outside that memo.  |f'| of a
compiled expression runs in its batch form, one list comprehension per
slice of points rather than one call per point; any other callable, or
one whose batch form raises, runs point by point in one pass that stops
at its first failing point.  Each q is one pass over the
kept values: the nv*nt values of |f'|^q at the path points of one grid u
value, raised in the comprehension that lists them, feed both sweeps;
then the random layer's are read once through an iterator.  So no array
of every point's |f'|^q is built.  A grid u value whose values at u and
at its path points have the bits of the last u value swept takes that
value's tops and is neither raised nor swept (a float compare of g(u)
with the previous u value's screens it first), so a constant |f'| is
swept at one u value.  The arithmetic is the per-sample formula's, so
verdicts, worst violations and witnesses are unchanged.
max(x, y) is written ``y if y > x else x`` (min with <), the builtin's
own rule, so NaN, -0.0 and ties come out the same, without a call per
sample.
"""

from __future__ import annotations

import math
import random
from array import array
from functools import lru_cache
from itertools import repeat
from operator import add, lt, sub
from typing import Callable, List, Optional, Sequence, Tuple

from . import expr as expr_mod
from .record import Record

__all__ = [
    "Domain",
    "SampleGrid",
    "DEFAULT_GRID",
    "DEFAULT_TOL",
    "EtaMap",
    "PropertyReport",
    "check_derivative",
    "check_invex_set",
    "check_pair",
    "hypothesis_pair",
    "preinvex_excess",
    "spaced",
]

DEFAULT_TOL = 1e-12
_RANDOM_SEED = 170167
VERIFIED = "verified_on_samples"
VIOLATED = "violated"


class PropertyReport(Record):
    """Outcome of a sampled check of a pointwise property.

    property is one of "invex_set", "preinvex", "prequasiinvex" or
    "derivative".  worst_violation is the maximum signed excess seen over
    all samples; it exceeds the tolerance used for the check exactly when
    verdict == "violated", in which case witness holds the sample that
    attained it.  A "verified_on_samples" verdict never claims a proof,
    only that every sample stayed within tolerance.
    """

    property: str
    verdict: str
    worst_violation: float
    witness: Optional[Tuple[float, ...]]
    samples: int
    exponent_q: Optional[float] = None

    def __post_init__(self):
        if self.verdict not in (VERIFIED, VIOLATED):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict == VIOLATED and self.witness is None:
            raise ValueError("violated verdict requires a witness")

    @property
    def violated(self) -> bool:
        return self.verdict == VIOLATED

    def to_dict(self) -> dict:
        return {
            "property": self.property,
            "exponent_q": self.exponent_q,
            "verdict": self.verdict,
            "worst_violation": self.worst_violation,
            "witness": list(self.witness) if self.witness is not None else None,
            "samples": self.samples,
        }


def spaced(lo: float, hi: float, n: int) -> List[float]:
    """n equally spaced points from lo to hi: lo + i * (hi - lo) / (n - 1) for i < n, or
    lo + i / (n - 1) * (hi - lo) where i * (hi - lo) overflows, or (1 - s) * lo + s * hi
    with s = i / (n - 1) where hi - lo does, so none is infinite; [lo] for n = 1, as
    numpy.linspace gives."""
    span, gaps = hi - lo, n - 1
    if not gaps:
        return [lo]
    if not math.isfinite(span):
        return [(1.0 - i / gaps) * lo + i / gaps * hi for i in range(n)]
    return [lo + (w / gaps if math.isfinite(w := i * span) else i / gaps * span)
            for i in range(n)]


class Domain(Record):
    """Closed interval [lo, hi] with lo < hi."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise ValueError(f"domain needs lo < hi, got [{self.lo!r}, {self.hi!r}]")
        if not math.isfinite(self.hi - self.lo):
            raise ValueError(f"domain width hi - lo overflows, got [{self.lo!r}, {self.hi!r}]")

    def contains(self, x: float) -> bool:
        """Whether x lies in [lo, hi], widened by DEFAULT_TOL at each end."""
        return self.lo - DEFAULT_TOL <= x <= self.hi + DEFAULT_TOL


class SampleGrid(Record):
    """Sampling plan: nu x nv x nt grid plus a seeded uniform layer."""

    nu: int = 41
    nv: int = 41
    nt: int = 21
    random_triples: int = 2000
    seed: int = _RANDOM_SEED

    def __post_init__(self):
        if min(self.nu, self.nv, self.nt) < 2 or self.random_triples < 0:
            raise ValueError(
                f"sample grid needs nu, nv, nt >= 2 and random_triples >= 0, got "
                f"nu={self.nu!r}, nv={self.nv!r}, nt={self.nt!r}, "
                f"random_triples={self.random_triples!r}")


DEFAULT_GRID = SampleGrid()


class EtaMap:
    """Direction map eta(v, u), callable with signature (v, u) -> float.

    Built-in kinds:
      * "difference":  eta(v, u) = v - u
      * "abs_example": v - u when u, v share a sign (zero counts as
        both), u - v otherwise; the map under which -|u| is preinvex
      * "expression":  any parsed expression over the variables {v, u}

    ``difference()`` and ``abs_example()`` each return one shared value.
    """

    def __init__(self, fn: Callable[[float, float], float], name: str):
        self.name = name
        self._fn = fn

    def __call__(self, v: float, u: float) -> float:
        return self._fn(v, u)

    def __repr__(self):
        return f"EtaMap({self.name!r})"

    @classmethod
    def difference(cls) -> "EtaMap":
        return _DIFFERENCE

    @classmethod
    def abs_example(cls) -> "EtaMap":
        return _ABS_EXAMPLE

    @classmethod
    def from_expression(cls, source: str) -> "EtaMap":
        tree = expr_mod.parse(source, {"v", "u"})
        fn = expr_mod.compile_expr(tree, ("v", "u"))
        return cls(fn, source)

    @classmethod
    def from_config(cls, cfg: dict) -> "EtaMap":
        kind = cfg.get("kind")
        if kind in ("difference", "abs_example") and "value" in cfg:
            raise ValueError(f"eta kind {kind!r} takes no 'value'")
        if kind == "difference":
            return cls.difference()
        if kind == "abs_example":
            return cls.abs_example()
        if kind == "expression":
            value = cfg.get("value")
            if not isinstance(value, str):
                raise ValueError("expression eta needs a string 'value'")
            return cls.from_expression(value)
        raise ValueError(f"unknown eta kind {kind!r}")


def _abs_example(v: float, u: float) -> float:
    if (v <= 0.0 and u <= 0.0) or (v >= 0.0 and u >= 0.0):
        return v - u
    return u - v


_DIFFERENCE = EtaMap(sub, "difference")
_ABS_EXAMPLE = EtaMap(_abs_example, "abs_example")


_Found = Tuple[float, Optional[Tuple[float, float, float]]]  # (excess, witness)


def _first_worst(tops: List[float], row: Callable[[int], Sequence[float]],
                 witness: Callable[[int, int], Tuple[float, float, float]]) -> Optional[_Found]:
    """The first largest excess of rows of samples, with its witness.

    row(j)[k] is the excess at witness(j, k).  The witnesses ascend in
    (j, k), rows with equal witnesses holding equal excesses, so the first
    largest excess is at the smallest witness, the earliest of equal ones.  tops[j] is the largest non-NaN excess of
    row(j), or NaN.  A NaN excess never wins; None if none beats -inf.
    """
    total = sum(tops)
    if total != total:  # a NaN top (or tops holding inf and -inf)
        tops = [t if t == t else max([e for e in row(j) if e == e], default=-math.inf)
                for j, t in enumerate(tops)]
    top = max(tops, default=-math.inf)
    if top == -math.inf:
        return None
    j = tops.index(top)
    excesses = row(j)
    k = excesses.index(top)
    return excesses[k], witness(j, k)


@lru_cache(maxsize=None)
def _unit_draws(seed: int, count: int) -> Tuple[array, array, array]:
    """The seeded (u, v, t) draws on [0, 1), sorted: shared, read only, by
    every plan of (seed, count)."""
    draw = random.Random(seed).random
    triples = sorted((draw(), draw(), draw()) for _ in range(count))
    return tuple(array("d", [triple[i] for triple in triples]) for i in range(3))


_CHUNK = 2048  # points per batch-form slice: few slices, none near a plan's size


class SamplePlan:
    """The sample stream of one (K, eta, grid), with its path points.

    Stream order: the nu x nv x nt grid (u, then v, then t), then the
    sorted seeded random triples.  ``points`` holds every point a sweep
    reads g at, in the order of ``values``: the grid's u values, its v
    values, its path points (from ``x_at``), then u, v and x of each
    random triple (from ``at``); ``ru``, ``rv`` and ``rt`` are the
    triples' u, v and t.  eta is called once per grid (u, v) pair and
    once per random triple.  Every sampled check is a sweep of ``worst``
    over one plan.  The plan keeps the values of the last |f'| swept over
    it.
    """

    def __init__(self, K: Domain, eta: EtaMap, grid: SampleGrid):
        self.us = spaced(K.lo, K.hi, grid.nu)
        self.vs = spaced(K.lo, K.hi, grid.nv)
        self.ts = spaced(0.0, 1.0, grid.nt)
        self.points = array("d", self.us + self.vs)
        self.x_at = len(self.points)
        for u in self.us:
            self.points.fromlist([u + t * step for step in [eta(v, u) for v in self.vs]
                                  for t in self.ts])
        self.at = len(self.points)
        lo, span = K.lo, K.hi - K.lo
        ru, rv, self.rt = _unit_draws(grid.seed, grid.random_triples)  # rt: shared, read only
        self.ru, self.rv = (array("d", [lo + span * r for r in draws]) for draws in (ru, rv))
        if not all(map(lt, self.ru, self.ru[1:])):  # rounding merged two u values
            self.ru, self.rv, self.rt = (array("d", column) for column in
                                         zip(*sorted(zip(self.ru, self.rv, self.rt))))
        x = array("d", [u + t * eta(v, u) for u, v, t in zip(self.ru, self.rv, self.rt)])
        layer = array("d", bytes(24 * len(x)))  # u, v and x of each triple in turn
        layer[::3], layer[1::3], layer[2::3] = self.ru, self.rv, x
        self.points += layer
        self.samples = self.at - self.x_at + len(self.rt)
        self._memo = (None, None)

    def values(self, fn: Callable[[float], float], q: float = 1.0) -> array:
        """abs(fn) at ``points``, called in that order.

        The values of the last fn are kept, so fn must be pure; a pass that
        raises keeps nothing.  For a compiled expression this runs in its
        batch form, one frame per slice of _CHUNK points.  If that raises,
        or for any other fn, one pass calls fn point by point and stops at
        the first failing point with its own error: a point fails where fn
        raises or, at q != 1, where |fn|^q overflows (OverflowError).
        """
        memo_fn, values = self._memo
        if memo_fn is fn:
            return values
        batch, points, values = expr_mod.abs_batch(fn), self.points, array("d")
        try:
            for i in range(0, len(points), _CHUNK) if batch else ():
                values.fromlist(batch(points[i:i + _CHUNK]))
        except Exception:
            batch = None
        if batch is None:  # outside the except block, so nothing chains
            values = array("d")
            for x in points:
                v = abs(fn(x))
                v ** q  # v ** 1.0 never raises; at other q, an overflow fails the point
                values.append(v)
        self._memo = (fn, values)
        return values

    def worst(self, tops: List[float], row: Callable[[int], Sequence[float]],
              excesses: List[float]) -> _Found:
        """(excess, witness) of the worst sample of the stream.

        ``tops`` and ``row`` cover the grid's nu*nv rows as _first_worst
        takes them: row(i*nv + j)[k] is the excess at (us[i], vs[j], ts[k]).
        ``excesses`` holds the random layer's, one per triple.  The
        largest excess wins, then the smallest witness, then the earliest;
        (-inf, None) if none beats -inf.
        """
        us, vs, ts, nv = self.us, self.vs, self.ts, len(self.vs)
        found = (_first_worst(tops, row, lambda j, k: (us[j // nv], vs[j % nv], ts[k])),
                 _first_worst(excesses, lambda j: (excesses[j],),
                              lambda j, k: (self.ru[j], self.rv[j], self.rt[j])))
        return min(filter(None, found), key=lambda f: (-f[0], f[1]), default=(-math.inf, None))


# the last plan is kept, so a case's checks at every q share one
_plan = lru_cache(maxsize=1)(SamplePlan)


def _report(prop: str, worst: _Found, samples: int, tol: float,
            q: Optional[float] = None) -> PropertyReport:
    excess, witness = worst
    if excess > tol:
        return PropertyReport(prop, VIOLATED, excess, witness, samples, q)
    return PropertyReport(prop, VERIFIED, excess, None, samples, q)


def check_derivative(f_fn: Callable, df_fn: Callable, interval: Tuple[float, float],
                     points: int = 11, tol: float = 1e-4) -> PropertyReport:
    """Cross-check ``df_fn`` against central finite differences of ``f_fn``.

    Both take one float, as a ``FunctionModel``'s compiled f and df do;
    this compiles nothing.  Samples ``points`` equispaced interior points
    of ``interval`` and compares df(x) with (f(x+h) - f(x-h)) / (2h),
    h = max(1e-6, 1e-6|x|).
    The mismatch is measured relative to max(1, |df(x)|, |fd|), which
    keeps the gate meaningful where the derivative passes through zero.
    A NaN mismatch counts as an infinite one, so it fails the gate.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError("interval must satisfy lo < hi")
    if points < 3:
        raise ValueError("need at least 3 sample points")
    worst = (-math.inf, None)
    for x in spaced(lo, hi, points + 2)[1:-1]:
        h = max(1e-6, 1e-6 * abs(x))
        fd = (f_fn(x + h) - f_fn(x - h)) / (2.0 * h)
        want = df_fn(x)
        mismatch = abs(want - fd) / max(1.0, abs(want), abs(fd))
        if mismatch != mismatch:
            mismatch = math.inf
        if mismatch > worst[0]:
            worst = (mismatch, (x, want, fd))
    return _report("derivative", worst, points, tol)


def check_invex_set(K: Domain, eta: EtaMap, grid: SampleGrid = DEFAULT_GRID,
                    tol: float = DEFAULT_TOL) -> PropertyReport:
    """Check that u + t*eta(v, u) stays in K on all samples.

    The violation measure is the distance by which the path point leaves
    K (negative when inside).  The samples are those of the kept plan;
    the report is computed for this K and tol on every call.
    """
    plan = _plan(K, eta, grid)
    lo, hi = K.lo, K.hi
    nt, grid_x = len(plan.ts), memoryview(plan.points)[plan.x_at:plan.at]

    def excess(xs):  # max(lo - x, x - hi) per point
        return [b if (b := x - hi) > (a := lo - x) else a for x in xs]

    # rounding is monotone, so a row's least and largest x are its ends (t = 0, 1); a NaN x
    # is at t = 0 (step +-inf) or everywhere, so min/max of (t = 0, t = 1) match the row's
    tops = [b if (b := (y if y > x else x) - hi) > (a := lo - (y if y < x else x)) else a
            for x, y in zip(grid_x[::nt], grid_x[nt - 1::nt])]
    worst = plan.worst(tops, lambda j: excess(grid_x[j * nt:(j + 1) * nt]),
                       excess(memoryview(plan.points)[plan.at + 2::3]))
    return _report("invex_set", worst, plan.samples, tol)


def _pair(plan: SamplePlan, h: array, tol: float,
          q: Optional[float]) -> Tuple[PropertyReport, PropertyReport]:
    """The preinvex and the prequasiinvex report of g = h^q on ``plan`` (g = h if q is None or 1).

    One pass reads each value of h once, in stream order: g at the u
    and v values, then g at the nv*nt path points of each grid u value
    as one list, then the random layer's triples.  Both sweeps take
    their excesses, g(x) - ((1 - t) g(u) + t g(v)) and
    g(x) - max(g(u), g(v)), from that read.  The nt samples of a grid
    (u, v) row that wins, or whose top is NaN, are read again.  A u
    value whose g(u) equals the previous one's, and whose bits of h at u
    and at its path points are those of the u value last swept, takes
    that value's nv tops: equal bits give equal tops.  A NaN g(u) is
    always swept.
    """
    mv, nu, nv, nt, x_at = memoryview(h), len(plan.us), len(plan.vs), len(plan.ts), plan.x_at
    raised = q is not None and q != 1.0

    def values(i, j):  # g at the points of h[i:j]; v ** q is pow's own float_pow
        return [v ** q for v in mv[i:j]] if raised else mv[i:j].tolist()

    gus, gvs = values(0, nu), values(nu, x_at)
    ts, omts, width = plan.ts, [1.0 - t for t in plan.ts], nv * nt
    tgvs = [t * gv for gv in gvs for t in ts]  # t g(v) at the nv*nt samples of any u value
    pre_tops, quasi_tops, last = [], [], 0  # last: the u value last swept
    for i, gu in enumerate(gus):
        at, was = x_at + i * width, x_at + last * width
        # h's bits at u and its path points as at the u value last swept: its tops are too
        if i and gu == gus[i - 1] and mv[i:i + 1].tobytes() == mv[last:last + 1].tobytes() and (
                mv[at:at + width].tobytes() == mv[was:was + width].tobytes()):
            pre_tops += pre_tops[-nv:]
            quasi_tops += quasi_tops[-nv:]
            continue
        last = i
        gxs = values(at, at + width)
        omtgus = [a * gu for a in omts] * nv  # (1 - t) g(u)
        pre_tops += map(max, zip(*[map(sub, gxs, map(add, omtgus, tgvs))] * nt))
        # rounding is monotone, so a row's largest excess is its largest g(x) less its high
        quasi_tops += map(sub, map(max, zip(*[iter(gxs)] * nt)),
                          [gv if gv > gu else gu for gv in gvs])
    del tgvs, gxs, omtgus  # one u value's lists live at a time, none beside the layer's

    def pre_row(j):  # the same arithmetic, for the samples of grid row j alone
        gu, gv = gus[j // nv], gvs[j % nv]
        return [gx - (a * gu + t * gv)
                for gx, a, t in zip(values(x_at + j * nt, x_at + (j + 1) * nt), omts, ts)]

    def quasi_row(j):
        gu, gv = gus[j // nv], gvs[j % nv]
        high = gv if gv > gu else gu
        return [gx - high for gx in values(x_at + j * nt, x_at + (j + 1) * nt)]

    it = iter(mv[plan.at:])
    if raised:
        it = map(pow, it, repeat(q))
    pre, quasi = [], []
    for gu, gv, gx, t in zip(it, it, it, plan.rt):
        pre.append(gx - ((1.0 - t) * gu + t * gv))
        quasi.append(gx - (gv if gv > gu else gu))
    return (_report("preinvex", plan.worst(pre_tops, pre_row, pre), plan.samples, tol, q),
            _report("prequasiinvex", plan.worst(quasi_tops, quasi_row, quasi), plan.samples,
                    tol, q))


def preinvex_excess(fn: Callable[[float], float], eta: EtaMap,
                    sample: Tuple[float, float, float], q: float) -> float:
    """g(x) - ((1 - t) g(u) + t g(v)) for g = |fn|^q at one plan sample (u, v, t),
    x = u + t*eta(v, u): what a preinvex sweep of |fn|^q reads there, by the
    same arithmetic.  OverflowError where |fn|^q leaves the float range at u,
    v or x."""
    u, v, t = sample
    gu, gv, gx = (abs(fn(y)) ** q for y in (u, v, u + t * eta(v, u)))
    return gx - ((1.0 - t) * gu + t * gv)


def check_pair(g: Callable[[float], float], eta: EtaMap, K: Domain,
               grid: SampleGrid = DEFAULT_GRID,
               tol: float = DEFAULT_TOL) -> Tuple[PropertyReport, PropertyReport]:
    """Sampled preinvexity and prequasiinvexity checks of ``g`` on K, from one set of values.

    Assumes K is invex for ``eta`` (run check_invex_set first); ``g``
    must be defined wherever the sampled paths land.
    """
    plan = _plan(K, eta, grid)
    return _pair(plan, array("d", map(g, plan.points)), tol, None)


def hypothesis_pair(model, eta: EtaMap, K: Domain, q: float,
                    grid: SampleGrid = DEFAULT_GRID,
                    tol: float = DEFAULT_TOL) -> Tuple[PropertyReport, PropertyReport]:
    """Check |f'|^q for preinvexity and for prequasiinvexity on K, from one set of values.

    ``model`` is any object exposing a compiled derivative ``df_fn``;
    the absolute value is applied before the exponent.  The excesses are
    absolute, so an |f'|^q that underflows to 0.0 at every sample is checked
    on zeros and passes.
    """
    if not 1.0 <= q < math.inf:
        raise ValueError(f"exponent q must be finite and >= 1, got {q!r}")
    plan = _plan(K, eta, grid)
    return _pair(plan, plan.values(model.df_fn, q), tol, q)
