"""Workload inputs: the bundled corpus, generated cases and scan models.

Every generated input is a plain case-config dict in the corpus format
(see src/simpvex/schemas/case_schema.json), so the program receives only
generated inputs and the benchmark never reaches into its internals to
build them.  Draws are made from ``random.Random`` seeded by the caller;
no draw is ever dropped, re-seeded or resized because the program fails
on it, so crashes show up in the failure count.  Which draws crash is
known in advance: power laws drawn in the crash stratum (see
``_smooth_model``) have a derivative that is undefined at 0, inside K,
and the program raises on them.  The benchmark counts a crash on any
other input, or a crash stratum draw that completes, as an output
mismatch.
"""

from __future__ import annotations

import json
import math
import random

# Families the bundled corpus already uses.  Generated case i takes
# family FAMILIES[i % len(FAMILIES)], so every batch has the same mix and
# throughput does not drift with the seed.
FAMILIES = ("poly", "exp", "log", "power", "sin", "abs", "eta_expr")

ALL_THEOREMS = ("T3.1", "T3.2", "T3.3", "T3.4", "T4.1", "T4.2", "T4.3", "C4.1")
SCAN_Q = (1.0, 1.5, 2.0, 3.0)
SCAN_STEPS = 81
# the scan pool is fixed, so its results can be checked against digests
SCAN_POOL_SEED = 20130315
# one model per family, all in the crash stratum
SCAN_POOL_SIZE = len(FAMILIES)
# the stratum whose power-law draws have df undefined at a point of K
CRASH_STRATUM = 0


def _num(x: float) -> str:
    """A literal the expression parser accepts (it has no signed numbers)."""
    text = repr(float(x))
    return f"({text})" if x < 0 else text


def _interval(rng: random.Random, lo: float, span_lo: float, span_hi: float):
    hi = lo + round(rng.uniform(span_lo, span_hi), 3)
    span = hi - lo
    a = lo + round(rng.uniform(0.0, 0.4) * span, 3)
    b = hi - round(rng.uniform(0.0, 0.4) * span, 3)
    return [lo, hi], a, b


def _smooth_model(rng: random.Random, family: str, stratum: int) -> dict:
    """f, df, F and d4sup for one draw of a smooth family, plus K, a, b."""
    if family == "poly":
        n = rng.randint(2, 5)
        c = round(rng.uniform(0.5, 2.0), 3)
        d = round(rng.uniform(-1.0, 1.0), 3)
        K, a, b = _interval(rng, round(rng.uniform(-1.0, 1.0), 3), 0.5, 3.0)
        reach = max(abs(K[0]), abs(K[1]))
        d4 = c * math.perm(n, 4) * reach ** (n - 4) if n >= 4 else 0.0
        return dict(f=f"{_num(c)}*x^{n}+{_num(d)}", df=f"{_num(c * n)}*x^{n - 1}",
                    F=f"{_num(c / (n + 1))}*x^{n + 1}+{_num(d)}*x", d4sup=d4,
                    K=K, a=a, b=b)
    if family == "exp":
        k = round(rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 2.0), 3)
        c = round(rng.uniform(0.5, 2.0), 3)
        K, a, b = _interval(rng, round(rng.uniform(-1.0, 1.0), 3), 0.5, 2.0)
        d4 = c * k ** 4 * math.exp(max(k * K[0], k * K[1]))
        return dict(f=f"{_num(c)}*exp({_num(k)}*x)", df=f"{_num(c * k)}*exp({_num(k)}*x)",
                    F=f"{_num(c / k)}*exp({_num(k)}*x)", d4sup=d4, K=K, a=a, b=b)
    if family == "log":
        s = round(rng.uniform(0.2, 1.5), 3)
        K, a, b = _interval(rng, round(rng.uniform(0.0, 1.0), 3), 0.5, 3.0)
        return dict(f=f"log(x+{_num(s)})", df=f"1/(x+{_num(s)})",
                    F=f"(x+{_num(s)})*log(x+{_num(s)})-x", d4sup=6.0 / (K[0] + s) ** 4,
                    K=K, a=a, b=b)
    if family == "power":
        # the corpus runs power laws on K = [0, 1] and on K = [1, 4].  In
        # the crash stratum the exponent is below 1 on a K that starts at
        # 0, so df is undefined at 0; the next stratum starts K at 0 with
        # an exponent of at least 1, and the others start K above 0
        c = round(rng.uniform(0.5, 2.0), 3)
        if stratum == CRASH_STRATUM:
            p, lo = round(rng.uniform(0.3, 0.95), 3), 0.0
        elif stratum == CRASH_STRATUM + 1:
            p, lo = round(rng.uniform(1.05, 2.7), 3), 0.0
        else:
            p, lo = round(rng.uniform(0.3, 2.7), 3), round(rng.uniform(0.5, 2.0), 3)
        K, a, b = _interval(rng, lo, 0.5, 3.0)
        return dict(f=f"{_num(c)}*x^{_num(p)}", df=f"{_num(c * p)}*x^{_num(round(p - 1.0, 3))}",
                    F=f"{_num(c / (p + 1.0))}*x^{_num(round(p + 1.0, 3))}", d4sup=None,
                    K=K, a=a, b=b)
    if family == "sin":
        w = round(rng.uniform(1.0, 7.0), 3)
        ph = round(rng.uniform(0.0, math.pi), 3)
        K, a, b = _interval(rng, round(rng.uniform(-1.0, 1.0), 3), 0.5, 2.0)
        arg = f"{_num(w)}*x+{_num(ph)}"
        return dict(f=f"sin({arg})", df=f"{_num(w)}*cos({arg})",
                    F=f"{_num(-1.0 / w)}*cos({arg})", d4sup=w ** 4, K=K, a=a, b=b)
    raise ValueError(f"unknown smooth family {family!r}")


def stratum_of(index: int) -> int:
    """Generated case ``index`` is in stratum 0, 1, 2 or 3."""
    return index // len(FAMILIES) % 4


def expect_raise(cfg: dict, index: int) -> bool:
    """Whether the program is expected to raise on generated case ``index``."""
    return cfg["name"].endswith("_power") and stratum_of(index) == CRASH_STRATUM


def generate_case(rng: random.Random, index: int, name_prefix: str,
                  with_F: bool, q_list) -> dict:
    """One case config of family FAMILIES[index % len(FAMILIES)]."""
    family = FAMILIES[index % len(FAMILIES)]
    theorems = list(ALL_THEOREMS)
    eta = {"kind": "difference"}
    if family == "abs":
        c = round(rng.uniform(0.5, 2.0), 3)
        hi = round(rng.uniform(0.5, 2.0), 3)
        K = [0.0, hi] if rng.random() < 0.5 else [-hi, 0.0]
        span = K[1] - K[0]
        a = K[0] + round(rng.uniform(0.0, 0.4) * span, 3)
        b = K[1] - round(rng.uniform(0.0, 0.4) * span, 3)
        half = _num(0.5 * c)
        m = dict(f=f"-{_num(c)}*abs(x)", df=f"if(x<0, {_num(c)}, {_num(-c)})",
                 F=f"if(x<0, {half}*x^2, -{half}*x^2)", d4sup=0.0, K=K, a=a, b=b)
        eta = {"kind": "abs_example"}
    elif family == "eta_expr":
        m = _smooth_model(rng, rng.choice(("poly", "exp")), stratum_of(index))
        c = round(rng.uniform(0.5, 1.0), 3)
        eta = {"kind": "expression",
               "value": rng.choice((f"{_num(c)}*(v-u)", f"(v-u)/(1+{_num(c)}*abs(v-u))"))}
    else:
        m = _smooth_model(rng, family, stratum_of(index))
        if family == "sin":
            theorems.append("C4.2")
    if m["d4sup"] is not None:
        theorems.append("CLASSICAL")
    cfg = {
        "name": f"{name_prefix}_{index:05d}_{family}",
        "f": m["f"],
        "df": m["df"],
        "eta": eta,
        "K": m["K"],
        "a": m["a"],
        "b": m["b"],
        "q": list(q_list),
        "theorems": theorems,
    }
    if with_F:
        cfg["F"] = m["F"]
    if m["d4sup"] is not None:
        cfg["d4sup"] = m["d4sup"]
    return cfg


def fresh_cases(seed: int, batch: int, size: int):
    """Batch ``batch`` of distinct generated cases for a run with ``seed``,
    and the names of those the program is expected to raise on.

    Each case has its own K, a and b.  Cases are stratified: every run of
    4 * len(FAMILIES) cases holds each family four times, once in each
    stratum, twice with an antiderivative, and once with the two
    exponents [1, q2] rather than [1].  So the mix, the work per case and
    the number of crashing draws do not drift with the seed, and the
    median case time does not fall in the gap between the one-exponent
    and the slower two-exponent cases.
    """
    rng = random.Random(f"fresh_cases/{seed}/{batch}")
    configs, raising = [], []
    for i in range(batch * size, (batch + 1) * size):
        q_list = [1.0, round(rng.uniform(1.1, 4.0), 2)] if stratum_of(i) == 3 else [1.0]
        with_F = stratum_of(i) % 2 == 1
        cfg = generate_case(rng, i, f"fresh_{seed}", with_F, q_list)
        configs.append(cfg)
        if expect_raise(cfg, i):
            raising.append(cfg["name"])
    return configs, raising


def scan_pool() -> list:
    """The fixed pool of scan models: generated cases without F.  Which
    of them the program raises on is recorded with their digests."""
    rng = random.Random(SCAN_POOL_SEED)
    return [generate_case(rng, i, "scan", False, SCAN_Q) for i in range(SCAN_POOL_SIZE)]


def scan_args(cfg: dict):
    """(a_range, b_range, q_list, steps) for ``tightness_scan``.

    a runs over the lower half of K and b over the upper half, so almost
    every (a, b) cell has a positive step and does real work."""
    lo, hi = cfg["K"]
    mid = 0.5 * (lo + hi)
    return [lo, mid], [mid, hi], list(SCAN_Q), SCAN_STEPS


def corpus_configs(root) -> list:
    """The bundled case configs, read from the source tree under ``root``."""
    corpus_dir = root / "src" / "simpvex" / "corpus"
    return [json.loads(p.read_text(encoding="utf-8")) for p in sorted(corpus_dir.glob("*.json"))]


def sharing(configs) -> dict:
    """How much work the inputs share, for caching claims to cite."""
    n = len(configs)
    exponents = sum(len(c["q"]) for c in configs)
    groups = {(tuple(c["K"]), c["eta"]["kind"], c["eta"].get("value")) for c in configs}
    return {"inputs": n,
            "exponents_per_case": exponents / n,
            "cases_per_distinct_K_eta": n / len(groups)}
