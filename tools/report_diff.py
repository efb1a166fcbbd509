"""Compare two JSON reports of ``simpvex corpus`` or ``simpvex check``, case by case.

    python3 tools/report_diff.py OLD NEW

Cases are matched by their ``case`` name.  Each difference is one line,
in one of three classes:

  1  a verdict moved (a case's, or a hypothesis report's);
  2  a finite number moved by at most old err + new err to another;
  3  a number moved by more than that, or to or from an infinity or NaN,
     any other value moved (text, null, a list's length), or a case is in
     one report only.

Numbers compare by their ``repr``, as the report bytes hold them: NaN
equals NaN, and a zero that changes sign moves (class 2).

The err of a number is 4 ulps of it, plus, for ``defect``,
``simpson_value``, ``mean_integral`` and each bound's ``slack``, its
case's ``quadrature_error``, and for ``lemma_value`` its case's
``lemma_error_estimate``.  The ``counts`` block follows from the verdicts
and is not compared.  The report bytes hold for one platform's libm;
class 2 tells an ulp-level drift, or one within the quadrature's own
error estimate, from a real change.

Prints one line per difference, ``<class> <case> <path>: <old> -> <new>``,
then a summary line.  Exits 1 if any line is class 3, 0 otherwise, and 2
where a report cannot be read.
"""

import argparse
import json
import math
import sys

VERDICT, WITHIN, BEYOND = 1, 2, 3
ULPS = 4
_ERR_OF = {"defect": "quadrature_error", "simpson_value": "quadrature_error",
           "mean_integral": "quadrature_error", "slack": "quadrature_error",
           "lemma_value": "lemma_error_estimate"}


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _err(x, key: str, case: dict) -> float:
    """4 ulps of x, plus the case's error estimate for a number that carries one."""
    extra = case.get(_ERR_OF[key]) if key in _ERR_OF else None
    return ULPS * math.ulp(x) + (extra if _number(extra) else 0.0)


def _diff(old, new, path: str, key: str, cases, out: list) -> None:
    """Append (class, path, old, new) for each difference of old and new under ``path``."""
    if _number(old) and _number(new):
        if repr(old) != repr(new):
            within = (math.isfinite(old) and math.isfinite(new) and
                      abs(new - old) <= _err(old, key, cases[0]) + _err(new, key, cases[1]))
            out.append((WITHIN if within else BEYOND, path, old, new))
    elif isinstance(old, dict) and isinstance(new, dict):
        for k in sorted(set(old) | set(new)):
            _diff(old.get(k), new.get(k), f"{path}.{k}" if path else k, k, cases, out)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            _diff(a, b, f"{path}[{i}]", key, cases, out)
    elif old != new:
        out.append((VERDICT if key == "verdict" else BEYOND, path, old, new))


def differences(old: dict, new: dict) -> list:
    """(class, case, path, old value, new value) per difference, in case name order."""
    olds = {case["case"]: case for case in old["cases"]}
    news = {case["case"]: case for case in new["cases"]}
    found = []
    for name in sorted(set(olds) | set(news)):
        if name not in news or name not in olds:
            found.append((BEYOND, name, "", "present" if name in olds else "absent",
                          "present" if name in news else "absent"))
            continue
        out = []
        _diff(olds[name], news[name], "", "", (olds[name], news[name]), out)
        found += [(cls, name, path, a, b) for cls, path, a, b in out]
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="the earlier JSON report")
    parser.add_argument("new", help="the later JSON report")
    args = parser.parse_args(argv)
    reports = []
    for path in (args.old, args.new):
        try:
            with open(path, encoding="utf-8") as report:
                doc = json.load(report)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read {path!r}: {exc}", file=sys.stderr)
            return 2
        if not (isinstance(doc, dict) and isinstance(doc.get("cases"), list)):
            print(f"error: {path!r} holds no report: no list of cases", file=sys.stderr)
            return 2
        reports.append(doc)
    found = differences(*reports)
    for cls, name, path, a, b in found:
        print(f"{cls} {name} {path}: {a!r} -> {b!r}" if path else f"{cls} {name}: {a} -> {b}")
    counts = [sum(1 for d in found if d[0] == cls) for cls in (VERDICT, WITHIN, BEYOND)]
    print(f"{len(found)} differences: {counts[0]} verdict, {counts[1]} within err, "
          f"{counts[2]} beyond err")
    return 1 if counts[2] else 0


if __name__ == "__main__":
    sys.exit(main())
