"""Command-line front end.

Subcommands:
    moments   kernel moment table, closed form vs quadrature
    check     run one case config through the pipeline
    corpus    run the bundled corpus (JSON or CSV report)
    scan      tightness scan of |defect| / rhs over an (a, b, q) grid

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 all pass,
1 bound violation, 2 hypothesis unmet under --strict, 3 input or
configuration error.  A violation anywhere forces exit 1 regardless of
other verdicts.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import List, Optional, TextIO

from . import bounds as bounds_mod
from . import kernel, quadrature, runner
from .errors import CaseConfigError, SimpvexError
from .invexity import EtaMap
from .runner import EXIT_INPUT_ERROR, EXIT_PASS


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT_ERROR)


def _info(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


@contextlib.contextmanager
def _output(out_path: Optional[str]):
    """stdout, or ``out_path`` opened for writing before the run, as a shell
    redirect is: an unwritable path fails first, and a failed run leaves the
    file empty."""
    if not out_path:
        yield sys.stdout
        return
    try:
        fh = open(out_path, "w", encoding="utf-8")
    except OSError as exc:  # a directory, a missing parent, no permission
        raise CaseConfigError(f"cannot write {out_path!r}: {exc.strerror or exc}")
    with fh:
        yield fh


def _write_output(text: str, out: TextIO) -> None:
    try:
        out.write(text)
        out.flush()
    except OSError as exc:  # a full disk
        raise CaseConfigError(f"cannot write {out.name!r}: {exc.strerror or exc}")


# the tolerances the --tol-* flags set, with their help text
_TOLERANCE_FLAGS = {"oracle": "quadrature oracle tolerance",
                    "slack": "slack tolerance for violations",
                    "invexity": "sampled-property tolerance"}


def _tolerances(args) -> runner.Tolerances:
    return runner.DEFAULT_TOLERANCES.merged(
        {key: getattr(args, f"tol_{key}", None) for key in _TOLERANCE_FLAGS})


def _add_tolerance_flags(sub, keys=tuple(_TOLERANCE_FLAGS)) -> None:
    for key in keys:
        default = getattr(runner.DEFAULT_TOLERANCES, key)
        sub.add_argument(f"--tol-{key}", type=float,
                         help=f"{_TOLERANCE_FLAGS[key]} (default {default!r})")


def _parse_floats(text: str, flag: str) -> List[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise CaseConfigError(f"{flag} expects comma-separated numbers, got {text!r}")
    if not values:
        raise CaseConfigError(f"{flag} expects at least one number")
    return values


def _parse_pair(text: str, flag: str):
    values = _parse_floats(text, flag)
    if len(values) != 2:
        raise CaseConfigError(f"{flag} expects exactly two numbers, got {text!r}")
    return values[0], values[1]


def _joined_values(argv: List[str], parser: argparse.ArgumentParser) -> List[str]:
    """``argv`` with "--df -sin(x)" as "--df=-sin(x)" after each option of ``parser`` or
    of a subcommand that takes a value: argparse reads a separate word starting with "-"
    as an option, bar a plain negative number.  A word starting with "--" stays an option."""
    parsers = [parser] + [sub for action in parser._actions if isinstance(action.choices, dict)
                          for sub in action.choices.values()]
    flags = {flag for p in parsers for action in p._actions if action.nargs != 0
             for flag in action.option_strings}
    out: List[str] = []
    for word in argv:
        if out and out[-1] in flags and word[:1] == "-" and word[1:2] != "-":
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def _parse_eta(text: str) -> EtaMap:
    kind, sep, value = text.partition(":")
    try:  # EtaMap words the rules: a known kind, a value for expression alone
        return EtaMap.from_config({"kind": kind, "value": value} if sep else {"kind": kind})
    except ValueError:
        raise CaseConfigError(f"--eta expects 'difference', 'abs_example' or "
                              f"'expression:<expr>', got {text!r}") from None


def cmd_moments(args, out: TextIO) -> int:
    ps = _parse_floats(args.p, "--p")
    rows = ["p,closed_form,numeric,abs_diff"]
    for p in ps:
        if not p >= 1.0:
            raise CaseConfigError(f"moment order must be >= 1, got {p!r}")
        # |t - 1/6|^p peaks at (1/3)^p on [0, 1/2]; in units of that peak the
        # moment is about 1/(3(p+1)), so tol is about 3e-12 of it at every p
        scale = (1.0 / 3.0) ** p
        if scale < sys.float_info.min:
            raise CaseConfigError(f"moment order {p!r} is too large: (1/3)^p underflows")
        closed = kernel.moment_p(p)
        g = lambda t: abs(t - 1.0 / 6.0) ** p / scale
        tol = 1e-12 / (p + 1.0)
        # one integral per side of the kink at 1/6
        numeric = scale * (quadrature.integrate(g, 0.0, 1.0 / 6.0, tol).value
                           + quadrature.integrate(g, 1.0 / 6.0, 0.5, tol).value)
        rows.append(f"{p!r},{closed!r},{numeric!r},{abs(closed - numeric)!r}")
    _write_output("\n".join(rows) + "\n", out)
    return EXIT_PASS


def cmd_check(args, out: TextIO) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise CaseConfigError(f"cannot read {args.config!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise CaseConfigError(
            f"{args.config}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except (RecursionError, ValueError) as exc:  # nested too deeply, or too many digits
        raise CaseConfigError(f"{args.config}: invalid JSON: {exc}")
    case = runner.load_case(config, _tolerances(args))
    _info(args, f"running case {case.name!r}")
    result = runner.run_case(case)
    report = runner.RunReport([result], 0.0)
    _write_output(report.to_json(), out)
    _info(args, f"verdict: {result.verdict}")
    return runner.aggregate_exit_code([result], strict=args.strict)


def cmd_corpus(args, out: TextIO) -> int:
    tol = _tolerances(args)
    cases = runner.load_corpus(args.filter, tol)
    if not cases:  # an empty report would read as every verdict passing
        raise CaseConfigError(f"no bundled case name contains {args.filter!r}")
    _info(args, f"loaded {len(cases)} corpus case(s)")
    report = runner.run_corpus(cases=cases)
    if args.format == "csv":
        _write_output(report.to_csv(), out)
    else:
        _write_output(report.to_json(), out)
    _info(args, "verdicts: " + ", ".join(
        f"{verdict}={n}" for verdict, n in report.counts.items() if verdict != "cases"))
    return runner.aggregate_exit_code(report.results, strict=args.strict)


def cmd_scan(args, out: TextIO) -> int:
    q_list = _parse_floats(args.q, "--q")
    theorems = (list(runner.THEOREM_IDS) if args.theorems is None else
                [part.strip() for part in args.theorems.split(",") if part.strip()])
    tol = _tolerances(args)
    with runner._compilable(f"model {args.name!r}"):
        eta = _parse_eta(args.eta)
        lo, hi = _parse_pair(args.K, "--K")
        config = {
            "name": args.name,
            "f": args.f,
            "df": args.df,
            "F": args.F,
            "d4sup": args.d4sup,
            "K": [lo, hi],
        }
        model = bounds_mod.FunctionModel.from_config(config)
        model.validate(quad_tol=tol.oracle)
    try:
        results = runner.tightness_scan(
            model, eta, model.domain,
            _parse_pair(args.a_range, "--a-range"),
            _parse_pair(args.b_range, "--b-range"),
            q_list, args.steps, theorems, tol)
    except ValueError as exc:  # steps, a range or the request, refused before any sweep
        raise CaseConfigError(str(exc)) from None
    rows = [["theorem", "status", "ratio", "a", "b", "q", "cells", "skipped"]]
    rows += [[r.theorem, r.status, r.ratio, r.at_a, r.at_b, r.at_q, r.cells, r.skipped]
             for r in results]
    _write_output(runner._csv(rows), out)
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="simpvex",
                     description="Simpson defect bounds on invex intervals.")
    quiet_help = "suppress progress messages on stderr"
    parser.add_argument("--quiet", action="store_true", help=quiet_help)
    sub = parser.add_subparsers(dest="command", required=True)

    p_moments = sub.add_parser("moments", help="kernel moment table (CSV)",
                               description="Print closed-form vs numeric kernel moments.")
    p_moments.add_argument("--p", required=True,
                           help="comma-separated moment orders, each >= 1")
    p_moments.add_argument("--out", default=None, help="write output to this path")
    p_moments.set_defaults(fn=cmd_moments)

    p_check = sub.add_parser("check", help="run one case config",
                             description="Validate and run a single JSON case config.")
    p_check.add_argument("config", help="path to a case config JSON file")
    p_check.add_argument("--strict", action="store_true",
                         help="exit 2 when a hypothesis is unmet")
    p_check.add_argument("--out", default=None, help="write the JSON report to this path")
    _add_tolerance_flags(p_check)
    p_check.set_defaults(fn=cmd_check)

    p_corpus = sub.add_parser("corpus", help="run the bundled corpus",
                              description="Run the bundled verification corpus.")
    p_corpus.add_argument("--filter", default=None,
                          help="only run cases whose name contains this substring")
    p_corpus.add_argument("--format", choices=("json", "csv"), default="json")
    p_corpus.add_argument("--strict", action="store_true",
                          help="exit 2 when a hypothesis is unmet")
    p_corpus.add_argument("--out", default=None, help="write the report to this path")
    _add_tolerance_flags(p_corpus)
    p_corpus.set_defaults(fn=cmd_corpus)

    p_scan = sub.add_parser("scan", help="tightness scan over (a, b, q)",
                            description="Scan |defect|/rhs ratios over a grid.")
    p_scan.add_argument("--name", default="scan", help="model name used in diagnostics")
    p_scan.add_argument("--f", required=True, help="function expression over x")
    p_scan.add_argument("--df", required=True, help="derivative expression over x")
    p_scan.add_argument("--F", default=None, help="optional antiderivative expression")
    p_scan.add_argument("--d4sup", type=float, default=None,
                        help="sup of |f''''|, enables the CLASSICAL bound")
    p_scan.add_argument("--eta", default="difference",
                        help="'difference', 'abs_example' or 'expression:<expr>'")
    p_scan.add_argument("--K", required=True, help="domain as 'lo,hi'")
    p_scan.add_argument("--a-range", dest="a_range", required=True, help="'lo,hi'")
    p_scan.add_argument("--b-range", dest="b_range", required=True, help="'lo,hi'")
    p_scan.add_argument("--q", default="1,2", help="comma-separated exponents")
    p_scan.add_argument("--steps", type=int, default=9, help="grid steps per axis")
    p_scan.add_argument("--theorems", default=None,
                        help="comma-separated theorem ids (default: all)")
    p_scan.add_argument("--out", default=None, help="write output to this path")
    # a scan reports ratios, not verdicts, so it reads no slack
    _add_tolerance_flags(p_scan, ("oracle", "invexity"))
    p_scan.set_defaults(fn=cmd_scan)
    # --quiet after the subcommand too, with no default that would reset a leading --quiet
    for p in (p_moments, p_check, p_corpus, p_scan):
        p.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS,
                       help=quiet_help)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_joined_values(sys.argv[1:] if argv is None else argv, parser))
    try:
        with _output(args.out) as out:
            return args.fn(args, out)
    except CaseConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except SimpvexError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
