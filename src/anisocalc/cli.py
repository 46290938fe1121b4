"""Command-line interface: one argparse command table.

Each query command reads one query of the kind it is named after and
implies its keywords: ``anisocalc index 'H^{1,(1)}_2(R^2)'`` reads like the
batch line ``index H^{1,(1)}_2(R^2)``.  Exit codes: 0 covered/success,
1 not covered (or empty solved range), 2 usage or parse error (a missing
file too), 3 violated hypothesis or unsupported operation.  An error is
one line on stderr with the code ``dsl.exit_code`` picks; a malformed
command line exits 2 with argparse's usage text.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import appsuite, dsl
from .lemmas import (MinimizationInput, RealizationInput, minimize_phi,
                     realize_exponents)
from .ratcore import render_fraction

# Query command -> the keywords it implies, and its help.  The command's
# name is the only query kind it accepts.
QUERY_COMMANDS = {
    "index": ("index ", "Regularity index of a space."),
    "embed": ("", "Embedding query: 'A -> B ?'."),
    "mult": ("", "Multiplication query: 'A * B -> C ?'."),
    "multiplier": ("multiplier: ",
                   "Multiplier query (one factor equals the target)."),
    "algebra": ("algebra ", "Multiplication-algebra query."),
    "nemytskij": ("nemytskij: ",
                  "Analytic superposition gate: 'A * B -> C ?'."),
    "solve-p": ("solve p: ", "Exact admissible p-range of a decision query."),
    "interp": ("", "Interpolation: '[A, B]_{1/2}' or '(A, B)_{1/2, q}'."),
}


def _load_prelude(path: str | None) -> dict[str, tuple[int, ...]] | None:
    return None if path is None else dsl.parse_prelude(Path(path).read_text())


def _rational(text: str) -> Fraction:
    """One rational option value; a zero denominator is malformed text."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _rationals(text: str) -> tuple[Fraction, ...]:
    return tuple(_rational(v) for v in text.split(","))


def _floats(option: str, text: str) -> tuple[float, ...]:
    """Rational option values, each of which must fit a finite float."""
    try:
        return tuple(float(v) for v in _rationals(text))
    except OverflowError:
        raise ValueError(f"--{option} values must fit a float, got {text!r}") \
            from None


def _per(option: str, text: str, unit: str, n: int) -> tuple[float, ...]:
    """One value for all n axes or slices, or one value each."""
    vals = _floats(option, text)
    if len(vals) not in (1, n):
        raise ValueError(f"--{option} takes one value or one per {unit} "
                         f"({n}), got {len(vals)}")
    return vals * n if len(vals) == 1 else vals


def _emit(result, machine: bool, **text_options) -> int:
    """Print a ``dsl.Report`` or ``appsuite.SuiteReport``; its exit code.
    Each is flushed, so ``batch`` output keeps its order with stderr."""
    print(json.dumps(result.to_machine(), sort_keys=True) if machine
          else result.to_text(**text_options), flush=True)
    return result.exit_code


def _refuse(exc: Exception) -> int:
    """Name the error on stderr and return its exit code."""
    code = dsl.exit_code(exc)
    print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    return code


def _query(args: argparse.Namespace) -> int:
    prelude = _load_prelude(args.prelude)
    t0 = time.perf_counter()
    text = " ".join(args.query)
    query = dsl.parse_query(text, prelude, QUERY_COMMANDS[args.command][0])
    if query.kind != args.command:
        raise dsl.ParseError(f"expected a query of kind {args.command!r}, "
                             f"got {query.kind!r}", text, 0)
    report = dsl.run(query)
    report.timing_ms = (time.perf_counter() - t0) * 1e3
    return _emit(report, args.machine, explain=args.explain)


def _batch(args: argparse.Namespace) -> int:
    prelude = _load_prelude(args.prelude)
    worst = 0
    for line in Path(args.path).read_text().splitlines():
        text = line.strip()
        if text and not text.startswith("#"):
            try:
                report = dsl.run(dsl.parse_query(text, prelude))
            except Exception as exc:
                code = _refuse(exc)
            else:
                code = _emit(report, args.machine, explain=args.explain)
            worst = max(worst, code)
    return worst


def _realize(args: argparse.Namespace) -> int:
    out = [render_fraction(v) for v in realize_exponents(RealizationInput(
        _rationals(args.sigma), _rationals(args.pi), _rational(args.rho)))]
    print(json.dumps({"schema": dsl.SCHEMA, "kind": "realize", "rho_j": out})
          if args.machine else "rho_j = " + ", ".join(out))
    return 0


def _minimize(args: argparse.Namespace) -> int:
    val, rule = minimize_phi(MinimizationInput(
        _rationals(args.sigma), _rationals(args.pi), args.order))
    print(json.dumps({
        "schema": dsl.SCHEMA, "kind": "minimize",
        "phi_min": render_fraction(val), "case": rule.case,
        "mu": render_fraction(rule.mu),
        "argmin_sets": {"plus": sorted(rule.m_plus),
                        "zero": sorted(rule.m_zero),
                        "minus": sorted(rule.m_minus),
                        "star": sorted(rule.m_star)}}) if args.machine
          else f"phi_min = {render_fraction(val)} (case: {rule.case}, "
               f"mu = {render_fraction(rule.mu)})")
    return 0


def _seminorm(args: argparse.Namespace) -> int:
    from . import normlab  # numpy loads only for this command

    space = dsl.parse_space(args.space, _load_prelude(args.prelude))
    dims = tuple(space.aniso.dims)
    sigmas = _per("sigma", args.sigma, "axis", sum(dims))
    freqs = None if args.freq is None else \
        _per("freq", args.freq, "axis", sum(dims))
    spec = normlab.GaussianSpec(sigmas, freqs)
    radius = args.radius if args.radius is not None else 10.0 * max(sigmas)
    spacings = tuple(min(sigmas) / 25 for _ in dims) if args.spacing is None \
        else _per("spacing", args.spacing, "slice", len(dims))
    if min(sigmas) <= 0 or min(spacings) <= 0 or not 0 < radius < math.inf:
        raise ValueError("Gaussian widths, grid spacings and the grid radius "
                         "must be positive and finite")
    lams = (1.0,) if args.dilations is None else \
        _floats("dilations", args.dilations)
    if min(lams) <= 0:
        raise ValueError("dilation parameters must be positive")
    rows = normlab.dilated_seminorms(space, spec, lams, spacings, radius)

    if args.dilations is None:
        value = rows[0][1]
        print(json.dumps({"schema": dsl.SCHEMA, "kind": "seminorm",
                          "space": str(space), "value": value})
              if args.machine else f"seminorm = {value:.6g}")
        return 0
    table = "lambda,seminorm\n" + "\n".join(
        f"{lam},{val:.12g}" for lam, val in rows)
    if args.csv is not None:
        Path(args.csv).write_text(table + "\n")
        print(f"wrote {args.csv}")
    elif args.machine:
        print(json.dumps({"schema": dsl.SCHEMA, "kind": "seminorm-scaling",
                          "space": str(space), "rows": rows}))
    else:
        print(table)
    return 0


def _app(args: argparse.Namespace) -> int:
    if args.solve_p and args.p is not None:
        raise ValueError("--p and --solve-p exclude each other")
    p = None if args.p is None else _rational(args.p)
    run = appsuite.run_stefan if args.problem == "stefan" else appsuite.run_nvs
    return _emit(run(args.n, p), args.machine)


_PRELUDE = ("--prelude", dict(metavar="FILE",
                              help="alias bindings file (ALIAS = dims)"))
_MACHINE = ("--machine", dict(action="store_true",
                              help="one JSON document per result"))
_QUERY_OPTIONS = (_PRELUDE, _MACHINE, ("--explain", dict(
    action="store_true", help="append the rulebook text of every anchor")))

# command -> (handler, help, arguments)
COMMANDS = {
    **{name: (_query, help_text, [("query", dict(
        nargs="+", metavar="QUERY",
        help="the query text; separate words are joined by spaces")),
        *_QUERY_OPTIONS]) for name, (_, help_text) in QUERY_COMMANDS.items()},
    "batch": (_batch, "Evaluate a query file (one query per line, '#' "
              "comments); a refused line fails only itself.",
              [("path", dict(metavar="PATH")), *_QUERY_OPTIONS]),
    "realize": (_realize, "Split a feasible target sum into per-factor "
                "exponents.", [
                    ("--sigma", dict(required=True, help="comma-separated "
                                     "caps, e.g. 1/2,2")),
                    ("--pi", dict(required=True,
                                  help="comma-separated reciprocals")),
                    ("--rho", dict(required=True, help="target sum")),
                    _MACHINE]),
    "minimize": (_minimize, "Minimum of the piecewise-linear composition "
                 "functional.", [("--sigma", dict(required=True)),
                                 ("--pi", dict(required=True)),
                                 ("--order", dict(type=int, required=True)),
                                 _MACHINE]),
    "seminorm": (_seminorm, "Difference-quotient seminorm of a Gaussian "
                 "test function.", [
                     ("--space", dict(required=True, help="a concrete W or B "
                                      "space, e.g. 'W^{1/2,(1)}_2(R^1)'")),
                     ("--sigma", dict(default="1", help="comma-separated "
                                      "Gaussian widths, one per axis")),
                     ("--freq", dict(help="comma-separated modulation "
                                     "frequencies")),
                     ("--spacing", dict(help="comma-separated grid "
                                        "spacings, one per slice")),
                     ("--radius", dict(type=float, help="grid half-width")),
                     ("--dilations", dict(help="comma-separated dilation "
                                          "parameters for a scaling table")),
                     ("--csv", dict(metavar="PATH", help="write the (lambda, "
                                    "seminorm) table as CSV")),
                     _PRELUDE, _MACHINE]),
    "app": (_app, "Run a built-in application checklist.", [
        ("problem", dict(choices=["stefan", "nvs"])),
        ("--n", dict(type=int, required=True, help="space dimension")),
        ("--p", dict(help="concrete integrability exponent (rational)")),
        ("--solve-p", dict(action="store_true", help="solve every term "
                           "symbolically (default when --p absent)")),
        _MACHINE]),
}

# The word after an option that takes a value is that value, even when it
# starts with '-' (``--freq -1/2,1``): main glues the two before parsing.
_VALUED = {flag for _, _, arguments in COMMANDS.values()
           for flag, spec in arguments
           if flag.startswith("--") and "action" not in spec}


def _parser() -> argparse.ArgumentParser:
    """Every command; a parser reads only whole option names."""
    parser = argparse.ArgumentParser(
        prog="anisocalc", allow_abbrev=False, description="Exact decision "
        "engine for anisotropic function-space calculus.")
    commands = parser.add_subparsers(dest="command", required=True,
                                     metavar="COMMAND")
    for name, (run, help_text, arguments) in COMMANDS.items():
        sub = commands.add_parser(name, help=help_text, description=help_text,
                                  allow_abbrev=False)
        sub.set_defaults(run=run)
        for flag, spec in arguments:
            sub.add_argument(flag, **spec)
    return parser


def _glued(argv: list[str]) -> list[str]:
    """``argv`` with each valued option before ``--`` as ``--opt=value``."""
    out, words = [], iter(argv)
    for word in words:
        if word == "--":
            return [*out, word, *words]
        value = next(words, None) if word in _VALUED else None
        out.append(word if value is None else f"{word}={value}")
    return out


def main(argv: list[str] | None = None) -> int:
    """Run one command line (``sys.argv[1:]`` by default); its exit code."""
    parser = _parser()
    args, extra = parser.parse_known_args(
        _glued(sys.argv[1:] if argv is None else argv))
    if args.command in QUERY_COMMANDS:
        # query words an option splits are one query
        args.query += [w for w in extra if not w.startswith("-")]
        extra = [w for w in extra if w.startswith("-")]
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.run(args)
    except Exception as exc:
        return _refuse(exc)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
