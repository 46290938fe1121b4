"""Command-line interface.

Exit codes: 0 covered/success, 1 not covered (or empty solved range),
2 usage or parse error, 3 violated hypothesis or unsupported operation.
An error reaches the user as one line on stderr; ``dsl.exit_code`` picks
its code.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import click

from . import appsuite, dsl
from .lemmas import (MinimizationInput, RealizationInput, minimize_phi,
                     realize_exponents)
from .ratcore import render_fraction


def _load_prelude(path: str | None) -> dict[str, tuple[int, ...]]:
    if path is None:
        return dict(dsl.DEFAULT_PRELUDE)
    return dsl.parse_prelude(Path(path).read_text())


def _rational(text: str) -> Fraction:
    """One rational option value; a zero denominator is malformed text
    like any other."""
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


def _refuse(exc: Exception) -> int:
    """Name the error on stderr and return its exit code."""
    code = dsl.exit_code(exc)
    click.echo(f"{type(exc).__name__}: {exc}", err=True)
    return code


def _refusing(command):
    """A command body whose errors exit with their mapped code."""
    @functools.wraps(command)
    def run(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except Exception as exc:
            sys.exit(_refuse(exc))
    return run


def _evaluate(text: str, prelude,
              prefix: str = "") -> tuple[dsl.Report | None, int]:
    """parse -> run -> exit code; a refused query has no report."""
    try:
        report = dsl.run(dsl.parse_query(text, prelude, prefix))
    except Exception as exc:
        return None, _refuse(exc)
    return report, report.exit_code


def _emit(report: dsl.Report, machine: bool, explain: bool,
          timing: float | None = None) -> None:
    if machine:
        click.echo(report.to_json())
    else:
        if timing is not None:
            report.timing_ms = timing
        click.echo(report.to_text(explain=explain))


_common = [
    click.option("--prelude", "prelude_path", type=click.Path(exists=True),
                 default=None, help="alias bindings file (ALIAS = dims)"),
    click.option("--machine", is_flag=True, help="one JSON document per query"),
    click.option("--explain", is_flag=True,
                 help="append the rulebook text of every anchor"),
]


def _with_common(fn):
    for opt in reversed(_common):
        fn = opt(fn)
    return fn


@click.group()
def main() -> None:
    """Exact decision engine for anisotropic function-space calculus."""


def _query_command(name: str, prefix: str, help_text: str):
    @main.command(name=name, help=help_text)
    @click.argument("query", nargs=-1, required=True)
    @_with_common
    @_refusing
    def _cmd(query: tuple[str, ...], prelude_path, machine, explain):
        prelude = _load_prelude(prelude_path)
        t0 = time.perf_counter()
        report, code = _evaluate(" ".join(query), prelude, prefix)
        if report is not None:
            _emit(report, machine, explain, (time.perf_counter() - t0) * 1e3)
        sys.exit(code)
    return _cmd


_query_command("index", "index ", "Regularity index of a space.")
_query_command("embed", "", "Embedding query: 'A -> B ?'.")
_query_command("mult", "", "Multiplication query: 'A * B -> C ?'.")
_query_command("multiplier", "multiplier: ",
               "Multiplier query (one factor equals the target).")
_query_command("algebra", "algebra ", "Multiplication-algebra query.")
_query_command("nemytskij", "nemytskij: ",
               "Analytic superposition gate: 'A * B -> C ?'.")
_query_command("solve-p", "solve p: ",
               "Exact admissible p-range of a decision query.")
_query_command("interp", "", "Interpolation: '[A, B]_{1/2}' or '(A, B)_{1/2, q}'.")


@main.command(name="batch", help="Evaluate a query file (one query per line, "
              "'#' comments); a refused line fails only itself.")
@click.argument("path", type=click.Path(exists=True))
@_with_common
@_refusing
def batch(path: str, prelude_path, machine, explain) -> None:
    prelude = _load_prelude(prelude_path)
    worst = 0
    for line in Path(path).read_text().splitlines():
        text = line.strip()
        if text and not text.startswith("#"):
            report, code = _evaluate(text, prelude)
            if report is not None:
                _emit(report, machine, explain)
            worst = max(worst, code)
    sys.exit(worst)


@main.command(name="realize", help="Split a feasible target sum into "
              "per-factor exponents.")
@click.option("--sigma", required=True, help="comma-separated caps, e.g. 1/2,2")
@click.option("--pi", "pi_", required=True, help="comma-separated reciprocals")
@click.option("--rho", required=True, help="target sum")
@click.option("--machine", is_flag=True)
@_refusing
def realize(sigma: str, pi_: str, rho: str, machine: bool) -> None:
    out = realize_exponents(RealizationInput(
        _rationals(sigma), _rationals(pi_), _rational(rho)))
    if machine:
        click.echo(json.dumps({"schema": dsl.SCHEMA, "kind": "realize",
                               "rho_j": [render_fraction(v) for v in out]}))
    else:
        click.echo("rho_j = " + ", ".join(render_fraction(v) for v in out))
    sys.exit(0)


@main.command(name="minimize", help="Minimum of the piecewise-linear "
              "composition functional.")
@click.option("--sigma", required=True)
@click.option("--pi", "pi_", required=True)
@click.option("--order", "n", required=True, type=int)
@click.option("--machine", is_flag=True)
@_refusing
def minimize(sigma: str, pi_: str, n: int, machine: bool) -> None:
    val, rule = minimize_phi(MinimizationInput(
        _rationals(sigma), _rationals(pi_), n))
    if machine:
        click.echo(json.dumps({
            "schema": dsl.SCHEMA, "kind": "minimize",
            "phi_min": render_fraction(val), "case": rule.case,
            "mu": render_fraction(rule.mu),
            "argmin_sets": {"plus": sorted(rule.m_plus),
                            "zero": sorted(rule.m_zero),
                            "minus": sorted(rule.m_minus),
                            "star": sorted(rule.m_star)}}))
    else:
        click.echo(f"phi_min = {render_fraction(val)} (case: {rule.case}, "
                   f"mu = {render_fraction(rule.mu)})")
    sys.exit(0)


@main.command(name="seminorm", help="Difference-quotient seminorm of a "
              "Gaussian test function.")
@click.option("--space", "space_text", required=True,
              help="a concrete W or B space, e.g. 'W^{1/2,(1)}_2(R^1)'")
@click.option("--sigma", default="1",
              help="comma-separated Gaussian widths, one per axis")
@click.option("--freq", default=None,
              help="comma-separated modulation frequencies")
@click.option("--spacing", default=None,
              help="comma-separated grid spacings, one per slice")
@click.option("--radius", type=float, default=None, help="grid half-width")
@click.option("--dilations", default=None,
              help="comma-separated dilation parameters for a scaling table")
@click.option("--csv", "csv_path", type=click.Path(), default=None,
              help="write the (lambda, seminorm) table as CSV")
@click.option("--prelude", "prelude_path", type=click.Path(exists=True),
              default=None)
@click.option("--machine", is_flag=True)
@_refusing
def seminorm(space_text, sigma, freq, spacing, radius, dilations, csv_path,
             prelude_path, machine) -> None:
    from . import normlab  # numpy loads only for this command

    space = dsl.parse_space(space_text, _load_prelude(prelude_path))
    dims = tuple(space.aniso.dims)
    sigmas = _per("sigma", sigma, "axis", sum(dims))
    freqs = None if freq is None else _per("freq", freq, "axis", sum(dims))
    spec = normlab.GaussianSpec(sigmas, freqs)
    radius = radius if radius is not None else 10.0 * max(sigmas)
    spacings = tuple(min(sigmas) / 25 for _ in dims) if spacing is None \
        else _per("spacing", spacing, "slice", len(dims))
    if min(sigmas) <= 0 or min(spacings) <= 0 or not 0 < radius < math.inf:
        raise ValueError("Gaussian widths, grid spacings and the grid radius "
                         "must be positive and finite")
    lams = (1.0,) if dilations is None else _floats("dilations", dilations)
    if min(lams) <= 0:
        raise ValueError("dilation parameters must be positive")
    rows = normlab.dilated_seminorms(space, spec, lams, spacings, radius)

    if dilations is None:
        value = rows[0][1]
        if machine:
            click.echo(json.dumps({"schema": dsl.SCHEMA, "kind": "seminorm",
                                   "space": str(space), "value": value}))
        else:
            click.echo(f"seminorm = {value:.6g}")
    else:
        table = "lambda,seminorm\n" + "\n".join(
            f"{lam},{val:.12g}" for lam, val in rows)
        if csv_path is not None:
            Path(csv_path).write_text(table + "\n")
            click.echo(f"wrote {csv_path}")
        elif machine:
            click.echo(json.dumps({"schema": dsl.SCHEMA,
                                   "kind": "seminorm-scaling",
                                   "space": str(space), "rows": rows}))
        else:
            click.echo(table)
    sys.exit(0)


@main.command(name="app", help="Run a built-in application checklist.")
@click.argument("problem", type=click.Choice(["stefan", "nvs"]))
@click.option("--n", "n", type=int, required=True, help="space dimension")
@click.option("--p", "p_text", default=None,
              help="concrete integrability exponent (rational)")
@click.option("--solve-p", "solve_p", is_flag=True,
              help="solve every term symbolically (default when --p absent)")
@click.option("--machine", is_flag=True)
@_refusing
def app(problem: str, n: int, p_text: str | None, solve_p: bool,
        machine: bool) -> None:
    p = None if (solve_p or p_text is None) else _rational(p_text)
    report = (appsuite.run_stefan if problem == "stefan"
              else appsuite.run_nvs)(n, p)
    if machine:
        click.echo(json.dumps(_suite_machine(report), sort_keys=True))
    else:
        click.echo(_suite_text(report))
    if p is None:
        sys.exit(dsl.EXIT_COVERED if report.final is not None
                 and not report.final.is_empty else dsl.EXIT_NOT_COVERED)
    sys.exit(dsl.EXIT_COVERED if report.all_covered else dsl.EXIT_NOT_COVERED)


def _suite_machine(report: appsuite.SuiteReport) -> dict:
    terms = []
    for res in report.terms:
        row: dict = {"name": res.check.name, "term": res.check.term_text,
                     "kind": res.check.kind,
                     "governing": res.check.governing,
                     "anchor": res.check.anchor}
        if res.param_set is not None:
            row["param_set"] = res.param_set.to_machine()
            row["expected"] = res.check.expected.to_machine()
            row["matches_expected"] = res.matches_expected
        if res.decision is not None:
            row["verdict"] = res.decision.verdict.value
            fail = res.decision.first_failure()
            if fail is not None:
                row["first_failure"] = {"label": fail.label,
                                        "anchor": fail.anchor}
        terms.append(row)
    out = {
        "schema": dsl.SCHEMA,
        "kind": f"app.{report.problem}",
        "n": report.n,
        "p": None if report.p is None else render_fraction(Fraction(report.p)),
        "facts": [{"quantity": f.quantity, "space": str(f.space),
                   "anchor": f.anchor} for f in report.facts],
        "terms": terms,
        "exclusions": [{"p": render_fraction(q), "anchor": a}
                       for q, a in report.exclusions],
        "footnotes": list(report.footnotes),
    }
    if report.intersection is not None:
        out["intersection"] = report.intersection.to_machine()
        out["final"] = report.final.to_machine()
    return out


def _suite_text(report: appsuite.SuiteReport) -> str:
    lines = [f"checklist: {report.problem} (n = {report.n})"]
    lines.append("facts:")
    for f in report.facts:
        lines.append(f"  {f.quantity}: {f.space} [{f.anchor}]")
    lines.append("terms:")
    for res in report.terms:
        if res.param_set is not None:
            mark = "ok" if res.matches_expected else "MISMATCH"
            lines.append(f"  {res.check.name} ({res.check.term_text}): "
                         f"p in {res.param_set.describe_p()} "
                         f"[{res.check.governing}] {mark}")
        else:
            v = res.decision.verdict.value
            line = f"  {res.check.name} ({res.check.term_text}): {v}"
            fail = res.decision.first_failure()
            if fail is not None:
                line += f" (first failed: {fail.label} [{fail.anchor}])"
            lines.append(line)
    if report.intersection is not None:
        lines.append(f"intersection: p in {report.intersection.describe_p()}")
        lines.append(f"after exclusions: p in {report.final.describe_p()}")
    lines.append("exclusions: " + ", ".join(
        f"p = {render_fraction(q)} [{a}]" for q, a in report.exclusions))
    for note in report.footnotes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    main()
