"""Checks of the engine's outputs against answers the benchmark knows
independently: pinned golden reports, closed forms and concrete
re-evaluation of solved ranges.  Each check returns None when it passes
and a one-line reason when it fails.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction as F

from corpus import Fit, Line, render_fraction

_TERM = re.compile(r"^(\d+)p$")


def parse_affine_p(text: str) -> tuple[F, F]:
    """Inverse of the engine's ``c - b/p`` rendering: (constant, slope in
    x = 1/p).  Accepts 'c', 't', '-t' and 'c + t' / 'c - t' with the term
    t one of 'N/p' or 'N/Dp' (which reads N/(D p))."""
    parts = text.split(" ")
    if len(parts) == 3:
        const, sign, term = parts
        slope = _term(term)
        return F(const), slope if sign == "+" else -slope
    if len(parts) != 1:
        raise ValueError(f"unreadable affine form {text!r}")
    body = parts[0]
    neg = body.startswith("-")
    if body.lstrip("-").endswith("p"):
        slope = _term(body.lstrip("-"))
        return F(0), -slope if neg else slope
    return F(body), F(0)


def _term(term: str) -> F:
    # 'N/p' is N x; 'N/Dp' is (N/D) x
    head, _, tail = term.partition("/")
    if tail == "p":
        return F(int(head))
    m = _TERM.match(tail)
    if m is None:
        raise ValueError(f"unreadable term {term!r}")
    return F(int(head), int(m.group(1)))


def check_index(line: Line, report_json: str) -> str | None:
    """The value must be the closed form (s - x * sum w_k n_k) / lcm(w)."""
    name, const, slope = line.expect
    value = json.loads(report_json)["value"]
    got_name, _, body = value.partition(" = ")
    if got_name != name or parse_affine_p(body) != (const, slope):
        return f"index {line.text!r}: got {value!r}, closed form " \
               f"{name} = {const} + {slope} x"
    return None


def check_hoelder(line: Line, report_json: str) -> str | None:
    """Criterion 1's oracle: COVERED exactly when x1 + x2 = xt."""
    verdict = json.loads(report_json)["verdict"]
    if verdict != line.expect[0]:
        return f"Hoelder {line.text!r}: got {verdict}, identity says {line.expect[0]}"
    return None


def check_golden(text: str, report_json: str, pinned: str) -> str | None:
    if report_json != pinned:
        return f"golden {text!r}: report differs from tests/golden/reports.jsonl"
    return None


def concrete_query(solve_text: str, x: F) -> str:
    """The inner query of a ``solve p:`` line at the concrete p = 1/x."""
    inner = solve_text.split(":", 1)[1].strip()
    sub = render_fraction(1 / x)
    sub = sub if "/" not in sub else f"{{{sub}}}"
    return re.sub(r"_p(?=\()", f"_{sub}", inner)


def solved_set_points(param_set: dict) -> list[tuple[F, bool]]:
    """Points to re-check concretely, with the membership the solved set
    claims: each finite endpoint in (0, 1), one interior witness per
    interval, and each excluded point."""
    excluded = {F(e["x"]) for e in param_set["excluded"]}
    out = []
    for iv in param_set["x_intervals"]:
        lo, hi = F(iv["lo"]), F(iv["hi"])
        for x, closed in ((lo, iv["lo_closed"]), (hi, iv["hi_closed"])):
            if 0 < x < 1:
                out.append((x, closed and x not in excluded))
        if lo < hi:
            witness = next(w for w in ((lo + hi) / 2, (2 * lo + hi) / 3,
                                       (lo + 2 * hi) / 3)
                           if w not in excluded)
            out.append((witness, True))
    out.extend((x, False) for x in excluded)
    return sorted(set(out))


def check_solved(solve_text: str, report_json: str, decide) -> str | None:
    """Every solved range must agree with the concrete query at its finite
    endpoints, an interior witness per interval and its excluded points.
    ``decide(text)`` returns True for COVERED, False for NOT_COVERED or a
    refused hypothesis."""
    ps = json.loads(report_json)["param_set"]
    for x, claimed in solved_set_points(ps):
        text = concrete_query(solve_text, x)
        got = decide(text)
        if got != claimed:
            return f"solved set of {solve_text!r} claims {claimed} at " \
                   f"p = {render_fraction(1 / x)}, concrete query {text!r} says {got}"
    return None


def suite_closed_form(problem: str, n: int) -> str:
    """README's intersections: [(n+2)/2, oo) for stefan, ((n+2)/2, oo)
    for nvs."""
    edge = render_fraction(F(n + 2, 2))
    return f"[{edge}, oo)" if problem == "stefan" else f"({edge}, oo)"


def check_suite(problem: str, n: int, intersection_p: str) -> str | None:
    want = suite_closed_form(problem, n)
    if intersection_p != want:
        return f"app {problem} n={n}: intersection {intersection_p}, README says {want}"
    return None


SLOPE_TOLERANCE = 0.1


def slope_error(fit: Fit, slope: float) -> float:
    """|fitted slope - lcm(w) * ind|."""
    return abs(slope - float(fit.exponent()))


def check_slope(fit: Fit, slope: float) -> str | None:
    err = slope_error(fit, slope)
    if not err <= SLOPE_TOLERANCE:
        return f"fit {fit.name}: slope {slope:.4f}, exponent {fit.exponent()}, " \
               f"error {err:.4f} > {SLOPE_TOLERANCE}"
    return None


def least_squares_slope(points: list[tuple[float, float]]) -> float:
    """Slope of log(value) against log(lambda), for the CLI's tables."""
    xs = [math.log(lam) for lam, _ in points]
    ys = [math.log(v) for _, v in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    num = sum((a - mx) * (b - my) for a, b in zip(xs, ys))
    return num / sum((a - mx) ** 2 for a in xs)
