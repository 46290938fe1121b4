"""Executable nonlinearity checklists for two parabolic free-boundary
problems.

The mixed-derivative regularity of each solution quantity is imported as
an axiom with its own anchor; every nonlinear term then becomes one
engine query (multiplication, multiplier, superposition gate or
embedding) whose admissible integrability range is solved exactly and
compared against the recorded expectation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from typing import Callable, Sequence

from .dsl import Query, decision_thunk
from .embed import Decision
from .psolver import ParamSet, solve_param
from .ratcore import AffineExpr, ParamEnv, Rational, X
from .spaces import SCALARS, Anisotropy, SpaceDescr, lp_valued

# Unused here: the benchmark's traced run wraps these names in this module.
from .embed import embeds_in  # noqa: F401
from .multiply import (decide_multiplication_in,  # noqa: F401
                       decide_multiplier_in)
from .nemytskij import decide_nemytskij_in  # noqa: F401


@dataclass(frozen=True)
class RegularityFact:
    """One solution quantity with its imported regularity space."""

    quantity: str
    space: SpaceDescr
    anchor: str


@dataclass(frozen=True)
class TermCheck:
    """One nonlinearity term with its engine query and expected range."""

    name: str
    term_text: str
    governing: str
    query: Callable[[AffineExpr], Query]
    expected: ParamSet
    anchor: str

    @property
    def kind(self) -> str:
        return self.query(X).kind


@dataclass
class TermResult:
    check: TermCheck
    param_set: ParamSet | None = None
    decision: Decision | None = None

    @property
    def matches_expected(self) -> bool | None:
        if self.param_set is None:
            return None
        return self.param_set.same_region(self.check.expected)


@dataclass
class SuiteReport:
    problem: str
    n: int
    p: Rational | None
    facts: list[RegularityFact]
    terms: list[TermResult]
    intersection: ParamSet | None
    final: ParamSet | None
    exclusions: tuple[tuple[Rational, str], ...]
    footnotes: tuple[str, ...]

    @property
    def all_match(self) -> bool:
        return all(t.matches_expected in (True, None) for t in self.terms)

    @property
    def all_covered(self) -> bool:
        return all(t.decision is not None and t.decision.covered
                   for t in self.terms)


# --------------------------------------------------------------------------
# shared builders


def _term(spaces: Callable[[AffineExpr], dict[str, SpaceDescr]],
          anchor: str, name: str, text: str, governing: str, kind: str,
          factors: Sequence[str], target: str,
          expected: ParamSet) -> TermCheck:
    """A term whose query maps the named factor spaces into the named
    target space."""
    def query(x: AffineExpr) -> Query:
        sp = spaces(x)
        return Query(kind, {"factors": tuple(sp[f] for f in factors),
                            "target": sp[target]})
    return TermCheck(name, text, governing, query, expected, anchor)


def _x_upto(hi: Fraction, closed: bool) -> ParamSet:
    return ParamSet.from_x(Fraction(0), False, hi, closed)


# --------------------------------------------------------------------------
# the supercooled-interface problem (one bulk diffusion, curvature coupling)


def _stefan_spaces(n: int, x: AffineExpr):
    sig = Anisotropy((1, n - 1), (2, 1))
    val = lp_valued("Rdot")
    js = "JxSigma"

    def w(s: AffineExpr) -> SpaceDescr:
        return SpaceDescr.sobolev(s, x, sig, SCALARS, js)

    spaces = {
        "dt_h": w(1 - x),
        "grad_h": w(Fraction(5, 2) - x),
        "hess_h": w(2 - x),
        "grad_u": SpaceDescr.bessel(1, x, sig, val, js),
        "hess_u": SpaceDescr.lebesgue(x, sig, val, js),
        "trace_grad_u": w(1 - x),
        "flux_target": SpaceDescr.lebesgue(x, sig, val, js),
        "gibbs_target": w(2 - x),
        "kinematic_target": w(1 - x),
    }
    return spaces


def stefan_facts(n: int, x: AffineExpr = X) -> list[RegularityFact]:
    sp = _stefan_spaces(n, x)
    a = "app.stefan.mixed-derivative"
    return [
        RegularityFact("time derivative of the height", sp["dt_h"], a),
        RegularityFact("height gradient", sp["grad_h"], a),
        RegularityFact("height second derivatives", sp["hess_h"], a),
        RegularityFact("bulk gradient (interface-anisotropic form)",
                       sp["grad_u"], a),
        RegularityFact("bulk second derivatives", sp["hess_u"], a),
        RegularityFact("interface trace of the bulk gradient",
                       sp["trace_grad_u"], a),
    ]


def stefan_terms(n: int) -> list[TermCheck]:
    cond1 = _x_upto(Fraction(2, n + 2), True)          # p >= (n+2)/2
    cond2 = _x_upto(Fraction(5, 2 * (n + 2)), False)   # p > 2(n+2)/5
    every_p = ParamSet.unit_interval()
    g1 = "p >= (n+2)/2"
    g2 = "p > 2(n+2)/5"
    term = partial(_term, partial(_stefan_spaces, n),
                   "app.stefan.mixed-derivative")
    gradients = ("grad_h",) * (n - 1)

    return [
        term("flux coupling", "(dt h - lap h) * dn u", g1,
             "mult", ("dt_h", "grad_u"), "flux_target", cond1),
        term("gradient transport", "(grad h . grad) dn u", g2,
             "multiplier", ("grad_h", "hess_u"), "flux_target", cond2),
        term("quadratic gradient", "|grad h|^2 * dn2 u", g2,
             "multiplier", ("grad_h", "grad_h", "hess_u"), "flux_target",
             cond2),
        term("curvature coefficient phi", "phi(grad h)", g2,
             "nemytskij", gradients, "grad_h", cond2),
        term("curvature coefficient psi", "psi_jk(grad h)", g2,
             "nemytskij", gradients, "grad_h", cond2),
        term("curvature product", "phi(grad h) * lap h", g2,
             "multiplier", ("grad_h", "hess_h"), "gibbs_target", cond2),
        term("kinematic gradient coupling", "grad h . trace grad u", g2,
             "multiplier", ("grad_h", "trace_grad_u"), "kinematic_target",
             cond2),
        term("kinematic quadratic coupling", "|grad h|^2 * trace dn u", g2,
             "multiplier", ("grad_h", "grad_h", "trace_grad_u"),
             "kinematic_target", cond2),
        term("second-derivative membership", "lap h into the flux factor",
             "1 < p < oo", "embed", ("hess_h",), "dt_h", every_p),
    ]


_STEFAN_EXCLUSIONS = (Fraction(3, 2), Fraction(3))
_NVS_EXCLUSIONS = (Fraction(3, 2), Fraction(3))


def _run_suite(problem: str, n: int, p: Rational | None,
               facts: list[RegularityFact], checks: list[TermCheck],
               exclusions: tuple[Fraction, ...],
               footnotes: tuple[str, ...]) -> SuiteReport:
    if n < 2:
        raise ValueError("the checklists are stated for n >= 2")
    if p is not None and p <= 0:
        raise ValueError("the integrability exponent must be positive")
    results: list[TermResult] = []
    if p is None:
        for chk in checks:
            results.append(TermResult(
                chk, param_set=solve_param(decision_thunk(chk.query(X)))))
        inter = ParamSet.unit_interval()
        for res in results:
            inter = inter.intersect(res.param_set)
        final = inter.without_points(
            [(Fraction(1, 1) / q, "app.exclusions") for q in exclusions])
    else:
        x = AffineExpr.of(Fraction(1, 1) / Fraction(p))
        for chk in checks:
            decide = decision_thunk(chk.query(x))
            results.append(TermResult(chk, decision=decide(ParamEnv.concrete())))
        inter = final = None
    excl = tuple((q, "app.exclusions") for q in exclusions)
    return SuiteReport(problem, n, p, facts, results, inter, final, excl,
                       footnotes)


def run_stefan(n: int, p: Rational | None = None) -> SuiteReport:
    """Checklist of the supercooled-interface problem in n space dimensions;
    ``p = None`` solves every term symbolically."""
    return _run_suite(
        "stefan", n, p, stefan_facts(n), stefan_terms(n), _STEFAN_EXCLUSIONS,
        ("initial-data compatibility conditions are listed, not checked "
         "(app.compat)",))


# --------------------------------------------------------------------------
# the two-phase incompressible-flow problem


def _nvs_spaces(n: int, x: AffineExpr):
    sig = Anisotropy((1, n - 1), (2, 1))
    blk = Anisotropy((1, n), (2, 1))
    val = lp_valued("Rdot")
    js, jb = "JxSigma", "JxRdotn"

    def w(s: AffineExpr) -> SpaceDescr:
        return SpaceDescr.sobolev(s, x, sig, SCALARS, js)

    return {
        "dt_h": w(2 - x),
        "grad_h": w(2 - x),
        "hess_h": w(1 - x),
        "grad_u": SpaceDescr.bessel(1, x, sig, val, js),
        "hess_u": SpaceDescr.lebesgue(x, sig, val, js),
        "trace_grad_u": w(1 - x),
        "u_interface": SpaceDescr.bessel(2, x, sig, val, js),
        "u_bulk": SpaceDescr.bessel(2, x, blk, SCALARS, jb),
        "grad_u_bulk": SpaceDescr.bessel(1, x, blk, SCALARS, jb),
        "pressure_trace": w(1 - x),
        "flux_target": SpaceDescr.lebesgue(x, sig, val, js),
        "bulk_target": SpaceDescr.lebesgue(x, blk, SCALARS, jb),
        "stress_target": w(1 - x),
    }


def nvs_facts(n: int, x: AffineExpr = X) -> list[RegularityFact]:
    sp = _nvs_spaces(n, x)
    a = "app.nvs.mixed-derivative"
    return [
        RegularityFact("time derivative of the height", sp["dt_h"], a),
        RegularityFact("height gradient", sp["grad_h"], a),
        RegularityFact("height second derivatives", sp["hess_h"], a),
        RegularityFact("velocity gradient (interface-anisotropic form)",
                       sp["grad_u"], a),
        RegularityFact("velocity second derivatives", sp["hess_u"], a),
        RegularityFact("interface trace of the velocity gradient",
                       sp["trace_grad_u"], a),
        RegularityFact("bulk velocity", sp["u_bulk"], a),
        RegularityFact("pressure trace", sp["pressure_trace"], a),
    ]


def nvs_terms(n: int) -> list[TermCheck]:
    reqp1w = _x_upto(Fraction(2, n + 2), True)    # p >= (n+2)/2
    reqp1 = _x_upto(Fraction(2, n + 2), False)    # p > (n+2)/2
    reqp2 = _x_upto(Fraction(3, n + 2), True)     # p >= (n+2)/3
    g1w, g1, g2 = "p >= (n+2)/2", "p > (n+2)/2", "p >= (n+2)/3"
    term = partial(_term, partial(_nvs_spaces, n), "app.nvs.mixed-derivative")
    gradients = ("grad_h",) * (n - 1)

    return [
        term("interface flux coupling", "(dt h - lap h) * dn {v, w}", g1w,
             "mult", ("hess_h", "grad_u"), "flux_target", reqp1w),
        term("gradient transport", "(grad h . grad) dn {v, w}", g1,
             "multiplier", ("grad_h", "hess_u"), "flux_target", reqp1),
        term("quadratic gradient", "|grad h|^2 dn2 {v, w}; grad h * dn q", g1,
             "multiplier", ("grad_h", "grad_h", "hess_u"), "flux_target",
             reqp1),
        term("convective transport", "(v . grad') {v, w}; w dn {v, w}", g2,
             "mult", ("u_bulk", "grad_u_bulk"), "bulk_target", reqp2),
        term("interface convection (interface factor)",
             "(v . grad h) dn {v, w}", g2,
             "mult", ("grad_h", "grad_u"), "flux_target", reqp2),
        term("interface convection (bulk factor)",
             "(v . grad h) dn {v, w}", g1,
             "multiplier", ("u_bulk", "bulk_target"), "bulk_target", reqp1),
        term("divergence correction (time part)", "dt grad h . v", g2,
             "mult", ("hess_h", "u_interface"), "flux_target", reqp2),
        term("divergence correction (velocity part)", "grad h . dt v", g1,
             "multiplier", ("grad_h", "hess_u"), "flux_target", reqp1),
        term("divergence correction (spatial, second-derivative factor)",
             "dj grad h . dn v", g1w,
             "mult", ("hess_h", "grad_u"), "flux_target", reqp1w),
        term("kinematic coupling", "grad h . trace v", g1,
             "multiplier", ("grad_h", "stress_target"), "stress_target",
             reqp1),
        term("curvature coefficient phi", "phi(grad h)", g1,
             "nemytskij", gradients, "grad_h", reqp1),
        term("curvature coefficient psi", "psi_jk(grad h)", g1,
             "nemytskij", gradients, "grad_h", reqp1),
        term("interface stress (single gradient)",
             "[[ . ]] grad h; lap h grad h; G_sigma grad h", g1,
             "multiplier", ("grad_h", "stress_target"), "stress_target",
             reqp1),
        term("interface stress (quadratic gradient)",
             "|grad h|^2 [[ . ]]", g1,
             "multiplier", ("grad_h", "grad_h", "stress_target"),
             "stress_target", reqp1),
    ]


def run_nvs(n: int, p: Rational | None = None) -> SuiteReport:
    """Checklist of the two-phase incompressible-flow problem in n space
    dimensions; ``p = None`` solves every term symbolically."""
    return _run_suite(
        "nvs", n, p, nvs_facts(n), nvs_terms(n), _NVS_EXCLUSIONS,
        ("initial-data compatibility conditions are listed, not checked "
         "(app.compat)",))
