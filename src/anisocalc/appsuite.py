"""Executable nonlinearity checklists for two parabolic free-boundary
problems.

The mixed-derivative regularity of each solution quantity is imported as
an axiom with its own anchor; every nonlinear term then becomes one
engine query (multiplication, multiplier, superposition gate or
embedding) whose admissible integrability range is solved exactly and
compared against the recorded expectation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from fractions import Fraction
from typing import Callable

from .dsl import EXIT_COVERED, EXIT_NOT_COVERED, Query, decision_thunk
from .embed import Decision
from .psolver import ParamSet, solve_param
from .ratcore import AffineExpr, ParamEnv, Rational, X, render_fraction
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


Spaces = dict[str, SpaceDescr]


@dataclass(frozen=True)
class TermCheck:
    """One nonlinearity term: a query of its kind from the named factor
    spaces into the named target space, and its expected range."""

    name: str
    term_text: str
    governing: str
    kind: str
    factors: tuple[str, ...]
    target: str
    expected: ParamSet
    anchor: str
    #: the checklist's spaces at a given x = 1/p
    spaces: Callable[[AffineExpr], Spaces] = field(repr=False)

    def query(self, spaces: Spaces) -> Query:
        """The term's query over the checklist's spaces at some x."""
        return Query(self.kind, {
            "factors": tuple(spaces[f] for f in self.factors),
            "target": spaces[self.target]})


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

    def to_machine(self) -> dict:
        chk = self.check
        row: dict = {"name": chk.name, "term": chk.term_text, "kind": chk.kind,
                     "governing": chk.governing, "anchor": chk.anchor}
        if self.param_set is not None:
            row.update(param_set=self.param_set.to_machine(),
                       expected=chk.expected.to_machine(),
                       matches_expected=self.matches_expected)
        if self.decision is not None:
            row["verdict"] = self.decision.verdict.value
            fail = self.decision.first_failure()
            if fail is not None:
                row["first_failure"] = {"label": fail.label,
                                        "anchor": fail.anchor}
        return row

    def to_text(self) -> str:
        head = f"  {self.check.name} ({self.check.term_text}): "
        if self.param_set is not None:
            mark = "ok" if self.matches_expected else "MISMATCH"
            return (f"{head}p in {self.param_set.describe_p()} "
                    f"[{self.check.governing}] {mark}")
        fail = self.decision.first_failure()
        return head + self.decision.verdict.value + (
            "" if fail is None
            else f" (first failed: {fail.label} [{fail.anchor}])")


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
    def all_covered(self) -> bool:
        return all(t.decision is not None and t.decision.covered
                   for t in self.terms)

    @property
    def exit_code(self) -> int:
        """0 when the solved range after the exclusions is nonempty, or
        when every term is covered at the given p; 1 otherwise."""
        holds = self.all_covered if self.p is not None else \
            not self.final.is_empty
        return EXIT_COVERED if holds else EXIT_NOT_COVERED

    def to_machine(self) -> dict:
        out = {
            "kind": f"app.{self.problem}",
            "n": self.n,
            "p": None if self.p is None else render_fraction(Fraction(self.p)),
            "facts": [{"quantity": f.quantity, "space": str(f.space),
                       "anchor": f.anchor} for f in self.facts],
            "terms": [t.to_machine() for t in self.terms],
            "exclusions": [{"p": render_fraction(q), "anchor": a}
                           for q, a in self.exclusions],
            "footnotes": list(self.footnotes),
        }
        if self.intersection is not None:
            out["intersection"] = self.intersection.to_machine()
            out["final"] = self.final.to_machine()
        return out

    def to_text(self) -> str:
        lines = [f"checklist: {self.problem} (n = {self.n})", "facts:",
                 *(f"  {f.quantity}: {f.space} [{f.anchor}]"
                   for f in self.facts), "terms:",
                 *(t.to_text() for t in self.terms)]
        if self.intersection is not None:
            lines.append(f"intersection: p in {self.intersection.describe_p()}")
            lines.append(f"after exclusions: p in {self.final.describe_p()}")
        lines.append("exclusions: " + ", ".join(
            f"p = {render_fraction(q)} [{a}]" for q, a in self.exclusions))
        lines += (f"note: {note}" for note in self.footnotes)
        return "\n".join(lines)


# --------------------------------------------------------------------------
# shared builders


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


def stefan_facts(sp: Spaces) -> list[RegularityFact]:
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
    term = partial(TermCheck, anchor="app.stefan.mixed-derivative",
                   spaces=partial(_stefan_spaces, n))
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
               facts_of: Callable[[Spaces], list[RegularityFact]],
               terms_of: Callable[[int], list[TermCheck]],
               exclusions: tuple[Fraction, ...],
               footnotes: tuple[str, ...]) -> SuiteReport:
    """The checklist's report; n and p are checked before any space is
    built.  The spaces are built once, and terms with equal queries (kind,
    factors and target) are decided once."""
    if n < 2:
        raise ValueError("the checklists are stated for n >= 2")
    if p is not None and p <= 1:
        raise ValueError("the checklists are stated for 1 < p < oo")
    checks = terms_of(n)
    symbolic = checks[0].spaces(X)
    spaces = symbolic if p is None else \
        checks[0].spaces(AffineExpr.of(Fraction(1, 1) / Fraction(p)))
    decided: dict = {}
    results = []
    for chk in checks:
        key = (chk.kind, chk.factors, chk.target)
        if key not in decided:
            thunk = decision_thunk(chk.query(spaces))
            decided[key] = solve_param(thunk) if p is None else \
                thunk(ParamEnv.concrete())
        results.append(TermResult(chk, param_set=decided[key]) if p is None
                       else TermResult(chk, decision=decided[key]))
    if p is None:
        inter = ParamSet.unit_interval()
        for res in results:
            inter = inter.intersect(res.param_set)
        final = inter.without_points(
            [(Fraction(1, 1) / q, "app.exclusions") for q in exclusions])
    else:
        inter = final = None
    excl = tuple((q, "app.exclusions") for q in exclusions)
    return SuiteReport(problem, n, p, facts_of(symbolic), results, inter,
                       final, excl, footnotes)


def run_stefan(n: int, p: Rational | None = None) -> SuiteReport:
    """Checklist of the supercooled-interface problem in n space dimensions;
    ``p = None`` solves every term symbolically."""
    return _run_suite(
        "stefan", n, p, stefan_facts, stefan_terms, _STEFAN_EXCLUSIONS,
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


def nvs_facts(sp: Spaces) -> list[RegularityFact]:
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
    term = partial(TermCheck, anchor="app.nvs.mixed-derivative",
                   spaces=partial(_nvs_spaces, n))
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
        "nvs", n, p, nvs_facts, nvs_terms, _NVS_EXCLUSIONS,
        ("initial-data compatibility conditions are listed, not checked "
         "(app.compat)",))
