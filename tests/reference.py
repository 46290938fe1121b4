"""Reference implementations the tests check the engine against: brute-force
checkers of the exponent lemmas, random samplers of solved sets, the
product-estimate probe and small readers of decisions and reports.  None of
them is part of the library; each takes the library object it reads as its
first argument."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from anisocalc import (AffineExpr, Decision, MinimizerRule, MultInstance,
                       ParamSet, RealizationInput, Status,
                       decide_multiplication, normlab)
from anisocalc.appsuite import SuiteReport
from anisocalc.lemmas import _neg_part
from anisocalc.normlab import GridFunction
from anisocalc.spaces import Scale, SpaceDescr


class UncoveredInstance(Exception):
    """A product probe was requested for an instance that the decision
    engine does not cover; there is no estimate to test."""


# --- ratcore --------------------------------------------------------------

def affine_root(form: AffineExpr) -> Fraction | None:
    """The unique zero of the form, or None for constant forms."""
    if form.slope == 0:
        return None
    return -form.constant / form.slope


# --- embed and appsuite ---------------------------------------------------

def failed_labels(decision: Decision) -> list[str]:
    return [e.label for e in decision.trace if e.status is Status.FAIL]


def all_match(report: SuiteReport) -> bool:
    return all(t.matches_expected in (True, None) for t in report.terms)


# --- lemmas ---------------------------------------------------------------

def strict_upper(inp: RealizationInput) -> bool:
    upper = sum(_neg_part(s - p) for s, p in zip(inp.sigma, inp.pi))
    return -inp.rho < upper


def check_realization(inp: RealizationInput, rho_j: Sequence[Fraction]) -> bool:
    """Constraint checker: box constraints, exact sum, and the strictness
    clause when the upper range inequality is strict."""
    if len(rho_j) != inp.m:
        return False
    for r, s, p in zip(rho_j, inp.sigma, inp.pi):
        if not (0 <= r < 1 and -p <= -r <= s - p):
            return False
    if sum(rho_j) != inp.rho:
        return False
    for r, s, p in zip(rho_j, inp.sigma, inp.pi):
        if s < p and not r > 0:
            return False
        if s > p and not -r < s - p:
            return False
    if strict_upper(inp):
        for r, s, p in zip(rho_j, inp.sigma, inp.pi):
            if not r > 0:
                return False
            if s != 0 and not -r < s - p:
                return False
    return True


def is_minimizer(rule: MinimizerRule, nu: Sequence[int]) -> bool:
    if any(v < 0 for v in nu) or sum(nu) > rule.n:
        return False
    if rule.case == "all":
        return True
    if sum(nu) != rule.n:
        return False
    positive_support = {j for j, v in enumerate(nu, start=1)
                        if v > 0 and j in rule.m_plus}
    if rule.case == "off-positive":
        return not positive_support
    return positive_support <= rule.m_star and len(positive_support) <= 1


def phi_value(d: Sequence[Fraction], nu: Sequence[int]) -> Fraction:
    """phi(nu) = sum_j [d_j - nu_j]_- for d_j = sigma_j - pi_j."""
    return sum((_neg_part(dj - vj) for dj, vj in zip(d, nu)), Fraction(0))


def compositions_up_to(m: int, n: int) -> Iterator[tuple[int, ...]]:
    """All integer vectors of length m with nonnegative entries summing to
    at most n (the brute-force oracle domain)."""
    def rec(prefix: tuple[int, ...], remaining: int, slots: int):
        if slots == 0:
            yield prefix
            return
        for v in range(remaining + 1):
            yield from rec(prefix + (v,), remaining - v, slots - 1)
    yield from rec((), n, m)


# --- psolver --------------------------------------------------------------

def sample_inside(ps: ParamSet, rng: random.Random,
                  count: int) -> list[Fraction]:
    if ps.is_empty:
        return []
    out: list[Fraction] = []
    guard = 0
    while len(out) < count and guard < 100 * count:
        guard += 1
        iv = rng.choice(ps.intervals)
        if iv.lo == iv.hi:
            x = iv.lo
        else:
            den = rng.randrange(101, 1009)
            num = rng.randrange(1, den)
            x = iv.lo + (iv.hi - iv.lo) * Fraction(num, den)
        if ps.contains(x):
            out.append(x)
    return out


def sample_outside(ps: ParamSet, rng: random.Random,
                   count: int) -> list[Fraction]:
    """Samples in (0, 1) outside the set and off the excluded points."""
    gaps = _gaps(ps)
    if not gaps:
        return []
    out: list[Fraction] = []
    guard = 0
    while len(out) < count and guard < 100 * count:
        guard += 1
        lo, hi = rng.choice(gaps)
        if lo == hi:
            continue
        den = rng.randrange(101, 1009)
        num = rng.randrange(1, den)
        x = lo + (hi - lo) * Fraction(num, den)
        if 0 < x < 1 and not ps.contains(x) and \
                all(not iv.contains(x) for iv in ps.intervals):
            out.append(x)
    return out


def _gaps(ps: ParamSet) -> list[tuple[Fraction, Fraction]]:
    bounds = [Fraction(0)]
    for iv in ps.intervals:
        bounds.extend((iv.lo, iv.hi))
    bounds.append(Fraction(1))
    return [(bounds[i], bounds[i + 1]) for i in range(0, len(bounds), 2)
            if bounds[i] < bounds[i + 1]]


# --- normlab --------------------------------------------------------------

def full_norm(u: GridFunction, space: SpaceDescr) -> float:
    """Lebesgue part plus seminorm, the norm used by the product probes."""
    _, p = normlab._space_params(space)
    normlab._require_grid(u.slice_dims, space)
    pf = float(p)
    lp = float((np.sum(np.abs(u.samples) ** pf) * u.cell_volume()) ** (1 / pf))
    if space.scale is Scale.L or (space.s.is_constant and space.s.constant == 0):
        return lp
    return (lp ** pf + normlab._seminorm_for(space)(u, space).value ** pf) \
        ** (1 / pf)


@dataclass
class ProductProbeStats:
    ratios: list[float]
    max_ratio: float
    min_ratio: float

    @property
    def growth(self) -> float:
        return self.max_ratio / self.min_ratio if self.min_ratio > 0 else math.inf


def check_product_estimate(inst: MultInstance,
                           family: list[tuple[GridFunction, ...]],
                           ) -> ProductProbeStats:
    """Ratio statistics of the product estimate over a family of tuples.

    Refuses instances the decision engine does not cover; boundedness of
    the returned ratios is exactly what the estimate claims.
    """
    verdict = decide_multiplication(inst)
    if not verdict.covered:
        fail = verdict.first_failure()
        raise UncoveredInstance(
            "no estimate to test: instance not covered"
            + (f" (first failed condition: {fail.label})" if fail else ""))
    ratios = []
    for tup in family:
        if len(tup) != inst.m:
            raise ValueError("family tuples must match the instance arity")
        prod = tup[0].samples.copy()
        for g in tup[1:]:
            if g.samples.shape != prod.shape:
                raise ValueError("family members must share one grid")
            prod = prod * g.samples
        num = full_norm(GridFunction(tup[0].slice_dims, tup[0].spacings,
                                     prod, tup[0].decay_radius), inst.target)
        den = 1.0
        for g, f in zip(tup, inst.factors):
            den *= full_norm(g, f)
        ratios.append(num / den if den > 0 else math.inf)
    return ProductProbeStats(ratios, max(ratios), min(ratios))
