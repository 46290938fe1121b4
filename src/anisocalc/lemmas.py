"""Closed-form exponent lemmas with exact rational solutions.

Two constructive facts drive the integrability bookkeeping of the
multiplication proofs: a realization of a feasible target sum by
per-factor exponents, and the minimization of a piecewise-linear sum over
bounded integer compositions.  Both are solved here in closed form; the
test suite cross-checks against brute-force oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InfeasibleRange
from .ratcore import Rational


def _neg_part(v: Fraction) -> Fraction:
    """[v]_- : min(v, 0)."""
    return v if v < 0 else Fraction(0)


def _pos_part(v: Fraction) -> Fraction:
    """[v]_+ : max(v, 0)."""
    return v if v > 0 else Fraction(0)


@dataclass(frozen=True)
class RealizationInput:
    """Data for the exponent realization: caps sigma_j >= 0, reciprocal
    exponents pi_j in (0, 1) and a target sum rho in (0, 1)."""

    sigma: tuple[Rational, ...]
    pi: tuple[Rational, ...]
    rho: Rational

    def __post_init__(self):
        if len(self.sigma) != len(self.pi) or not self.sigma:
            raise ValueError("sigma and pi must be nonempty and equally long")
        if any(s < 0 for s in self.sigma):
            raise ValueError("sigma entries must be nonnegative")
        if any(not 0 < p < 1 for p in self.pi):
            raise ValueError("pi entries must lie in (0, 1)")
        if not 0 < self.rho < 1:
            raise ValueError("rho must lie in (0, 1)")

    @property
    def m(self) -> int:
        return len(self.sigma)

    def feasible(self) -> bool:
        lower = -sum(self.pi)
        upper = sum(_neg_part(s - p) for s, p in zip(self.sigma, self.pi))
        return lower <= -self.rho <= upper


def realize_exponents(inp: RealizationInput) -> list[Fraction]:
    """Split the target sum rho into exponents rho_j with
    pi_j - sigma_j <= rho_j <= pi_j and sum rho_j = rho.

    The interpolants phi_j(t) = (1-t) [pi_j - sigma_j]_+ + t pi_j are
    affine, so the common parameter solving phi(t) = rho is an exact
    rational; the lemma's strictness clause holds automatically whenever
    the upper range inequality is strict.
    """
    if not inp.feasible():
        raise InfeasibleRange(
            f"target {inp.rho} outside [{sum(_pos_part(p - s) for s, p in zip(inp.sigma, inp.pi))}, "
            f"{sum(inp.pi)}]")
    if all(s == 0 for s in inp.sigma):
        # the feasible range collapses to rho = sum(pi); split verbatim
        return [Fraction(p) for p in inp.pi]
    lo = [Fraction(_pos_part(p - s)) for s, p in zip(inp.sigma, inp.pi)]
    hi = [Fraction(p) for p in inp.pi]
    phi0 = sum(lo)
    phi1 = sum(hi)
    theta = (Fraction(inp.rho) - phi0) / (phi1 - phi0)
    return [(1 - theta) * a + theta * b for a, b in zip(lo, hi)]


@dataclass(frozen=True)
class MinimizationInput:
    """Data for the piecewise-linear minimization over integer
    compositions of total order at most n."""

    sigma: tuple[Rational, ...]
    pi: tuple[Rational, ...]
    n: int

    def __post_init__(self):
        if len(self.sigma) != len(self.pi) or len(self.sigma) < 2:
            raise ValueError("sigma and pi must be equally long with m >= 2")
        if any(s <= 0 for s in self.sigma) or any(p <= 0 for p in self.pi):
            raise ValueError("sigma and pi entries must be positive")
        if self.n < 1:
            raise ValueError("n must be a positive integer")

    @property
    def m(self) -> int:
        return len(self.sigma)


@dataclass(frozen=True)
class MinimizerRule:
    """The three-case characterization of the minimizing compositions."""

    case: str                     # "all" | "one-concentration" | "off-positive"
    mu: Rational
    n: int
    m_plus: frozenset[int]        # 1-based indices with sigma_j - pi_j > 0
    m_zero: frozenset[int]
    m_minus: frozenset[int]
    m_star: frozenset[int]        # argmin set of sigma_j - pi_j


def minimize_phi(inp: MinimizationInput) -> tuple[Fraction, MinimizerRule]:
    """Closed-form minimum of phi over the bounded compositions, plus the
    minimizer characterization."""
    d = [Fraction(s) - Fraction(p) for s, p in zip(inp.sigma, inp.pi)]
    mu = min(d)
    m_plus = frozenset(j for j, v in enumerate(d, start=1) if v > 0)
    m_zero = frozenset(j for j, v in enumerate(d, start=1) if v == 0)
    m_minus = frozenset(j for j, v in enumerate(d, start=1) if v < 0)
    m_star = frozenset(j for j, v in enumerate(d, start=1) if v == mu)
    if mu >= 0:
        phi_min = min(_neg_part(v - inp.n) for v in d)
        case = "all" if mu >= inp.n else "one-concentration"
    else:
        phi_min = sum((d[j - 1] for j in sorted(m_minus)), Fraction(0)) - inp.n
        case = "off-positive"
    rule = MinimizerRule(case, mu, inp.n, m_plus, m_zero, m_minus, m_star)
    return phi_min, rule
