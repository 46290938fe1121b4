"""Exact rational arithmetic and affine expressions in x = 1/p.

Every parameter of the engine is stored as an exact rational or as an
affine form  a + b*x  in the single symbolic variable x = 1/p.  All
decision rules reduce to sign questions about such forms, so this module
also provides the sign-analysis machinery: a :class:`ParamEnv` evaluates
signs at a rational witness and optionally records every compared form,
which is what the symbolic solver uses to find its case-split points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

from .errors import Unsupported

#: Exact rational scalar used throughout the engine (reduced form and a
#: positive denominator are guaranteed by the constructor).
Rational = Fraction

RationalLike = Union[Fraction, int, str]


def rat(value: RationalLike, den: int | None = None) -> Fraction:
    """Build an exact rational from an int, a string like ``"5/2"``, or a
    numerator/denominator pair."""
    if den is not None:
        return Fraction(value, den)  # type: ignore[arg-type]
    return Fraction(value)


@dataclass(frozen=True)
class AffineExpr:
    """An affine form ``constant + slope * x`` with x = 1/p.

    Evaluation at a rational point is exact; two forms are equal iff both
    coefficients match.
    """

    constant: Fraction = Fraction(0)
    slope: Fraction = Fraction(0)

    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.constant, self.slope))
            object.__setattr__(self, "_hash", h)
        return h

    @staticmethod
    def of(value: "AffineLike") -> "AffineExpr":
        if isinstance(value, AffineExpr):
            return value
        return AffineExpr(Fraction(value))

    @property
    def is_constant(self) -> bool:
        return self.slope == 0

    def __call__(self, x: RationalLike) -> Fraction:
        return self.constant + self.slope * Fraction(x)

    def __add__(self, other: "AffineLike") -> "AffineExpr":
        o = AffineExpr.of(other)
        return AffineExpr(self.constant + o.constant, self.slope + o.slope)

    __radd__ = __add__

    def __sub__(self, other: "AffineLike") -> "AffineExpr":
        o = AffineExpr.of(other)
        return AffineExpr(self.constant - o.constant, self.slope - o.slope)

    def __rsub__(self, other: "AffineLike") -> "AffineExpr":
        return AffineExpr.of(other) - self

    def __neg__(self) -> "AffineExpr":
        return AffineExpr(-self.constant, -self.slope)

    def __mul__(self, factor: RationalLike) -> "AffineExpr":
        c = Fraction(factor)
        return AffineExpr(self.constant * c, self.slope * c)

    __rmul__ = __mul__

    def __truediv__(self, divisor: RationalLike) -> "AffineExpr":
        c = Fraction(divisor)
        return AffineExpr(self.constant / c, self.slope / c)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise Unsupported(f"expression {self} is not constant in x = 1/p")
        return self.constant

    def root(self) -> Fraction | None:
        """The unique zero of the form, or None for constant forms."""
        if self.slope == 0:
            return None
        return -self.constant / self.slope

    def __str__(self) -> str:
        return render_affine_x(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AffineExpr({self.constant!r}, {self.slope!r})"


AffineLike = Union[AffineExpr, Fraction, int]

#: The symbolic integrability variable x = 1/p itself.
X = AffineExpr(Fraction(0), Fraction(1))

ZERO = AffineExpr()
ONE = AffineExpr(Fraction(1))


def render_fraction(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def render_affine_x(e: AffineExpr) -> str:
    """Render in the internal variable, e.g. ``1/2 - 5/2 x``."""
    if e.slope == 0:
        return render_fraction(e.constant)
    sx = "x" if abs(e.slope) == 1 else f"{render_fraction(abs(e.slope))} x"
    sign = "-" if e.slope < 0 else "+"
    if e.constant == 0:
        return sx if e.slope > 0 else f"-{sx}"
    return f"{render_fraction(e.constant)} {sign} {sx}"


def render_affine_p(e: AffineExpr) -> str:
    """Render with x written as 1/p, e.g. ``1/2 - 5/2p`` (meaning 5/(2p))."""
    if e.slope == 0:
        return render_fraction(e.constant)
    b = abs(e.slope)
    if b.denominator == 1:
        term = "1/p" if b == 1 else f"{b.numerator}/p"
    else:
        term = f"{b.numerator}/{b.denominator}p"
    sign = "-" if e.slope < 0 else "+"
    if e.constant == 0:
        return term if e.slope > 0 else f"-{term}"
    return f"{render_fraction(e.constant)} {sign} {term}"


def multiples_in_unit_interval(
    e: AffineExpr, modulus: RationalLike, *, allow_zero: bool = True
) -> list[Fraction]:
    """All x in the open interval (0, 1) at which ``e(x)`` is a (nonnegative,
    or positive if ``allow_zero`` is false) integer multiple of ``modulus``.

    Constant forms produce no case-split points, so the empty list is
    returned for them.
    """
    m = Fraction(modulus)
    if m <= 0:
        raise ValueError("modulus must be positive")
    if e.slope == 0:
        return []
    lo, hi = sorted((e(0), e(1)))
    points = []
    k = max(0 if allow_zero else 1, math.ceil(lo / m))
    while k * m <= hi:
        x = (k * m - e.constant) / e.slope
        if 0 < x < 1:
            points.append(x)
        k += 1
    return sorted(points)


@dataclass
class BreakpointRecorder:
    """Collects the case-split points met while evaluating a decision."""

    points: set[Fraction] = field(default_factory=set)


def _lowered(e: AffineLike) -> tuple[int, int, int]:
    """Integers (A, B, D) with ``e = (A + B*x) / D`` and D > 0.

    A scalar lowers with B = 0; an affine form caches its triple, as it
    caches its hash, so each form is lowered once.
    """
    if type(e) is not AffineExpr:
        return e.numerator, 0, e.denominator
    t = e.__dict__.get("_ints")
    if t is None:
        c, s = e.constant, e.slope
        d = math.lcm(c.denominator, s.denominator)
        t = (c.numerator * (d // c.denominator),
             s.numerator * (d // s.denominator), d)
        object.__setattr__(e, "_ints", t)
    return t


class ParamEnv:
    """Evaluation context: a rational witness for x plus an optional
    breakpoint recorder.

    All decision code routes its comparisons through this object, so a
    single implementation serves both concrete verdicts and the symbolic
    parameter solver.  Without a recorder, comparisons evaluate both sides
    at the witness; with one, they go through the integer kernel
    :meth:`_recorded_sign`.
    """

    __slots__ = ("witness", "recorder", "_u", "_v")

    def __init__(self, witness: RationalLike = Fraction(1, 2),
                 recorder: BreakpointRecorder | None = None):
        self.witness = Fraction(witness)
        self.recorder = recorder
        self._u, self._v = self.witness.numerator, self.witness.denominator

    @classmethod
    def concrete(cls) -> "ParamEnv":
        return cls(Fraction(1, 2), None)

    def _recorded_sign(self, lhs: tuple[int, int, int],
                       rhs: tuple[int, int, int]) -> int:
        """Sign of lhs - rhs at the witness, for lowered forms; the root of
        the difference is recorded when it lies in (0, 1).

        The difference is (a + b*x) / (D1*D2) with a positive denominator,
        so its root is -a/b and its sign at x = u/v is that of a*v + b*u.
        """
        a1, b1, d1 = lhs
        a2, b2, d2 = rhs
        a = a1 * d2 - a2 * d1
        b = b1 * d2 - b2 * d1
        if (-b < a < 0) if b > 0 else (0 < a < -b):
            self.recorder.points.add(Fraction(-a, b))
        v = a * self._v + b * self._u
        return (v > 0) - (v < 0)

    def sign(self, e: AffineLike) -> int:
        return self.cmp(e, 0)

    def value(self, e: AffineLike):
        if type(e) is AffineExpr:
            return e.constant if e.slope == 0 else e.constant + e.slope * self.witness
        return e

    # comparison helpers (lhs ? rhs)

    def lt(self, lhs: AffineLike, rhs: AffineLike) -> bool:
        if self.recorder is None:
            if type(lhs) is AffineExpr:
                lhs = lhs.constant if lhs.slope == 0 else \
                    lhs.constant + lhs.slope * self.witness
            if type(rhs) is AffineExpr:
                rhs = rhs.constant if rhs.slope == 0 else \
                    rhs.constant + rhs.slope * self.witness
            return lhs < rhs
        return self._recorded_sign(_lowered(lhs), _lowered(rhs)) < 0

    def le(self, lhs: AffineLike, rhs: AffineLike) -> bool:
        if self.recorder is None:
            return not self.lt(rhs, lhs)
        return self._recorded_sign(_lowered(lhs), _lowered(rhs)) <= 0

    def gt(self, lhs: AffineLike, rhs: AffineLike) -> bool:
        if self.recorder is None:
            return self.lt(rhs, lhs)
        return self._recorded_sign(_lowered(lhs), _lowered(rhs)) > 0

    def ge(self, lhs: AffineLike, rhs: AffineLike) -> bool:
        if self.recorder is None:
            return not self.lt(lhs, rhs)
        return self._recorded_sign(_lowered(lhs), _lowered(rhs)) >= 0

    def eq(self, lhs: AffineLike, rhs: AffineLike) -> bool:
        if self.recorder is None:
            return self.value(lhs) == self.value(rhs)
        return self._recorded_sign(_lowered(lhs), _lowered(rhs)) == 0

    def cmp(self, lhs: AffineLike, rhs: AffineLike) -> int:
        """Sign of lhs - rhs at the witness."""
        if self.recorder is None:
            va, vb = self.value(lhs), self.value(rhs)
            return (va > vb) - (va < vb)
        return self._recorded_sign(_lowered(lhs), _lowered(rhs))

    def sum_sign(self, terms, rhs: AffineLike) -> int:
        """Sign of sum(terms) - rhs at the witness."""
        if self.recorder is None:
            total = None
            for t in terms:
                v = self.value(t)
                total = v if total is None else total + v
            v = (total if total is not None else 0) - self.value(rhs)
            return (v > 0) - (v < 0)
        a, b, d = 0, 0, 1
        for t in terms:
            ta, tb, td = _lowered(t)
            a, b, d = a * td + ta * d, b * td + tb * d, d * td
        return self._recorded_sign((a, b, d), _lowered(rhs))

    def is_multiple(self, e: AffineLike, modulus: int | Fraction, *,
                    allow_zero: bool = True) -> bool:
        """Whether e(x) is an integer multiple of ``modulus`` at the witness
        (nonnegative multiples; positive ones if ``allow_zero`` is false).

        For non-constant forms this holds on at most finitely many x, which
        are recorded as case-split points.  They do not depend on the
        witness, so each form keeps them, keyed by ``(modulus,
        allow_zero)``.
        """
        if self.recorder is not None and type(e) is AffineExpr and e.slope:
            splits = e.__dict__.get("_splits")
            if splits is None:
                splits = {}
                object.__setattr__(e, "_splits", splits)
            key = (modulus, allow_zero)
            points = splits.get(key)
            if points is None:
                points = splits[key] = tuple(multiples_in_unit_interval(
                    e, modulus, allow_zero=allow_zero))
            self.recorder.points.update(points)
        a, b, d = _lowered(e)
        num = (a * self._v + b * self._u) * modulus.denominator
        den = d * self._v * modulus.numerator
        if num % den:
            return False
        return num // den >= (0 if allow_zero else 1)
