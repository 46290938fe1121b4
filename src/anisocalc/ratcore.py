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


@dataclass(frozen=True)
class AffineExpr:
    """An affine form ``constant + slope * x`` with x = 1/p.

    Evaluation at a rational point is exact; two forms are equal iff both
    coefficients match.
    """

    constant: Fraction = Fraction(0)
    slope: Fraction = Fraction(0)

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

    def __str__(self) -> str:
        return render_affine_x(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AffineExpr({self.constant!r}, {self.slope!r})"


AffineLike = Union[AffineExpr, Fraction, int]

#: The symbolic integrability variable x = 1/p itself.
X = AffineExpr(Fraction(0), Fraction(1))


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
    returned for them.  With ``e = (A + B*x) / D`` and ``modulus = m/n``,
    ``e(x) = k*m/n`` at ``x = (k*m*D - A*n) / (B*n)``, which lies in (0, 1)
    exactly when ``k*m*D`` lies strictly between ``A*n`` and ``(A + B)*n``.
    """
    mod = Fraction(modulus)
    if mod <= 0:
        raise ValueError("modulus must be positive")
    a, b, d = lowered(e)
    if b == 0:
        return []
    m, n = mod.numerator * d, mod.denominator
    lo, hi = sorted((a * n, (a + b) * n))
    first = max(0 if allow_zero else 1, lo // m + 1)
    last = -(-hi // m) - 1
    points = [Fraction(k * m - a * n, b * n) for k in range(first, last + 1)]
    return points if b > 0 else points[::-1]


@dataclass
class BreakpointRecorder:
    """Collects the case-split points met while evaluating a decision.

    ``splits`` holds the keys ``(A, B, D, modulus, allow_zero)`` of the
    divisibility tests whose points are already in ``points``: they do
    not depend on the witness, so one recorder adds them once.
    """

    points: set[Fraction] = field(default_factory=set)
    splits: set[tuple] = field(default_factory=set)


Lowered = tuple[int, int, int]


def lowered(e: AffineLike | Lowered) -> Lowered:
    """Integers (A, B, D) with ``e = (A + B*x) / D`` and D > 0.

    A scalar lowers with B = 0; an affine form caches its triple, so each
    form is lowered once.  A triple passes through unchanged.
    """
    t = type(e)
    if t is AffineExpr:
        # a seed-1 concrete-batch pass lowers 508 forms for 39,658 reads
        ints = e.__dict__.get("_ints")
        if ints is None:
            c, s = e.constant, e.slope
            d = math.lcm(c.denominator, s.denominator)
            ints = (c.numerator * (d // c.denominator),
                    s.numerator * (d // s.denominator), d)
            object.__setattr__(e, "_ints", ints)
        return ints
    if t is tuple:
        return e
    return e.numerator, 0, e.denominator


def from_lowered(a: int, b: int, d: int) -> AffineExpr:
    """The form ``(a + b*x) / d`` (d > 0), with its lowered triple cached."""
    g = math.gcd(a, b, d)
    a, b, d = a // g, b // g, d // g
    e = AffineExpr(Fraction(a, d), Fraction(b, d)) if b else \
        AffineExpr(Fraction(a, d))
    object.__setattr__(e, "_ints", (a, b, d))
    return e


def lowered_sum(terms) -> Lowered:
    """The lowered triple of a sum of forms, scalars or triples."""
    a, b, d = 0, 0, 1
    for t in terms:
        ta, tb, td = lowered(t)
        a, b, d = a * td + ta * d, b * td + tb * d, d * td
    return a, b, d


class ParamEnv:
    """Evaluation context: a rational witness for x plus an optional
    breakpoint recorder.

    All decision code routes its comparisons through this object, so a
    single implementation serves both concrete verdicts and the symbolic
    parameter solver: every comparison lowers both sides to integer
    triples and takes the sign in :meth:`cmp`, which also records the
    root of the difference when a recorder is present.  Nothing mutates
    an environment, so :meth:`concrete` shares one.
    """

    __slots__ = ("recorder", "_u", "_v")

    def __init__(self, witness: RationalLike = Fraction(1, 2),
                 recorder: BreakpointRecorder | None = None):
        witness = Fraction(witness)
        self.recorder = recorder
        self._u, self._v = witness.numerator, witness.denominator

    @staticmethod
    def concrete() -> "ParamEnv":
        return _CONCRETE

    def cmp(self, lhs: AffineLike | Lowered, rhs: AffineLike | Lowered) -> int:
        """Sign of lhs - rhs at the witness; either side may be a lowered
        triple.  The root of the difference is recorded when it lies in
        (0, 1).

        The difference is (a + b*x) / (D1*D2) with a positive denominator,
        so its root is -a/b and its sign at x = u/v is that of a*v + b*u.
        """
        a1, b1, d1 = lowered(lhs)
        a2, b2, d2 = lowered(rhs)
        a = a1 * d2 - a2 * d1
        b = b1 * d2 - b2 * d1
        if self.recorder is not None and \
                ((-b < a < 0) if b > 0 else (0 < a < -b)):
            self.recorder.points.add(Fraction(-a, b))
        v = a * self._v + b * self._u
        return (v > 0) - (v < 0)

    def sign(self, e: AffineLike) -> int:
        return self.cmp(e, 0)

    # comparison helpers (lhs ? rhs)

    def lt(self, lhs: AffineLike, rhs: AffineLike) -> bool:
        return self.cmp(lhs, rhs) < 0

    def le(self, lhs: AffineLike, rhs: AffineLike) -> bool:
        return self.cmp(lhs, rhs) <= 0

    def gt(self, lhs: AffineLike, rhs: AffineLike) -> bool:
        return self.cmp(lhs, rhs) > 0

    def ge(self, lhs: AffineLike, rhs: AffineLike) -> bool:
        return self.cmp(lhs, rhs) >= 0

    def eq(self, lhs: AffineLike, rhs: AffineLike) -> bool:
        return self.cmp(lhs, rhs) == 0

    def sum_sign(self, terms, rhs: AffineLike) -> int:
        """Sign of sum(terms) - rhs at the witness."""
        return self.cmp(lowered_sum(terms), rhs)

    def is_multiple(self, e: AffineLike, modulus: int | Fraction, *,
                    allow_zero: bool = True) -> bool:
        """Whether e(x) is an integer multiple of ``modulus`` at the witness
        (nonnegative multiples; positive ones if ``allow_zero`` is false).

        For non-constant forms this holds on at most finitely many x, which
        are recorded as case-split points, once per recorder.
        """
        a, b, d = lowered(e)
        rec = self.recorder
        if rec is not None and b:
            key = (a, b, d, modulus, allow_zero)
            if key not in rec.splits:
                rec.splits.add(key)
                rec.points.update(multiples_in_unit_interval(
                    e, modulus, allow_zero=allow_zero))
        num = (a * self._v + b * self._u) * modulus.denominator
        den = d * self._v * modulus.numerator
        if num % den:
            return False
        return num // den >= (0 if allow_zero else 1)


_CONCRETE = ParamEnv()
