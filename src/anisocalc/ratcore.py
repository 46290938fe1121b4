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


class AffineExpr:
    """An affine form ``constant + slope * x`` with x = 1/p, held as the
    reduced integers of ``(a + b*x) / d``: d > 0 and gcd(a, b, d) = 1.

    So two forms are equal iff their triples are, and every comparison of
    the engine works on the triple.  Forms are immutable; evaluation at a
    rational point is exact.
    """

    __slots__ = ("a", "b", "d")

    def __new__(cls, constant: RationalLike = 0, slope: RationalLike = 0):
        c, s = Fraction(constant), Fraction(slope)
        return from_lowered(c.numerator * s.denominator,
                            s.numerator * c.denominator,
                            c.denominator * s.denominator)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a form")

    __delattr__ = __setattr__

    @staticmethod
    def of(value: "AffineLike") -> "AffineExpr":
        if isinstance(value, AffineExpr):
            return value
        return AffineExpr(value)

    @property
    def constant(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def slope(self) -> Fraction:
        return Fraction(self.b, self.d)

    @property
    def is_constant(self) -> bool:
        return not self.b

    def __eq__(self, other) -> bool:
        if type(other) is not AffineExpr:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.d))

    def __call__(self, x: RationalLike) -> Fraction:
        return (self.a + self.b * Fraction(x)) / self.d

    def __add__(self, other: "AffineLike") -> "AffineExpr":
        a, b, d = lowered(other)
        return from_lowered(self.a * d + a * self.d, self.b * d + b * self.d,
                            self.d * d)

    __radd__ = __add__

    def __sub__(self, other: "AffineLike") -> "AffineExpr":
        a, b, d = lowered(other)
        return from_lowered(self.a * d - a * self.d, self.b * d - b * self.d,
                            self.d * d)

    def __rsub__(self, other: "AffineLike") -> "AffineExpr":
        return -(self - other)

    def __neg__(self) -> "AffineExpr":
        return from_lowered(-self.a, -self.b, self.d)

    def __mul__(self, factor: RationalLike) -> "AffineExpr":
        c = Fraction(factor)
        return from_lowered(self.a * c.numerator, self.b * c.numerator,
                            self.d * c.denominator)

    __rmul__ = __mul__

    def __truediv__(self, divisor: RationalLike) -> "AffineExpr":
        c = Fraction(divisor)
        return from_lowered(self.a * c.denominator, self.b * c.denominator,
                            self.d * c.numerator)

    def constant_value(self) -> Fraction:
        if self.b:
            raise Unsupported(f"expression {self} is not constant in x = 1/p")
        return self.constant

    def __str__(self) -> str:
        return render_affine_x(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AffineExpr({self.constant!r}, {self.slope!r})"


_set_a, _set_b, _set_d = (getattr(AffineExpr, f).__set__
                          for f in AffineExpr.__slots__)


def from_lowered(a: int, b: int, d: int) -> AffineExpr:
    """The form ``(a + b*x) / d`` for integers with d != 0."""
    if not d:
        raise ZeroDivisionError("affine form with denominator 0")
    g = math.gcd(a, b, d) if d > 0 else -math.gcd(a, b, d)
    e = object.__new__(AffineExpr)
    _set_a(e, a // g)
    _set_b(e, b // g)
    _set_d(e, d // g)
    return e


def lowered(e: "AffineLike") -> tuple[int, int, int]:
    """The triple (a, b, d) of a form, or (n, 0, d) of a scalar n/d."""
    if type(e) is AffineExpr:
        return e.a, e.b, e.d
    return e.numerator, 0, e.denominator


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
    c, slope = e.constant, e.slope
    if slope == 0:
        return render_fraction(c)
    b = abs(slope)
    if b.denominator == 1:
        term = "1/p" if b == 1 else f"{b.numerator}/p"
    else:
        term = f"{b.numerator}/{b.denominator}p"
    sign = "-" if slope < 0 else "+"
    if c == 0:
        return term if slope > 0 else f"-{term}"
    return f"{render_fraction(c)} {sign} {term}"


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


class ParamEnv:
    """Evaluation context: a rational witness for x plus an optional
    breakpoint recorder.

    All decision code routes its comparisons through this object, so a
    single implementation serves both concrete verdicts and the symbolic
    parameter solver: every comparison takes the sign of the difference
    of the two integer triples in :meth:`cmp`, which also records the
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

    def cmp(self, lhs: AffineLike, rhs: AffineLike) -> int:
        """Sign of lhs - rhs at the witness.  The root of the difference is
        recorded when it lies in (0, 1).

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
