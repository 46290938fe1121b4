"""Space descriptors, anisotropy bookkeeping and scale identifications.

A descriptor records scale, smoothness s, reciprocal integrability
x = 1/p, the optional micro-scale reciprocal y = 1/q, the anisotropy and
the value-space tag.  Smoothness and integrability are affine in the one
symbolic parameter so that every theorem condition stays affine.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields
from enum import Enum
from fractions import Fraction

from .errors import HypothesisViolation, NotIdentifiable, Unsupported
from .ratcore import (X, AffineExpr, AffineLike, BreakpointRecorder,
                      ParamEnv, Rational, from_lowered, render_affine_p,
                      render_fraction)


class Scale(str, Enum):
    B = "B"    # Besov
    H = "H"    # Bessel potential
    W = "W"    # Sobolev-Slobodeckij
    L = "L"    # Lebesgue
    C0 = "C0"  # continuous functions vanishing at infinity

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Anisotropy:
    """Slice dimensions and weights with their derived quantities: the
    least common multiple of the weights ``omega_dot``, and the weighted
    total dimension ``omega_dot_n`` (the inner product of weights and
    dims)."""

    dims: tuple[int, ...]
    weights: tuple[int, ...]
    omega_dot: int = field(init=False, repr=False, compare=False)
    omega_dot_n: int = field(init=False, repr=False, compare=False)
    is_isotropic: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dims, weights = self.dims, self.weights
        if len(dims) != len(weights) or not dims:
            raise ValueError("dims and weights must be nonempty and equally long")
        least = min(weights)
        if least <= 0 or min(dims) <= 0:
            raise ValueError("dims and weights must be positive integers")
        wd = math.lcm(*weights)
        # frozen: the derived fields go straight into the instance dict;
        # the lcm equals the least weight only when all weights are equal
        self.__dict__.update(
            omega_dot=wd, omega_dot_n=sum(map(operator.mul, weights, dims)),
            is_isotropic=least == wd)

    @property
    def nu(self) -> int:
        return len(self.dims)

    def __str__(self) -> str:
        d = "x".join(str(n) for n in self.dims)
        w = ",".join(str(w) for w in self.weights)
        return f"R^{{{d}}} with weights ({w})"


def isotropic(dim: int) -> Anisotropy:
    return Anisotropy((dim,), (1,))


def parabolic(space_dim: int, time_weight: int = 2) -> Anisotropy:
    """Time-space anisotropy (1, space_dim) with weights (time_weight, 1)."""
    return Anisotropy((1, space_dim), (time_weight, 1))


@dataclass(frozen=True)
class TargetSpace:
    """Value-space tag: flags only, the engine never touches elements."""

    name: str
    umd: bool = True
    prop_alpha: bool = True
    banach_algebra: bool = False
    unital: bool = False

    def __post_init__(self):
        if self.unital and not self.banach_algebra:
            raise ValueError("a unital target must be a Banach algebra")
        # read by multiply._product_admissible's cache, 95-99 % hits
        object.__setattr__(self, "_hash", hash(
            (self.name, self.umd, self.prop_alpha, self.banach_algebra,
             self.unital)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


#: Scalar fields: UMD, property (alpha), unital Banach algebra.
SCALARS = TargetSpace("R", umd=True, prop_alpha=True,
                      banach_algebra=True, unital=True)


def lp_valued(label: str) -> TargetSpace:
    """Tag for Lebesgue-valued fibers over an opaque inner domain."""
    return TargetSpace(f"Lp({label})", umd=True, prop_alpha=True,
                       banach_algebra=False, unital=False)


#: Scale -> whether the reciprocal integrability may be 0, whether it may
#: be 1, and its upper bound.
_X_RANGE = {Scale.H: (False, False, 1), Scale.B: (True, False, 1),
            Scale.W: (False, True, 1), Scale.L: (True, True, 1),
            Scale.C0: (True, True, 0)}


@dataclass(frozen=True)
class SpaceDescr:
    """Descriptor of one anisotropic function space."""

    scale: Scale
    s: AffineExpr
    x: AffineExpr
    y: Rational | None
    aniso: Anisotropy
    target: TargetSpace = SCALARS
    domain_label: str = "R^n"

    def __post_init__(self):
        scale, y = self.scale, self.y
        sa, sb = self.s.a, self.s.b
        xa, xb, xd = self.x.a, self.x.b, self.x.d
        if scale is Scale.L or scale is Scale.C0:
            if sa or sb:
                raise ValueError(f"scale {scale} carries no smoothness")
            if y is not None:
                raise ValueError(f"scale {scale} carries no micro-scale")
        if y is not None and scale is not Scale.B:
            raise ValueError("only the Besov scale carries a micro-scale")
        if y is not None and not 0 <= y <= 1:
            raise ValueError("micro-scale reciprocal must lie in [0, 1]")
        if not xb:  # x = xa/xd in lowest terms
            zero_ok, one_ok, hi = _X_RANGE[scale]
            if xa < 0 or xa > hi * xd or (xa == 0 and not zero_ok) or \
                    (xa == xd and not one_ok):
                raise ValueError(f"integrability reciprocal {self.x.constant} "
                                 f"out of range for scale {scale}")
        if scale is Scale.W and not sb and sa < 0:
            raise ValueError("Sobolev-Slobodeckij smoothness must be nonnegative")

    @property
    def is_concrete(self) -> bool:
        """Whether s and x are constant: p is given."""
        return not self.s.b and not self.x.b

    # constructors -----------------------------------------------------

    @staticmethod
    def besov(s: AffineLike, x: AffineLike, aniso: Anisotropy,
              y: Rational | None = None, target: TargetSpace = SCALARS,
              domain_label: str = "R^n") -> "SpaceDescr":
        return SpaceDescr(Scale.B, AffineExpr.of(s), AffineExpr.of(x), y,
                          aniso, target, domain_label)

    @staticmethod
    def bessel(s: AffineLike, x: AffineLike, aniso: Anisotropy,
               target: TargetSpace = SCALARS,
               domain_label: str = "R^n") -> "SpaceDescr":
        return SpaceDescr(Scale.H, AffineExpr.of(s), AffineExpr.of(x), None,
                          aniso, target, domain_label)

    @staticmethod
    def sobolev(s: AffineLike, x: AffineLike, aniso: Anisotropy,
                target: TargetSpace = SCALARS,
                domain_label: str = "R^n") -> "SpaceDescr":
        return SpaceDescr(Scale.W, AffineExpr.of(s), AffineExpr.of(x), None,
                          aniso, target, domain_label)

    @staticmethod
    def lebesgue(x: AffineLike, aniso: Anisotropy,
                 target: TargetSpace = SCALARS,
                 domain_label: str = "R^n") -> "SpaceDescr":
        return SpaceDescr(Scale.L, AffineExpr(), AffineExpr.of(x), None,
                          aniso, target, domain_label)

    @staticmethod
    def c0(aniso: Anisotropy, target: TargetSpace = SCALARS,
           domain_label: str = "R^n") -> "SpaceDescr":
        return SpaceDescr(Scale.C0, AffineExpr(), AffineExpr(), None,
                          aniso, target, domain_label)

    # bookkeeping ------------------------------------------------------

    def micro(self) -> AffineExpr:
        """Reciprocal micro-scale 1/q; absent micro-scale means q = p."""
        if self.scale is not Scale.B:
            raise Unsupported(f"scale {self.scale} carries no micro-scale")
        return self.x if self.y is None else AffineExpr.of(self.y)

    def with_(self, **kw) -> "SpaceDescr":
        """A copy with some fields replaced and every check of the
        constructor run; one that keeps s, x and the anisotropy (a new
        scale or micro-scale) keeps the index too."""
        # as dataclasses.replace, without its per-field frozen __init__
        if not kw.keys() <= _FIELDS:
            raise TypeError(f"unknown descriptor fields {kw.keys() - _FIELDS}")
        out = object.__new__(SpaceDescr)
        out.__dict__.update({f: self.__dict__[f] for f in _FIELDS}, **kw)
        out.__post_init__()
        if Scale.C0 not in (self.scale, out.scale) and \
                kw.keys().isdisjoint(("s", "x", "aniso")):
            object.__setattr__(out, "_index", sobolev_index(self))
        return out

    def __str__(self) -> str:
        def expo(v: Fraction) -> str:
            # the exponent 1/v of a reciprocal v = n/d in [0, 1]
            n, d = v.numerator, v.denominator
            if n == 0:
                return "oo"
            return str(d) if n == 1 else f"{{{d}/{n}}}"

        if self.x.is_constant:
            p = expo(self.x.constant)
        elif self.x == X:
            p = "p"
        else:
            raise Unsupported(f"no space text for the integrability "
                              f"reciprocal {render_affine_p(self.x)}")
        w = "(" + ",".join(str(v) for v in self.aniso.weights) + ")"
        val = "" if self.target == SCALARS else f"; {self.target.name}"
        if self.scale is Scale.C0:
            wtag = "" if all(v == 1 for v in self.aniso.weights) else f"^{{{w}}}"
            return f"C0{wtag}({self.domain_label}{val})"
        if self.scale is Scale.L:
            return f"L^{{{w}}}_{p}({self.domain_label}{val})"
        q = f"_{expo(self.y)}" if (self.scale is Scale.B and self.y is not None) else ""
        return (f"{self.scale}^{{{render_affine_p(self.s)},{w}}}"
                f"_{p}{q}({self.domain_label}{val})")


_FIELDS = frozenset(f.name for f in fields(SpaceDescr) if f.init)


def require_concrete(*spaces: SpaceDescr) -> None:
    """Refuse symbolic integrability at a concrete entry point."""
    if any(not sp.is_concrete for sp in spaces):
        raise Unsupported("symbolic integrability: use the parameter solver")


def sobolev_index(space: SpaceDescr) -> AffineExpr:
    """The anisotropic regularity index (s - (w.n) x) / lcm(w).

    For the Lebesgue scale this is the adapted (weight-aware) index used by
    the embedding rules; the scale of vanishing continuous functions has no
    index and is refused.
    """
    # seed-1 reads hit 1,503 of 3,872 (concrete-batch), 11,614 of 13,104
    # (symbolic-solve)
    idx = space.__dict__.get("_index")
    if idx is None:
        if space.scale is Scale.C0:
            raise Unsupported("no index is assigned to the C0 scale")
        n, wd = space.aniso.omega_dot_n, space.aniso.omega_dot
        s, x = space.s, space.x
        idx = from_lowered(s.a * x.d - n * x.a * s.d,
                           s.b * x.d - n * x.b * s.d, s.d * x.d * wd)
        object.__setattr__(space, "_index", idx)
    return idx


def check_target_flags(space: SpaceDescr) -> None:
    """UMD always; property (alpha) whenever the weights are genuinely
    anisotropic."""
    if not space.target.umd:
        raise HypothesisViolation(
            f"value space {space.target.name} lacks the UMD flag")
    if not space.aniso.is_isotropic and not space.target.prop_alpha:
        raise HypothesisViolation(
            f"value space {space.target.name} lacks property (alpha) for "
            f"anisotropic weights {space.aniso.weights}")


def normalize(space: SpaceDescr, env: ParamEnv | None = None) -> SpaceDescr:
    """Canonical form of a descriptor.

    Sobolev-Slobodeckij descriptors are rewritten onto the Bessel-potential
    scale (s a multiple of lcm(w)) or the Besov scale with micro-scale
    equal to integrability (s positive, no slice ratio an integer); zero
    smoothness collapses to the Lebesgue scale; an explicit Besov
    micro-scale equal to the integrability is dropped.  Value-space flags
    are verified.

    Without an environment a symbolic descriptor is identified only when
    the identification is the same for every p in (1, oo): a case split
    met while identifying it marks a p where it changes, and is refused.
    """
    if env is not None or space.is_concrete:
        return _normalize(space, ParamEnv.concrete() if env is None else env)
    splits = BreakpointRecorder()
    out = _normalize(space, ParamEnv(recorder=splits))
    if splits.points:
        raise NotIdentifiable(
            f"{space}: the scale identification changes at p = "
            + ", ".join(render_fraction(1 / x) for x in sorted(splits.points)))
    return out


def _normalize(space: SpaceDescr, env: ParamEnv) -> SpaceDescr:
    check_target_flags(space)
    if space.scale is Scale.W:
        wd = space.aniso.omega_dot
        if env.eq(space.s, 0):
            return space.with_(scale=Scale.L, s=AffineExpr(), y=None)
        if not (env.gt(space.x, 0) and env.lt(space.x, 1)):
            raise NotIdentifiable(
                "scale identifications require 1 < p < oo")
        if env.is_multiple(space.s, wd, allow_zero=True):
            return space.with_(scale=Scale.H)
        ratios_clear = all(
            not env.is_multiple(space.s, w, allow_zero=False)
            for w in space.aniso.weights)
        if env.gt(space.s, 0) and ratios_clear:
            return space.with_(scale=Scale.B, y=None)
        raise NotIdentifiable(
            f"{space}: smoothness is neither a multiple of {wd} nor free of "
            f"integer slice ratios")
    if space.scale is Scale.H and env.eq(space.s, 0):
        return space.with_(scale=Scale.L, s=AffineExpr())
    if space.scale is Scale.B and space.y is not None and \
            space.x.is_constant and space.x.constant == space.y:
        return space.with_(y=None)
    return space


def effective_scale(space: SpaceDescr) -> Scale:
    """Scale class used by the theorem constraints: the Lebesgue scale is
    the zero-smoothness Bessel-potential space."""
    return Scale.H if space.scale is Scale.L else space.scale
