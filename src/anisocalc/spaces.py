"""Space descriptors, anisotropy bookkeeping and scale identifications.

A descriptor records scale, smoothness s, reciprocal integrability
x = 1/p, the optional micro-scale reciprocal y = 1/q, the anisotropy and
the value-space tag.  Smoothness and integrability are affine in the one
symbolic parameter so that every theorem condition stays affine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from enum import Enum
from fractions import Fraction

from .errors import HypothesisViolation, NotIdentifiable, Unsupported
from .ratcore import (AffineExpr, AffineLike, ParamEnv, Rational,
                      render_affine_p, render_fraction)


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
    """Slice dimensions and weights with their derived quantities."""

    dims: tuple[int, ...]
    weights: tuple[int, ...]

    def __post_init__(self):
        if len(self.dims) != len(self.weights) or not self.dims:
            raise ValueError("dims and weights must be nonempty and equally long")
        if any(d <= 0 for d in self.dims) or any(w <= 0 for w in self.weights):
            raise ValueError("dims and weights must be positive integers")
        object.__setattr__(self, "_hash", hash((self.dims, self.weights)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def nu(self) -> int:
        return len(self.dims)

    @cached_property
    def omega_dot(self) -> int:
        """Least common multiple of the weights."""
        return math.lcm(*self.weights)

    @cached_property
    def omega_dot_n(self) -> int:
        """Weighted total dimension, the inner product of weights and dims."""
        return sum(w * n for w, n in zip(self.weights, self.dims))

    @cached_property
    def is_isotropic(self) -> bool:
        return all(w == self.omega_dot for w in self.weights)

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
        if self.scale in (Scale.L, Scale.C0):
            if not (self.s.is_constant and self.s.constant == 0):
                raise ValueError(f"scale {self.scale} carries no smoothness")
            if self.y is not None:
                raise ValueError(f"scale {self.scale} carries no micro-scale")
        if self.y is not None and self.scale is not Scale.B:
            raise ValueError("only the Besov scale carries a micro-scale")
        if self.y is not None and not 0 <= self.y <= 1:
            raise ValueError("micro-scale reciprocal must lie in [0, 1]")
        if self.x.is_constant:
            v = self.x.constant
            lo_open, hi = {
                Scale.H: (True, Fraction(1)),
                Scale.B: (False, Fraction(1)),
                Scale.W: (True, Fraction(1)),
                Scale.L: (False, Fraction(1)),
                Scale.C0: (False, Fraction(0)),
            }[self.scale]
            if v < 0 or v > hi or (lo_open and v == 0) or \
                    (self.scale in (Scale.H, Scale.B) and v == 1):
                raise ValueError(
                    f"integrability reciprocal {v} out of range for scale {self.scale}")
        if self.scale is Scale.W and self.s.is_constant and self.s.constant < 0:
            raise ValueError("Sobolev-Slobodeckij smoothness must be nonnegative")

    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.scale, self.s, self.x, self.y, self.aniso,
                      self.target, self.domain_label))
            object.__setattr__(self, "_hash", h)
        return h

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

    @property
    def is_concrete(self) -> bool:
        return self.s.is_constant and self.x.is_constant

    def micro(self) -> AffineExpr:
        """Reciprocal micro-scale 1/q; absent micro-scale means q = p."""
        if self.scale is not Scale.B:
            raise Unsupported(f"scale {self.scale} carries no micro-scale")
        return self.x if self.y is None else AffineExpr.of(self.y)

    def with_(self, **kw) -> "SpaceDescr":
        return replace(self, **kw)

    def __str__(self) -> str:
        def expo(v: Fraction) -> str:
            if v == 0:
                return "oo"
            r = 1 / v
            return render_fraction(r) if r.denominator == 1 else f"{{{render_fraction(r)}}}"

        p = expo(self.x.constant) if self.x.is_constant else "p"
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
    idx = space.__dict__.get("_index")
    if idx is None:
        if space.scale is Scale.C0:
            raise Unsupported("no index is assigned to the C0 scale")
        a = space.aniso
        idx = (space.s - space.x * a.omega_dot_n) / a.omega_dot
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
    """
    if env is None or (env.recorder is None and space.is_concrete):
        out = space.__dict__.get("_normalized")
        if out is None:
            out = _normalize(space, ParamEnv.concrete())
            object.__setattr__(space, "_normalized", out)
        return out
    return _normalize(space, env)


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
